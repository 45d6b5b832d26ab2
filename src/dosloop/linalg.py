"""Dense linear-algebra kernel for desk-scale systems, on numpy alone.

Matrix exponentials, norms, Lyapunov solves, and exponential envelopes of
the form ||exp(M t)|| <= c * exp(r t). State dimensions here are small
(n <= 8), so everything is dense and direct. Each envelope is proved for
all t >= 0, with stated rounding slack: the decay envelope by Lyapunov's
inequality with an a-posteriori residual bound, the growth envelope by the
logarithmic norm. No exponential is sampled.

Every exponential comes from one degree-18 Taylor kernel (_taylor_terms):
mat_exp sums it at M t / 2^j and squares the sum j times, and the plant
sums its top rows for single steps within its reach. The Lyapunov equation
is solved as one n^2 x n^2 linear system with numpy's LAPACK solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

FloatArray = NDArray[np.float64]

_LYAP_RESIDUAL_REL = 1e-8
_EPS = float(np.finfo(float).eps)
_UNIT_ROUNDOFF = 0.5 * _EPS
# The Taylor kernel (_taylor_terms) cuts the series of exp(X) after the term
# of degree TAYLOR_DEGREE and sums it only at ||X||_F <= TAYLOR_THETA.
TAYLOR_DEGREE = 18
TAYLOR_THETA = 1.0
_TAYLOR_EXPONENTS = np.arange(TAYLOR_DEGREE + 1, dtype=float)
_TAYLOR_FACTORIALS = np.cumprod(np.maximum(_TAYLOR_EXPONENTS, 1.0))
# A sum of squares below _NORM_FLOOR may have lost bits to underflow (a
# square is subnormal below 2^-1022); _norm and _row_norms then sum the
# squares of the vector times _NORM_SCALE. Both are powers of two, so the
# scaling is exact: a norm below 2^-450 scaled up stays below 2^150, and
# the smallest double's square, 2^-948 after scaling, is a normal number.
# Above the floor, squares lost to underflow (each below 2^-1074) move the
# sum by less than n 2^-174 of itself.
# A sum of squares above _NORM_CEIL may have overflowed (a square passes
# the largest double from 2^512 on); they then sum the squares of the
# vector times 1 / _NORM_SCALE. An entry scaled down stays below 2^424, so
# no square overflows for n below 2^176. The scaled sum is above 2^-300
# (2^900 times 2^-1200) and is the unscaled sum times 2^-1200 up to the
# entries that scaling or squaring took below 2^-1022: each such square is
# below 2^-1022 either way, so they move the sum by less than n 2^-722 of
# itself.
_NORM_FLOOR = 2.0**-900
_NORM_CEIL = 2.0**900
_NORM_SCALE = 2.0**600


class LyapunovError(RuntimeError):
    """Lyapunov equation is singular or its solution is not positive definite."""


class EnvelopeError(RuntimeError):
    """No proved exponential envelope: the message names the inequality that failed and its value."""


def as_matrix(value: ArrayLike, name: str = "matrix") -> FloatArray:
    """Coerce to a finite 2-D float64 array, raising ValueError otherwise."""
    M = np.asarray(value, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must have finite entries")
    return M


def as_vector(value: ArrayLike, size: int | None = None, name: str = "vector") -> FloatArray:
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must have finite entries")
    if size is not None and v.size != size:
        raise ValueError(f"{name} must have length {size}, got {v.size}")
    return v


def require_square(M: FloatArray, name: str = "matrix") -> FloatArray:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def as_weight(Q: ArrayLike, n: int, name: str = "Q") -> tuple[FloatArray, float]:
    """Coerce to a symmetric positive-definite n x n float matrix, raising ValueError otherwise.

    Returns the matrix and its smallest eigenvalue. Symmetry is checked relative to ||Q||, at any scale of Q.
    """
    Qm = require_square(as_matrix(Q, name), name)
    if Qm.shape[0] != n:
        raise ValueError(f"{name} must be {n} x {n}, got shape {Qm.shape}")
    if _norm2(Qm - Qm.T) > 1e-10 * _norm2(Qm):
        raise ValueError(f"{name} must be symmetric")
    q_min = float(np.linalg.eigvalsh(Qm)[0])
    if q_min <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return Qm, q_min


def _taylor_terms(M: FloatArray, rows: int | None = None) -> tuple[FloatArray, float]:
    """Taylor terms S^k / k! (top rows of each; all by default) of S = M / rate, rate = ||M||_F / TAYLOR_THETA.

    exp(M dt) is sum_k (dt rate)^k S^k / k! for |dt| rate <= 1, up to the
    truncation below. The powers come by doubling (S^(a+k) = S^a S^k, a <= k,
    in one product), each divided once by the exact k!. No entry exceeds
    TAYLOR_THETA^k / k!, and the norm is taken of M / max|M|, so nothing
    overflows however large or small ||M|| is (rate is inf only past the
    largest double, and then S = 0). With M = 0 the rate is 0.

    Truncation bound. Let X = M dt, r = ||X||_F <= TAYLOR_THETA = 1 and
    K = TAYLOR_DEGREE. The Frobenius norm is submultiplicative and
    (K+1+i)! >= (K+1)! i!, so the terms left out of exp(X) sum to R with
    ||R|| <= r^(K+1) / (K+1)! * e^r <= e / 19! = 2.2e-17, below the unit
    roundoff. Squared j times (mat_exp), the sum exp(X) - R = exp(X)(I + G),
    with G = -exp(-X) R a power series in X, ||G|| <= r^(K+1) e^2 / 19!,
    gives exp(2^j (X + log(I + G))): a relative perturbation of 2^j X below
    r^K e^2 / 19! (1 + ||G||) <= 6.1e-17 whatever j is (Higham 2005). The
    scaling by rate moves r by a few roundoffs, which changes neither bound.
    """
    peak = float(np.abs(M).max())
    rate = peak * float(np.linalg.norm(M / peak)) / TAYLOR_THETA if peak > 0.0 else 0.0
    P = np.empty((TAYLOR_DEGREE + 1, *M.shape))
    P[0], P[1] = np.eye(M.shape[0]), M / rate if rate > 0.0 else M
    k = 1
    while k < TAYLOR_DEGREE:
        take = min(k, TAYLOR_DEGREE - k)
        P[k + 1 : k + 1 + take] = P[1 : 1 + take] @ P[k]
        k += take
    return P[:, :rows] / _TAYLOR_FACTORIALS[:, None, None], rate


def mat_exp(M: ArrayLike, t: float) -> FloatArray:
    """exp(M t): the Taylor sum of _taylor_terms at M t / 2^j, squared j times (Moler & Van Loan 2003).

    j = max(0, ceil(log2 ||M t||_F / TAYLOR_THETA)) puts the sum within its
    proved reach. Raises ValueError for a non-finite t, M t or ||M t||_F.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X = require_square(as_matrix(M)) * float(t)
    if not np.isfinite(X).all():
        raise ValueError("t and M t must be finite")
    terms, rate = _taylor_terms(X)
    if rate == math.inf:
        raise ValueError("||M t||_F exceeds the largest double")
    j = math.ceil(math.log2(rate)) if rate > 1.0 else 0
    E = (math.ldexp(rate, -j) ** _TAYLOR_EXPONENTS @ terms.reshape(TAYLOR_DEGREE + 1, -1)).reshape(X.shape)
    for _ in range(j):
        E = E @ E
    return E


def _norm2(M: FloatArray) -> float:
    """||M||_2 of a float64 matrix: the largest singular value from one gesdd call.

    np.linalg.norm(M, 2) takes the same maximum (amax, initial 0) of the
    same svd(M, compute_uv=False) after its axis bookkeeping, so the two
    agree bit for bit.
    """
    return float(np.linalg.svd(M, compute_uv=False).max(initial=0.0))


def spectral_norm(M: ArrayLike) -> float:
    """Largest singular value of M, from one LAPACK gesdd call; bit for bit np.linalg.norm(M, 2)."""
    return _norm2(as_matrix(M))


def _norm(v: FloatArray) -> float:
    """Euclidean norm of a 1-D vector, never under-estimated through underflow nor lost to overflow.

    sqrt(v . v), bit-identical to np.linalg.norm without its overhead, unless
    v . v < _NORM_FLOOR or v . v > _NORM_CEIL: then the same sum of the
    vector scaled by a power of two. A first sum that overflows raises
    numpy's overflow signal, which the caller's np.errstate handles (sim.run,
    sim.find_event_crossing and triggers.next_update_self_trigger ignore
    it); the norm returned is finite all the same.
    """
    sq = v.dot(v)
    if sq < _NORM_FLOOR:
        v = v * _NORM_SCALE
        return math.sqrt(v.dot(v)) / _NORM_SCALE
    if sq > _NORM_CEIL:
        v = v / _NORM_SCALE
        return math.sqrt(v.dot(v)) * _NORM_SCALE
    return math.sqrt(sq)


def _row_norms(X: FloatArray) -> FloatArray:
    """Euclidean norm of every row of a 2-D array; a row whose sum of squares is past a bound as in _norm.

    Its sums (einsum) may differ from _norm's (dot) in the last bit.
    """
    sq = np.einsum("ij,ij->i", X, X)
    out = np.sqrt(sq)
    # fmin and fmax pass over NaN rows
    if np.fmin.reduce(sq, initial=math.inf) < _NORM_FLOOR:
        low = sq < _NORM_FLOOR
        W = X[low] * _NORM_SCALE
        out[low] = np.sqrt(np.einsum("ij,ij->i", W, W)) / _NORM_SCALE
    if np.fmax.reduce(sq, initial=0.0) > _NORM_CEIL:
        high = sq > _NORM_CEIL
        W = X[high] / _NORM_SCALE
        out[high] = np.sqrt(np.einsum("ij,ij->i", W, W)) * _NORM_SCALE
    return out


def solve_lyapunov(Phi: ArrayLike, Q: ArrayLike) -> FloatArray:
    """Solve Phi^T P + P Phi + Q = 0 for symmetric positive-definite P.

    Solves the vectorised system (I kron Phi^T + Phi^T kron I) vec P = -vec Q
    with numpy's LAPACK solve (LU with partial pivoting). Its cost is O(n^6):
    with Q = I, 0.08-0.15 ms at n = 2-8, 2.2-2.6 ms at n = 16 and 40-56 ms
    at n = 32 on a 2-vCPU host (Python 3.11, numpy 2.4). At n <= 8 the
    check of Q takes about 0.04 ms of that and the operator, two broadcast
    products (_kron), 0.01-0.03 ms; the same pair from np.kron took
    0.04-0.05 ms. scipy's O(n^3) Bartels-Stewart takes 0.05-0.09 ms at
    n <= 8, but scipy is not a run-time dependency. Each 2-norm (of Q, of
    its asymmetry and of the residual) is one gesdd call (_norm2). Raises
    ValueError for a non-symmetric or non-positive-definite Q, LyapunovError
    when the system is singular or the solve leaves a large residual, or
    when P is not positive definite (not Hurwitz).
    """
    F = require_square(as_matrix(Phi, "Phi"), "Phi")
    Qm = as_weight(Q, F.shape[0])[0]
    return _lyapunov(F, Qm, _norm2(Qm))[0]


def _kron(a: FloatArray, b: FloatArray) -> FloatArray:
    """np.kron(a, b) of two square matrices: the same products, without its expand_dims and reshape wrapper."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def _lyapunov(F: FloatArray, Q: FloatArray, q_norm: float) -> tuple[FloatArray, float, FloatArray]:
    """P of solve_lyapunov for a checked Q, with ||R||_2 of R = F^T P + P F + Q and eigvalsh(P)."""
    n = F.shape[0]
    eye = np.eye(n)
    # Row-major vec: vec(F^T P) = kron(F^T, I) vec P, vec(P F) = kron(I, F^T) vec P.
    L = _kron(F.T, eye) + _kron(eye, F.T)
    # Extreme scales overflow with only a warning; the two checks below reject the result.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            P = np.linalg.solve(L, -Q.reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError as exc:
            raise LyapunovError(f"singular Lyapunov system: {exc}") from exc
        P = 0.5 * (P + P.T)
        R = F.T @ P + P @ F + Q
    residual = _norm2(R) if np.isfinite(R).all() else math.inf
    if not residual <= _LYAP_RESIDUAL_REL * q_norm:
        raise LyapunovError(f"Lyapunov residual {residual:.3e} exceeds {_LYAP_RESIDUAL_REL:.1e} * ||Q||")
    eigs = np.linalg.eigvalsh(P)
    if float(eigs[0]) <= 0.0:
        raise LyapunovError("Lyapunov solution is not positive definite (matrix not Hurwitz)")
    return P, residual, eigs


@dataclass(frozen=True)
class DecayEnvelope:
    """Certified bound ||exp(Phi t)|| <= mu * exp(-lam t) for all t >= 0.

    P and p_eigs, from decay_envelope for n >= 2, are the solution of
    Phi^T P + P Phi + I = 0 that the bound was proved from, checked as
    solve_lyapunov checks its P with Q = I, and eigvalsh(P); both are
    read-only, and None for n = 1.
    """

    mu: float
    lam: float
    P: FloatArray | None = field(default=None, compare=False, repr=False)
    p_eigs: FloatArray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.mu >= 1.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be > 0, got {self.lam}")


@dataclass(frozen=True)
class GrowthEnvelope:
    """Certified bound ||exp(A t)|| <= theta * exp(rho t) for all t >= 0."""

    theta: float
    rho: float

    def __post_init__(self) -> None:
        if not (self.theta >= 1.0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be >= 1, got {self.theta}")
        if not (self.rho >= 0.0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be >= 0, got {self.rho}")


def _eig_error(n: int, scale: float) -> float:
    """Bound 4 n eps scale on the error of LAPACK's eigenvalues or 2-norm of an n x n matrix S, scale = ||S||_2.

    The routines are backward stable, with error p(n) eps ||S||_2 for a modest
    p(n) (the LAPACK Users' Guide, section 4.7, takes p(n) = 1); the factor 4 n
    also covers the half ulp of forming S and of the few flops that use the result.
    """
    return 4.0 * n * _EPS * scale


def decay_envelope(Phi: ArrayLike) -> DecayEnvelope:
    """Exponential decay envelope for a Hurwitz matrix, proved for all t >= 0.

    n = 1 is exact: mu = 1, lam = -phi, Hurwitz only when phi < 0. Otherwise
    P solves Phi^T P + P Phi + I = 0 (Q = I) and R = Phi^T P + P Phi + I is
    its computed residual. Let r = ||R||_2, grown by its SVD error bound,
    plus delta = 2 gamma_{n+2} || |Phi|^T |P| + |P| |Phi| + I ||_F, which
    bounds the rounding made while forming R. If r < 1, V = x^T P x obeys
    V' <= -(1 - r) ||x||^2, so ||exp(Phi t)|| <= mu exp(-lam t) with
    lam = (1 - r)/(2 a2) and mu = sqrt(a2/a1). a1 and a2 are the extreme
    eigenvalues of P, shrunk and grown by the eigvalsh error bound
    4 n eps ||P||_2 (stated rounding slack). An EnvelopeError names the
    inequality that failed and its value.
    """
    F = require_square(as_matrix(Phi, "Phi"), "Phi")
    n = F.shape[0]
    if n == 1:
        phi = float(F[0, 0])
        if not phi < 0.0:
            raise EnvelopeError(f"no decay envelope: phi = {phi:.12g} >= 0, not Hurwitz")
        return DecayEnvelope(mu=1.0, lam=-phi)
    eye = np.eye(n)
    try:
        P, residual, eigs = _lyapunov(F, eye, 1.0)
    except LyapunovError as exc:
        raise EnvelopeError(f"no decay envelope: {exc}") from exc
    # |fl(R) - R| <= gamma_{n+2} G entrywise, G = |Phi|^T |P| + |P| |Phi| + I;
    # the factor 2 covers the rounding of G and of its norm.
    gamma = (n + 2) * _UNIT_ROUNDOFF / (1.0 - (n + 2) * _UNIT_ROUNDOFF)
    X = np.abs(F).T @ np.abs(P)
    delta = 2.0 * gamma * float(np.linalg.norm(X + X.T + eye))
    r = residual + _eig_error(n, residual) + delta
    if not r < 1.0:
        raise EnvelopeError(f"no decay envelope: residual bound r = {r:.12g} >= 1")
    err = _eig_error(n, float(eigs[-1]))
    a1, a2 = float(eigs[0]) - err, float(eigs[-1]) + err
    if not a1 > 0.0:
        raise EnvelopeError(f"no decay envelope: a1 - err = {a1:.12g} <= 0 (err = {err:.3g})")
    P.flags.writeable = eigs.flags.writeable = False
    return DecayEnvelope(mu=max(1.0, math.sqrt(a2 / a1)), lam=(1.0 - r) / (2.0 * a2), P=P, p_eigs=eigs)


def growth_envelope(A: ArrayLike) -> GrowthEnvelope:
    """Exponential growth envelope theta = 1, rho >= max(0, mu_2(A)), proved for all t >= 0.

    ||exp(A t)||_2 <= exp(mu_2(A) t) with mu_2 the logarithmic norm
    (Dahlquist 1958; Soderlind 2006). n = 1 is exact: rho = max(0, a).
    Otherwise rho = max(0, mu_2 + 4 n eps ||S||_2), S = A/2 + A^T/2, the
    stated rounding slack of forming S and of its eigenvalues.
    """
    M = require_square(as_matrix(A, "A"), "A")
    n = M.shape[0]
    if n == 1:
        return GrowthEnvelope(theta=1.0, rho=max(0.0, float(M[0, 0])))
    eigs = np.linalg.eigvalsh(0.5 * M + 0.5 * M.T)  # halves first: no overflow
    lo, hi = float(eigs[0]), float(eigs[-1])
    return GrowthEnvelope(theta=1.0, rho=max(0.0, hi + _eig_error(n, max(-lo, hi))))
