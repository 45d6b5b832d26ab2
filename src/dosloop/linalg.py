"""Dense linear-algebra kernel for desk-scale systems.

Matrix exponentials, norms, Lyapunov solves, and validated exponential
envelopes of the form ||exp(M t)|| <= c * exp(r t). State dimensions here
are small (n <= 8), so everything is dense and direct. An envelope is
validated on its whole time grid at once: one stacked expm, one batched
2-norm, and the first grid point that breaks the bound is reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.linalg import expm, solve_continuous_lyapunov

FloatArray = NDArray[np.float64]

_LYAP_RESIDUAL_REL = 1e-8
_ENVELOPE_SLACK = 1.0 + 1e-9
_ENVELOPE_GRID = 200


class LyapunovError(RuntimeError):
    """Lyapunov equation is singular or its solution is not positive definite."""


class EnvelopeError(RuntimeError):
    """No valid exponential envelope exists (or grid validation failed)."""


def as_matrix(value: ArrayLike, name: str = "matrix") -> FloatArray:
    """Coerce to a finite 2-D float64 array, raising ValueError otherwise."""
    M = np.asarray(value, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must have finite entries")
    return M


def as_vector(value: ArrayLike, size: int | None = None, name: str = "vector") -> FloatArray:
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must have finite entries")
    if size is not None and v.size != size:
        raise ValueError(f"{name} must have length {size}, got {v.size}")
    return v


def require_square(M: FloatArray, name: str = "matrix") -> FloatArray:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def mat_exp(M: ArrayLike, t: float) -> FloatArray:
    """exp(M t), computed by scaling-and-squaring with a Pade rational core."""
    A = require_square(as_matrix(M))
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return expm(A * t)


def spectral_norm(M: ArrayLike) -> float:
    """Largest singular value of M, from LAPACK's SVD."""
    return float(np.linalg.norm(as_matrix(M), 2))


def log_norm(M: ArrayLike) -> float:
    """Logarithmic norm: largest eigenvalue of the symmetric part of M."""
    A = require_square(as_matrix(M))
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])


def solve_lyapunov(Phi: ArrayLike, Q: ArrayLike) -> FloatArray:
    """Solve Phi^T P + P Phi + Q = 0 for symmetric positive-definite P.

    Bartels-Stewart (scipy). Raises ValueError for a non-symmetric or non-
    positive-definite Q, LyapunovError when the solve fails or leaves a large
    residual (singular system) or P is not positive definite (not Hurwitz).
    """
    F = require_square(as_matrix(Phi, "Phi"), "Phi")
    Qm = require_square(as_matrix(Q, "Q"), "Q")
    if F.shape != Qm.shape:
        raise ValueError(f"Phi and Q shapes differ: {F.shape} vs {Qm.shape}")
    q_norm = float(np.linalg.norm(Qm, 2))
    if float(np.linalg.norm(Qm - Qm.T, 2)) > 1e-10 * max(q_norm, 1.0):
        raise ValueError("Q must be symmetric")
    if float(np.linalg.eigvalsh(Qm)[0]) <= 0.0:
        raise ValueError("Q must be positive definite")

    # A singular system only makes scipy warn; the two checks below reject its result.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            P = solve_continuous_lyapunov(F.T, -Qm)
        except np.linalg.LinAlgError as exc:
            raise LyapunovError(f"no Schur form for Phi: {exc}") from exc
        P = 0.5 * (P + P.T)
        R = F.T @ P + P @ F + Qm
    residual = float(np.linalg.norm(R, 2)) if np.isfinite(R).all() else math.inf
    if not residual <= _LYAP_RESIDUAL_REL * q_norm:
        raise LyapunovError(f"Lyapunov residual {residual:.3e} exceeds {_LYAP_RESIDUAL_REL:.1e} * ||Q||")
    if float(np.linalg.eigvalsh(P)[0]) <= 0.0:
        raise LyapunovError("Lyapunov solution is not positive definite (matrix not Hurwitz)")
    return P


@dataclass(frozen=True)
class DecayEnvelope:
    """Certified bound ||exp(Phi t)|| <= mu * exp(-lam t) for all t >= 0."""

    mu: float
    lam: float

    def __post_init__(self) -> None:
        if not (self.mu >= 1.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be > 0, got {self.lam}")

    def bound(self, t: ArrayLike) -> FloatArray:
        return self.mu * np.exp(-self.lam * np.asarray(t, dtype=float))


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

    def bound(self, t: ArrayLike) -> FloatArray:
        return self.theta * np.exp(self.rho * np.asarray(t, dtype=float))


def _validation_grid(t_hi: float) -> FloatArray:
    return np.concatenate(([0.0], np.geomspace(t_hi * 1e-6, t_hi, _ENVELOPE_GRID - 1)))


def _validate_envelope(M: FloatArray, coeff: float, rate: float, t_hi: float, kind: str) -> None:
    # rate is signed: the envelope is coeff * exp(rate * t). Each slice of the
    # stacked expm is the single-matrix expm of that point, bit for bit; an
    # overflowed exponential counts as a failing point instead of reaching the SVD.
    grid = _validation_grid(t_hi)
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(grid[:, None, None] * M)
    finite = np.isfinite(E).all(axis=(1, 2))
    actual = np.full(grid.size, math.inf)
    actual[finite] = np.linalg.norm(E[finite], 2, axis=(1, 2))
    # math.exp, not np.exp: the bounds stay those of the scalar formula
    bound = coeff * np.array([math.exp(rate * t) for t in grid.tolist()])
    failed = np.flatnonzero(actual > bound * _ENVELOPE_SLACK)
    if failed.size:
        i = failed[0]
        raise EnvelopeError(
            f"{kind} envelope failed grid validation at t={grid[i]:.6g}: "
            f"||exp(Mt)||={actual[i]:.12g} > bound={bound[i]:.12g}"
        )


def decay_envelope(Phi: ArrayLike) -> DecayEnvelope:
    """Exponential decay envelope for a Hurwitz matrix.

    Built from the Lyapunov solution with Q = I: with a1/a2 the extreme
    eigenvalues of P, mu = sqrt(a2/a1) and lam = 1/(2 a2). The resulting
    inequality is re-checked on a 200-point log-spaced grid over [0, 50/lam],
    all points in one stacked expm, and construction fails with an
    EnvelopeError naming the first grid point where it does not hold.
    """
    F = require_square(as_matrix(Phi, "Phi"), "Phi")
    try:
        P = solve_lyapunov(F, np.eye(F.shape[0]))
    except LyapunovError as exc:
        raise EnvelopeError(f"no decay envelope: {exc}") from exc
    eigs = np.linalg.eigvalsh(P)
    a1, a2 = float(eigs[0]), float(eigs[-1])
    env = DecayEnvelope(mu=max(1.0, math.sqrt(a2 / a1)), lam=1.0 / (2.0 * a2))
    _validate_envelope(F, env.mu, -env.lam, 50.0 / env.lam, "decay")
    return env


def growth_envelope(A: ArrayLike) -> GrowthEnvelope:
    """Exponential growth envelope theta = 1, rho = max(0, log_norm(A)).

    Re-checked on a 200-point log-spaced grid over [0, 50/max(rho, 0.5)], all
    points in one stacked expm; an EnvelopeError names the first grid point
    where the bound fails.
    """
    M = require_square(as_matrix(A, "A"), "A")
    env = GrowthEnvelope(theta=1.0, rho=max(0.0, log_norm(M)))
    _validate_envelope(M, env.theta, env.rho, 50.0 / max(env.rho, 0.5), "growth")
    return env
