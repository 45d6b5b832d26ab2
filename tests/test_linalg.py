"""Numeric kernel: norms, matrix exponentials, Lyapunov solves, envelopes."""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from dosloop import (
    DecayEnvelope,
    EnvelopeError,
    GrowthEnvelope,
    LyapunovError,
    decay_envelope,
    growth_envelope,
    mat_exp,
    solve_lyapunov,
    spectral_norm,
)
from dosloop.linalg import _kron, _norm, _row_norms, as_weight
from conftest import assert_close, random_stabilized_plant
from oracles import envelope_grid, first_envelope_violation, gram_spectral_norm, mp_expm


def test_spectral_norm_known_values():
    assert spectral_norm(np.array([[3.0, 0.0], [0.0, -4.0]])) == pytest.approx(4.0, rel=1e-12)
    assert spectral_norm(np.zeros((2, 2))) == 0.0
    assert spectral_norm(np.array([[-4.0]])) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("k", [-1000, -565, 0, 520, 1000])
def test_norms_scale_exactly_by_powers_of_two(k):
    # Sums of squares that underflow (k <= -565) or overflow (k >= 520) are
    # taken of the vector scaled by a power of two, so no norm is lost to
    # either: the norms of 2^k X are those of X times 2^k, exactly. _norm's
    # first sum signals the overflow, which run() ignores, as here.
    X = np.random.default_rng(5).normal(size=(4, 3))
    Y = np.ldexp(X, k)
    assert np.array_equal(_row_norms(Y), np.ldexp(_row_norms(X), k))
    for x, y in zip(X, Y):
        with np.errstate(over="ignore"):
            got = _norm(y)
        assert got == math.ldexp(_norm(x), k)
        assert abs(got - math.hypot(*y)) <= 4.0 * math.ulp(math.hypot(*y))


@pytest.mark.parametrize("n", range(1, 9))
def test_spectral_norm_is_numpys_2_norm_bit_for_bit(n):
    # one gesdd call and its largest singular value: what np.linalg.norm(M, 2) computes
    rng = np.random.default_rng(300 + n)
    u, v = rng.normal(size=n), rng.normal(size=n)
    cases = {
        "zero": np.zeros((n, n)),
        "negative_zero": -np.zeros((n, n)),
        "rank_one": np.outer(u, v),
        "non_normal": np.triu(rng.normal(size=(n, n)), 1) * 1e3 - np.eye(n),
        "dense": rng.normal(size=(n, n)),
        "wide": rng.normal(size=(n, n + 2)),
    }
    for name, M in cases.items():
        for k in (0, 500, -500):
            S = np.ldexp(M, k)
            assert spectral_norm(S).hex() == float(np.linalg.norm(S, 2)).hex(), (name, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_kronecker_operator_is_np_kron_bit_for_bit(n):
    # the Lyapunov operator kron(F^T, I) + kron(I, F^T), signed zeros included
    rng = np.random.default_rng(400 + n)
    F = rng.normal(size=(n, n))
    F[rng.random((n, n)) < 0.3] = -0.0
    F[rng.random((n, n)) < 0.2] = 0.0
    eye = np.eye(n)
    for G in (F, np.ldexp(F, 500), np.ldexp(F, -1070), -np.zeros((n, n))):
        want = np.kron(G.T, eye) + np.kron(eye, G.T)
        assert (_kron(G.T, eye) + _kron(eye, G.T)).tobytes() == want.tobytes()
    B = rng.normal(size=(3, 3))
    assert _kron(F, B).tobytes() == np.kron(F, B).tobytes()
    assert _kron(B, F.T).tobytes() == np.kron(B, F.T).tobytes()


def test_spectral_norm_matches_gram_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        M = rng.normal(size=(n, m)) * rng.choice([0.01, 1.0, 100.0])
        assert_close(spectral_norm(M), gram_spectral_norm(M), 1e-10, "spectral norm")


@pytest.mark.parametrize("gap", [1e-5, 1e-6, 1e-7])
def test_spectral_norm_close_top_singular_values(gap):
    # nearly tied top singular values stall an iterative method: it stops
    # early below the true norm, the unsafe side for certificate constants
    rng = np.random.default_rng(31)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    M = U @ np.diag([1.0, 1.0 - gap, 0.3]) @ V.T
    start = time.perf_counter()
    got = spectral_norm(M)
    elapsed = time.perf_counter() - start
    assert got >= gram_spectral_norm(M) * (1.0 - 8.0 * np.finfo(float).eps)
    assert elapsed < 0.05, f"spectral_norm took {elapsed:.3f} s on a 3x3 matrix"


def _log_norm(A: np.ndarray) -> float:
    """Logarithmic norm mu_2(A): the largest eigenvalue of the symmetric part, by scipy."""
    return float(scipy.linalg.eigvalsh(0.5 * (A + A.T))[-1])


def test_growth_rate_triangular_hand_value():
    # symmetric part of [[a, b], [0, a]] has eigenvalues a +- b/2; rho is the
    # larger one grown by its stated slack 4 n eps ||S||_2 (n = 2), and exact for n = 1
    A = np.array([[2.0, 3.0], [0.0, 2.0]])
    eps = np.finfo(float).eps
    assert 3.5 <= growth_envelope(A).rho <= 3.5 * (1.0 + 9.0 * eps)
    assert growth_envelope(np.array([[1.0]])).rho == 1.0


def test_growth_rate_matches_growth_derivative():
    # the log norm is the right derivative of ||exp(A t)|| at t = 0, and rho is it floored at 0
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.normal(size=(3, 3))

        def f(h: float) -> float:
            return (np.linalg.norm(scipy.linalg.expm(A * h), 2) - 1.0) / h

        richardson = 2.0 * f(1e-6) - f(2e-6)
        assert_close(growth_envelope(A).rho, max(0.0, richardson), 1e-5, "growth rate vs derivative")


def test_mat_exp_semigroup_and_inverse():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        s, t = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.05, 1.5))
        lhs = mat_exp(A, s + t)
        rhs = mat_exp(A, s) @ mat_exp(A, t)
        scale = max(1.0, float(np.linalg.norm(lhs, 2)))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * scale
        prod = mat_exp(A, t) @ mat_exp(A, -t)
        assert np.linalg.norm(prod - np.eye(n), 2) <= 1e-8


def _normal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Q D Q^T with D block diagonal in 2 x 2 blocks [[a, b], [-b, a]] (and a 1 x 1 when n is odd)."""
    D = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        a, b = rng.normal(size=2)
        D[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
    if n % 2:
        D[-1, -1] = rng.normal()
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ D @ Q.T


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_mat_exp_matches_a_40_digit_reference(n):
    # normal and non-normal (triangular) M, ||M t||_F from 1e-8 to 300 with
    # either sign of t: relative 2-norm error of 1e-12 at most (about 1.5e-13
    # seen; scipy's Pade reaches 2e-12 on the same cases)
    rng = np.random.default_rng(700 + n)
    for kind in ("normal", "triangular"):
        for size in (1e-8, 1e-3, 0.5, 3.0, 40.0, 300.0):
            M = _normal_matrix(rng, n) if kind == "normal" else np.triu(rng.normal(size=(n, n)))
            t = float(rng.choice([-1.0, 1.0])) * size / float(np.linalg.norm(M))
            want = mp_expm(M, t)
            err = np.linalg.norm(mat_exp(M, t) - want, 2) / np.linalg.norm(want, 2)
            assert err <= 1e-12, (kind, size, t, err)


def test_mat_exp_scales_by_the_largest_entry_and_rejects_overflow():
    # ||M||_F overflows a plain sum of squares, not M itself: the squaring
    # count comes from the norm of M / max|M|, and exp(M) = e^-1e300 R is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = mat_exp(np.array([[-1e300, 1e300], [-1e300, -1e300]]), 1.0)
    assert E.shape == (2, 2) and np.array_equal(E, np.zeros((2, 2)))
    # an entry of M t past the float range is an argument error, as a non-finite t is
    # and so is ||M t||_F past it
    cases = [([[1e308]], 10.0), ([[1.0]], float("inf")), ([[1.0]], float("nan")), (np.full((2, 2), 1e308), 1.0)]
    for M, t in cases:
        with pytest.raises(ValueError):
            mat_exp(M, t)
    assert mat_exp(np.zeros((3, 3)), 1e300).tolist() == np.eye(3).tolist()


def test_the_identity_weight_checks_to_exactly_one(monkeypatch):
    # as_weight takes gamma1 = ||Q||_2 = 1.0 for Q = I without an eigenvalue
    # solve or an svd: eigvalsh and gesdd give exactly that
    for n in range(1, 33):
        eye = np.eye(n)
        assert np.linalg.eigvalsh(eye)[0] == np.linalg.svd(eye, compute_uv=False).max() == 1.0, n
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    monkeypatch.setattr(np.linalg, "svd", None)
    for n in range(1, 33):
        assert as_weight(np.eye(n), n)[1:] == (1.0, 1.0), n


def test_solve_lyapunov_residual_and_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        F = rng.normal(size=(n, n)) - (float(np.abs(rng.normal())) + n) * np.eye(n)
        Q = np.eye(n)
        P = solve_lyapunov(F, Q)
        residual = F.T @ P + P @ F + Q
        assert np.linalg.norm(residual, 2) <= 1e-8 * np.linalg.norm(Q, 2)
        # Schur-based Bartels-Stewart: no code path shared with the library's Kronecker solve
        P_ref = scipy.linalg.solve_continuous_lyapunov(F.T, -Q)
        assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-10)
        assert np.allclose(P, P.T)
        assert np.linalg.eigvalsh(P)[0] > 0.0


def test_solve_lyapunov_scalar_hand_value():
    P = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
    assert P[0, 0] == 0.5
    P2 = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert P2[0, 0] == 1.0


def test_solve_lyapunov_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_lyapunov(np.array([[-1.0]]), np.array([[-1.0]]))  # Q not positive definite
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(2) * -1.0, np.array([[1.0, 0.5], [0.0, 1.0]]))  # Q not symmetric
    with pytest.raises(LyapunovError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))  # F not Hurwitz


@pytest.mark.parametrize(
    "F",
    [
        np.zeros((2, 2)),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.diag([1.0, -1.0]),
        # extreme scales, on which scipy's Bartels-Stewart finds no Schur form
        # or returns a non-finite P
        np.array([[0.0, 0.0, -1e-213], [1e-113, 0.0, 0.0], [-1e110, -1e-218, 0.0]]),
        np.array([[0.0, 0.0, 1e-219], [0.0, 0.0, 0.0], [-1e-272, 1e171, 0.0]]),
    ],
    ids=["zero", "rotation", "saddle", "no_schur_form", "overflow"],
)
def test_solve_lyapunov_singular_system_raises(F):
    # the first three have an eigenvalue pair summing to zero, so the Lyapunov
    # operator is singular; for every F the error must be LyapunovError
    # (EnvelopeError from decay_envelope), with no stray warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LyapunovError):
            solve_lyapunov(F, np.eye(F.shape[0]))
        with pytest.raises(EnvelopeError):
            decay_envelope(F)


def test_decay_envelope_scalar_exact():
    env = decay_envelope(np.array([[-1.0]]))
    assert env.mu == 1.0
    assert env.lam == 1.0


def test_decay_envelope_bounds_hold_off_grid(rng):
    for _ in range(10):
        plant = random_stabilized_plant(rng)
        env = plant.decay
        assert env.mu >= 1.0
        assert env.lam > 0.0
        for t in np.concatenate(([0.0], rng.uniform(0.0, 30.0 / env.lam, size=40))):
            actual = float(np.linalg.norm(scipy.linalg.expm(plant.phi * t), 2))
            assert actual <= env.mu * np.exp(-env.lam * t) * (1.0 + 1e-6)


def test_decay_envelope_rejects_unstable():
    with pytest.raises(EnvelopeError):
        decay_envelope(np.array([[0.2]]))


def test_growth_envelope_basics(rng):
    env = growth_envelope(np.array([[1.0]]))
    assert env.theta == 1.0
    assert env.rho == 1.0
    # rho is clamped at zero for contractive dynamics
    env2 = growth_envelope(np.array([[-3.0]]))
    assert env2.rho == 0.0
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        env3 = growth_envelope(A)
        for t in rng.uniform(0.0, 3.0, size=25):
            actual = float(np.linalg.norm(scipy.linalg.expm(A * t), 2))
            assert actual <= env3.theta * np.exp(env3.rho * t) * (1.0 + 1e-6)


def _envelope_cases(n: int, rng: np.random.Generator) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(kind, A, Phi) draws: A any real matrix, Phi Hurwitz."""
    eye = np.eye(n)

    def hurwitz(A: np.ndarray) -> np.ndarray:
        return A - (max(float(np.linalg.eigvals(A).real.max()), 0.0) + rng.uniform(0.1, 1.0)) * eye

    cases = []
    for _ in range(3):
        A = np.diag(rng.normal(size=n)) + np.triu(rng.normal(scale=5.0, size=(n, n)), 1)
        cases.append(("non_normal", A, hurwitz(A)))
        # one Jordan chain, its eigenvalues split by a 1e-6 perturbation
        A = rng.normal() * eye + np.diag(np.full(n - 1, rng.uniform(1.0, 3.0)), 1)
        A += 1e-6 * rng.normal(size=(n, n))
        cases.append(("near_defective", A, hurwitz(A)))
        # 2x2 rotation blocks; w stays at most 50, where expm's own rounding
        # keeps under the oracle's 1e-9 slack (at w = 1e5 it does not)
        A = 1e-3 * rng.normal(size=(n, n))
        for k in range(0, n - 1, 2):
            w = rng.uniform(10.0, 50.0)
            A[k, k + 1] += w
            A[k + 1, k] -= w
        cases.append(("fast_rotation", A, hurwitz(A)))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, max(1, n // 2)))
        X = scipy.linalg.solve_continuous_are(A, B, eye, np.eye(B.shape[1]))
        cases.append(("lqr", A, A - B @ B.T @ X))
    return cases


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_proven_envelopes_pass_per_point_oracle(n):
    # the proved constants must leave no violation on the oracle's grid, and
    # sit on the conservative side of the plain Lyapunov and log-norm values
    rng = np.random.default_rng(600 + n)
    for kind, A, Phi in _envelope_cases(n, rng):
        decay, growth = decay_envelope(Phi), growth_envelope(A)
        grid = envelope_grid(50.0 / decay.lam)
        assert first_envelope_violation(Phi, decay.mu, -decay.lam, grid) is None, kind
        grid = envelope_grid(50.0 / max(growth.rho, 0.5))
        assert first_envelope_violation(A, growth.theta, growth.rho, grid) is None, kind
        assert growth.theta == 1.0 and growth.rho >= max(0.0, _log_norm(A)), kind
        if n == 1:
            # the exact scalar forms
            assert (decay.mu, decay.lam) == (1.0, -Phi[0, 0]), kind
            assert growth.rho == max(0.0, A[0, 0]), kind
        else:
            eigs = np.linalg.eigvalsh(solve_lyapunov(Phi, np.eye(n)))
            assert decay.lam <= 1.0 / (2.0 * eigs[-1]), kind
            assert decay.mu >= np.sqrt(eigs[-1] / eigs[0]), kind


def test_overflowing_exponential_is_a_failing_grid_point():
    # exp(A t) is tiny, but expm overflows on the way: every t > 0 is non-finite
    A = np.array([[-1e300, 1e300], [-1e300, -1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # log norm -1e300: the proved envelope needs no exponential, and rho = 0 is a true bound
        assert growth_envelope(A) == GrowthEnvelope(theta=1.0, rho=0.0)
        # the oracle stops at the first failure, before any overflowing point
        assert first_envelope_violation(A, 0.5, 0.0, envelope_grid(100.0)) == 0


def test_envelope_error_names_the_failed_inequality():
    with pytest.raises(EnvelopeError, match=r"^no decay envelope: phi = 0\.2 >= 0, not Hurwitz$"):
        decay_envelope(np.array([[0.2]]))
    # P = diag(2^24, 2^-26) is positive definite, but its small eigenvalue lies
    # inside eigvalsh's error bound 4 n eps ||P|| = 2^-25
    message = r"^no decay envelope: a1 - err = -1\.49011611938e-08 <= 0 \(err = 2\.98e-08\)$"
    with pytest.raises(EnvelopeError, match=message):
        decay_envelope(np.diag([-(2.0**-25), -(2.0**25)]))
    # the residual is computed as 0, but the rounding bound on forming it is not small
    with pytest.raises(EnvelopeError, match=r"^no decay envelope: residual bound r = 4 >= 1$"):
        decay_envelope(np.array([[-1.0, 2.0**26], [0.0, -1.0]]))


def test_wide_diagonal_plant_meets_the_conditioning_inequality_not_the_residual():
    # Phi = diag(-2^-k, -2^k): P = diag(2^(k-1), 2^(-k-1)) is exact, so the
    # plant is accepted while cond(P) = 2^(2k) stays under the eigvalsh error
    # bound and rejected by that inequality beyond it, never by the residual
    env = decay_envelope(np.diag([-(2.0**-24), -(2.0**24)]))
    assert env.mu >= 2.0**24 and env.lam > 0.0
    with pytest.raises(EnvelopeError, match=r"^no decay envelope: a1 - err = .* <= 0 \(err = "):
        decay_envelope(np.diag([-(2.0**-27), -(2.0**27)]))


def test_envelope_validation():
    with pytest.raises(ValueError):
        DecayEnvelope(mu=0.5, lam=1.0)
    with pytest.raises(ValueError):
        DecayEnvelope(mu=1.0, lam=0.0)
    with pytest.raises(ValueError):
        GrowthEnvelope(theta=0.9, rho=0.1)
    with pytest.raises(ValueError):
        GrowthEnvelope(theta=1.0, rho=-0.1)
