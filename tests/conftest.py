"""Shared fixtures and scenario builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from dosloop import (
    DosBudget,
    EnvelopeError,
    LtiPlant,
    LyapunovError,
    SamplingRobustness,
    TriggerConfig,
    gen_random_budgeted,
    riccati_delta2,
    spectral_norm,
)

# Plants whose envelopes are too pessimistic (huge mu, tiny lam) force
# delta1 so small that trace sizes explode; the sampler redraws those.
_MAX_MU = 25.0
_MIN_LAM = 0.03
_MIN_DELTA2 = 1.5e-3


def random_stabilized_plant(rng: np.random.Generator, n: int | None = None, m: int | None = None) -> LtiPlant:
    """Random (A, B) with an LQR gain K = -B^T X; redraws until well conditioned."""
    for _ in range(200):
        nn = int(rng.integers(1, 4)) if n is None else n
        mm = int(rng.integers(1, nn + 1)) if m is None else m
        A = rng.normal(scale=1.0, size=(nn, nn))
        B = rng.normal(scale=1.0, size=(nn, mm))
        try:
            X = solve_continuous_are(A, B, np.eye(nn), np.eye(mm))
        except np.linalg.LinAlgError:
            continue
        K = -B.T @ X
        try:
            plant = LtiPlant(A=A, B=B, K=K)
        except (EnvelopeError, LyapunovError):
            # near-singular draws can defeat the dense Lyapunov solve; redraw
            continue
        env = plant.decay
        if env.mu > _MAX_MU or env.lam < _MIN_LAM:
            continue
        if spectral_norm(plant.phi) > 10.0 or spectral_norm(plant.bk) > 10.0:
            continue
        sigma_cap = env.lam / (env.mu * max(spectral_norm(plant.bk), 1e-12))
        d2 = riccati_delta2(spectral_norm(plant.phi), spectral_norm(plant.bk), 0.9 * sigma_cap)
        if d2 < _MIN_DELTA2:
            continue
        return plant
    raise RuntimeError("could not sample a well-conditioned plant in 200 draws")


def hunt_plant(rng: np.random.Generator, n: int, kind: str) -> LtiPlant:
    """A seeded plant with LQR gain whose A is far from normal or rotates fast."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if kind == "rotating":
        # pairs of eigenvalues -0.1 +- i w, w in [50, 200], and one fast real one for odd n
        D = np.diag(-rng.uniform(50.0, 200.0, size=n) * (n % 2))
        for i in range(0, n - 1, 2):
            w = rng.uniform(50.0, 200.0)
            D[i : i + 2, i : i + 2] = [[-0.1, w], [-w, -0.1]]
    else:
        # a large strictly upper part: ||e^{A t}|| swells far above 1 before it decays
        D = np.triu(rng.normal(scale=4.0, size=(n, n)), 1) - np.diag(rng.uniform(0.2, 2.0, size=n))
    A = Q @ D @ Q.T
    B = rng.normal(size=(n, int(rng.integers(1, n + 1))))
    K = -B.T @ solve_continuous_are(A, B, np.eye(n), np.eye(B.shape[1]))
    return LtiPlant(A=A, B=B, K=K)


def feasible_sigma(plant: LtiPlant, margin: float = 0.9) -> float:
    """sigma strictly inside the trajectory-feasibility region, by the given factor."""
    env = plant.decay
    return margin * env.lam / (env.mu * spectral_norm(plant.bk))


def standard_trigger(plant: LtiPlant, sigma: float, safety: float = 0.9) -> TriggerConfig:
    """delta2 at a safety fraction of the admissible bound, delta1 a fifth of that."""
    bound = riccati_delta2(spectral_norm(plant.phi), spectral_norm(plant.bk), sigma)
    delta2 = safety * bound
    return TriggerConfig(sigma=sigma, delta1=delta2 / 5.0, delta2=delta2)


def worst_case_gap(trigger: TriggerConfig, min_duration: float) -> SamplingRobustness:
    """The a priori attempt-gap bound for retry-at-delta1 logics."""
    return SamplingRobustness(delta_star=trigger.delta1, tau_star=min_duration)


def budgeted_jam(
    rng_seed: int,
    trigger: TriggerConfig,
    tau_avg: float,
    horizon: float,
    kappa: float | None = None,
):
    """Random jam sequence with interval lengths tied to the retry rate.

    min_duration is 5 delta1 so several retries land inside every interval,
    and insisting on a gap of 2 delta1 between intervals guarantees at least
    one successful attempt between consecutive intervals.
    """
    min_duration = 5.0 * trigger.delta1
    if kappa is None:
        kappa = min_duration
    budget = DosBudget(kappa=kappa, tau_avg=tau_avg)
    seq = gen_random_budgeted(
        budget, min_duration, seed=rng_seed, horizon=horizon, min_gap=2.0 * trigger.delta1
    )
    return seq, budget, min_duration


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def assert_close(actual: float, expected: float, rel: float, msg: str = "") -> None:
    scale = max(abs(expected), 1.0)
    assert math.isfinite(actual), f"{msg}: got {actual}"
    assert abs(actual - expected) <= rel * scale, (
        f"{msg}: |{actual} - {expected}| = {abs(actual - expected):.3e} > {rel:.1e} * {scale:.3g}"
    )
