"""Certificate families, jam-measure inflation, and the Gronwall product bound."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from dosloop import (
    DosSequence,
    IDEAL_ROBUSTNESS,
    LtiPlant,
    SamplingRobustness,
    dos_free_segments,
    format_report,
    ges_certificate_ideal,
    ges_certificate_lyapunov,
    ges_certificate_sampled,
    measure_robustness,
    rho_star,
    xi_bar_measure,
    xi_measure,
)
from dosloop import guarantees, linalg
from dosloop.cli import load_scenario
from conftest import feasible_sigma, random_stabilized_plant
from oracles import quadratic_rate_threshold, robustness_by_loop, scalar_lyapunov_constants

# scalar plant with unit envelopes: A = 0, B = 1, K = -1 gives Phi = -1,
# mu = 1, lam = 1, ||BK|| = 1, theta = 1, rho = 0
UNIT = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))

# the classic hand check: A = 1, B = 1, K = -2 (Phi = -1 again but BK = -2)
SCALAR = LtiPlant(A=np.array([[1.0]]), B=np.array([[1.0]]), K=np.array([[-2.0]]))


def test_rho_star_quadratic_hand_case():
    # lam=1, omega2=1, sigma=0.1, theta=1, bk=1: zeta^2 - 1.1 zeta - 1.1 = 0
    want = quadratic_rate_threshold(1.0, 1.0, 0.1, 1.0, 1.0)
    got = rho_star(1.0, 1.0, 0.1, 1.0, 1.0)
    # root of zeta^2 - 1.1 zeta - 1.1: (1.1 + sqrt(5.61)) / 2
    assert want == pytest.approx((1.1 + math.sqrt(5.61)) / 2.0, rel=1e-15)
    assert want == pytest.approx(1.7342719282327013, rel=1e-12)
    assert abs(got - want) <= 1e-6 * want


def test_rho_star_matches_quadratic_oracle():
    rng = np.random.default_rng(31)
    for _ in range(80):
        lam = float(rng.uniform(0.05, 3.0))
        omega2 = float(rng.uniform(0.05, 6.0))
        sigma = float(rng.uniform(0.01, 1.0))
        theta = float(rng.uniform(1.0, 4.0))
        bk = float(rng.uniform(0.05, 6.0))
        want = quadratic_rate_threshold(lam, omega2, sigma, theta, bk)
        got = rho_star(lam, omega2, sigma, theta, bk, rho_floor=0.0)
        assert abs(got - want) <= 1e-9 * max(want, 1.0), (lam, omega2, sigma, theta, bk)


def test_rho_star_respects_floor():
    # when the floor already satisfies the coefficient condition, it is returned as-is
    root = quadratic_rate_threshold(1.0, 1.0, 0.1, 1.0, 1.0)
    assert rho_star(1.0, 1.0, 0.1, 1.0, 1.0, rho_floor=2.0 * root) == 2.0 * root
    # a floor below the root does not change the answer
    low = rho_star(1.0, 1.0, 0.1, 1.0, 1.0, rho_floor=0.5)
    assert abs(low - root) <= 1e-9 * root
    # omega2 = 0 means no error feedthrough at all: the floor is always enough
    assert rho_star(1.0, 0.0, 0.1, 1.0, 1.0, rho_floor=0.7) == 0.7


def test_rho_star_needs_theta1_when_omega2_is_positive():
    # omega_star(0+) is finite only when theta bk_norm = 0, which no plant gives (theta >= 1, omega2 = mu bk_norm)
    with pytest.raises(ValueError, match="must be positive when omega2 is"):
        rho_star(1.0, 1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError, match="must be positive when omega2 is"):
        rho_star(1.0, 1.0, 0.1, 1.0, 0.0)


def test_ideal_certificate_hand_case():
    cert = ges_certificate_ideal(UNIT, sigma=0.1, kappa=0.0, tau=10.0)
    assert cert.mu == 1.0 and cert.lam == 1.0
    assert cert.theta == 1.0 and cert.rho == 0.0
    assert cert.bk_norm == pytest.approx(1.0, rel=1e-12)
    root = quadratic_rate_threshold(1.0, 1.0, 0.1, 1.0, 1.0)
    assert cert.rho_star == pytest.approx(root, rel=1e-9)
    assert cert.sigma_margin == pytest.approx(0.9, rel=1e-12)
    assert cert.tau_min == pytest.approx((1.0 + root) / 0.9, rel=1e-9)
    assert cert.sigma_feasible and cert.feasible
    # alpha at kappa=0 collapses to mu; beta = margin - rate/tau
    assert cert.alpha == pytest.approx(1.0, rel=1e-12)
    assert cert.beta == pytest.approx(0.9 - (1.0 + root) / 10.0, rel=1e-9)


def test_certificate_infeasible_sigma():
    cert = ges_certificate_ideal(UNIT, sigma=1.5, kappa=0.0, tau=10.0)  # margin = 1 - 1.5 < 0
    assert not cert.sigma_feasible
    assert math.isinf(cert.tau_min)
    assert not cert.feasible


def test_sampled_reduces_to_ideal_bitwise():
    plant = random_stabilized_plant(np.random.default_rng(2))
    ideal = ges_certificate_ideal(plant, sigma=0.05, kappa=0.3, tau=50.0)
    zero_gap = SamplingRobustness(delta_star=0.0, tau_star=0.2)
    sampled = ges_certificate_sampled(plant, 0.05, 0.3, 50.0, zero_gap)
    for field in ("rho_star", "tau_min", "alpha", "beta", "sigma_margin", "inflation"):
        assert getattr(sampled, field) == getattr(ideal, field), field
    also = ges_certificate_sampled(plant, 0.05, 0.3, 50.0, IDEAL_ROBUSTNESS)
    assert also.alpha == ideal.alpha and also.beta == ideal.beta and also.tau_min == ideal.tau_min


def test_sampled_inflation_strictly_worsens():
    cert0 = ges_certificate_ideal(UNIT, sigma=0.1, kappa=0.2, tau=20.0)
    certs = [
        ges_certificate_sampled(
            UNIT, 0.1, 0.2, 20.0, SamplingRobustness(delta_star=d, tau_star=0.5)
        )
        for d in (0.05, 0.1, 0.2)
    ]
    tau_mins = [cert0.tau_min] + [c.tau_min for c in certs]
    alphas = [cert0.alpha] + [c.alpha for c in certs]
    betas = [cert0.beta] + [c.beta for c in certs]
    assert all(a < b for a, b in zip(tau_mins, tau_mins[1:]))
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    assert all(a > b for a, b in zip(betas, betas[1:]))


def _omega_star(cert, zeta: float) -> float:
    """omega2 [(1+sigma) + theta + theta1/zeta] / (lam + zeta), the coefficient rho_star makes <= 1."""
    extra = cert.theta1 / zeta if cert.theta1 > 0.0 else 0.0
    return cert.omega2 * ((1.0 + cert.sigma) + cert.theta + extra) / (cert.lam + zeta)


def test_omega_star_at_threshold_is_at_most_one():
    rng = np.random.default_rng(12)
    for _ in range(15):
        plant = random_stabilized_plant(rng)
        cert = ges_certificate_ideal(plant, sigma=0.02, kappa=0.1, tau=30.0)
        assert _omega_star(cert, cert.rho_star) <= 1.0
        # strictly above the threshold the coefficient keeps shrinking
        assert _omega_star(cert, cert.rho_star * 1.5) < 1.0


def test_lyapunov_certificate_hand_values():
    want = scalar_lyapunov_constants(0.25)
    cert = ges_certificate_lyapunov(SCALAR, np.array([[2.0]]), sigma=0.25, kappa=0.1, tau=12.0)
    assert cert.gamma1 == want["gamma1"]
    assert cert.gamma2 == want["gamma2"]
    assert cert.omega1 == want["omega1"]
    assert cert.omega2 == want["omega2"]
    assert cert.tau_min == want["tau_min"] == 10.0
    assert cert.alpha1 == 1.0 and cert.alpha2 == 1.0
    assert cert.P[0, 0] == 1.0
    assert cert.alpha == pytest.approx(math.sqrt(math.exp(0.1 * 10.0)), rel=1e-12)
    assert cert.beta == pytest.approx(0.5 * (1.0 - 10.0 / 12.0), rel=1e-12)
    assert cert.feasible


def test_lyapunov_certificate_takes_the_eigenvalues_of_q_once(monkeypatch):
    # a Q other than the identity: its positive-definiteness check takes
    # its smallest eigenvalue, which is gamma1; P's are the solve's
    plant = random_stabilized_plant(np.random.default_rng(15), n=3)
    Q = np.diag([2.0, 3.0, 5.0]) + 0.5
    seen = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M, *args: seen.append(M.copy()) or original(M, *args))
    cert = ges_certificate_lyapunov(plant, Q, sigma=0.01, kappa=0.1, tau=12.0)
    assert sum(np.array_equal(M, Q) for M in seen) == 1
    assert len(seen) == 2 and np.array_equal(seen[1], cert.P)
    assert cert.gamma1 == float(original(Q)[0])


def _field_bits(cert) -> dict:
    """Every field of a certificate, floats as their hex and arrays as their bytes."""
    return {k: v.hex() if isinstance(v, float) else v.tobytes() if isinstance(v, np.ndarray) else v
            for k, v in dataclasses.asdict(cert).items()}


_DOUBLE_INTEGRATOR = Path(__file__).resolve().parent.parent / "scenarios" / "double_integrator.json"


@pytest.mark.parametrize("n", [*range(2, 9), "double_integrator"])
def test_the_identity_certificate_is_the_general_path_bit_for_bit(n, monkeypatch):
    # Q = I takes gamma1 = ||Q|| = 1.0 and plant.decay's P without a check or
    # a solve; the general path, which checks the same identity (as_weight,
    # with eigvalsh and svd) and solves with it (_lyapunov), gives the same
    # bits in every field
    if n == "double_integrator":
        sc = load_scenario(_DOUBLE_INTEGRATOR)
        plant, sigma, kappa, tau = sc.plant, sc.trigger.sigma, sc.budget.kappa, sc.budget.tau_avg
    else:
        plant = random_stabilized_plant(np.random.default_rng(3300 + n), n=n)
        sigma, kappa, tau = feasible_sigma(plant, 0.5), 0.5, 40.0
    eye = np.eye(plant.n)
    cert = ges_certificate_lyapunov(plant, eye, sigma, kappa, tau)
    assert cert.P is plant.decay.P
    calls = []
    for name in ("as_weight", "_lyapunov"):
        function = getattr(guarantees, name)
        monkeypatch.setattr(guarantees, name, lambda *args, _f=function, _n=name: calls.append(_n) or _f(*args))
    for module in (guarantees, linalg):  # no identity recognised, in the check or the solve
        monkeypatch.setattr(module, "_is_identity", lambda M: False)
    general = ges_certificate_lyapunov(plant, eye, sigma, kappa, tau)
    assert calls == ["as_weight", "_lyapunov"]
    assert _field_bits(general) == _field_bits(cert)


def test_lyapunov_certificate_infeasible_sigma():
    cert = ges_certificate_lyapunov(SCALAR, np.array([[2.0]]), sigma=0.6, kappa=0.0, tau=20.0)
    assert not cert.sigma_feasible  # gamma1 - sigma gamma2 = 2 - 2.4 < 0
    assert math.isinf(cert.tau_min)
    assert not cert.feasible


def test_measure_robustness_hand_case():
    seq = DosSequence(((1.0, 0.5),))
    rob = measure_robustness([0.9, 1.1, 1.3, 1.6], seq)
    # gaps starting inside [1, 1.5): 1.1 -> 1.3 (0.2) and 1.3 -> 1.6 (0.3)
    assert rob.delta_star == pytest.approx(0.3)
    assert rob.tau_star == 0.5
    assert rob.delta_per_interval == (pytest.approx(0.3),)
    # any order, and an array as a trace's t[attempt == 1] gives it
    assert measure_robustness(np.array([1.6, 0.9, 1.3, 1.1]), seq) == rob
    with pytest.raises(ValueError):
        measure_robustness([(0.9, True), (1.1, False)], seq)  # times only, not (time, success) pairs


def test_measure_robustness_edge_cases():
    seq = DosSequence(((1.0, 0.5), (4.0, 0.25)))
    # nothing inside the second interval: its gap is zero
    rob = measure_robustness([1.2, 1.4], seq)
    assert rob.delta_per_interval == (pytest.approx(0.2), 0.0)
    # a lone attempt has no successor: no observable gap
    assert measure_robustness([1.2], seq).delta_star == 0.0
    empty = measure_robustness([0.5, 0.6], DosSequence(()))
    assert empty.delta_star == 0.0 and math.isinf(empty.tau_star)
    assert empty.inflation == 1.0


def _bits(rob):
    return [float(v).hex() for v in (rob.delta_star, rob.tau_star, *rob.delta_per_interval)]


def test_measure_robustness_matches_the_loop_bitwise():
    # seeded unsorted attempt times against the per-attempt loop: times
    # exactly at onsets and at ends, intervals with no attempt, touching
    # intervals, and fewer than two attempts
    rng = np.random.default_rng(16)
    cases = 0
    for _ in range(200):
        k = int(rng.integers(0, 8))
        gaps = np.where(rng.random(k) < 0.3, 0.0, rng.uniform(0.0, 1.0, size=k))
        durations = rng.uniform(0.05, 1.0, size=k)
        onsets = np.cumsum(gaps + np.concatenate(([0.0], durations[:-1]))) if k else np.zeros(0)
        seq = DosSequence(tuple(zip(onsets.tolist(), durations.tolist())))
        end = float(seq.ends[-1]) + 0.5 if k else 2.0
        times = rng.uniform(0.0, end, size=int(rng.integers(0, 30)))
        edges = np.concatenate((seq.onsets, seq.ends))
        times = np.concatenate((times, rng.choice(edges, size=min(len(edges), 5), replace=False) if k else []))
        rng.shuffle(times)
        for sample in (times, times[:1], times[:0]):
            got = measure_robustness(sample, seq)
            want = robustness_by_loop(sample, seq)
            assert _bits(got) == [float(v).hex() for v in (want[0], want[1], *want[2])]
            cases += 1
    # an interval holding no attempt, one gap starting on an end (outside)
    # and one on an onset (inside)
    seq = DosSequence(((1.0, 0.5), (1.5, 0.25), (4.0, 0.25)))
    times = [1.75, 1.5, 0.2, 1.0, 3.0]
    got = measure_robustness(times, seq)
    assert got.delta_per_interval == (0.5, 0.25, 0.0)
    assert _bits(got) == [float(v).hex() for v in (0.5, 0.25, 0.5, 0.25, 0.0)]
    assert cases == 600


def test_inflation_exact_identity():
    assert SamplingRobustness(delta_star=0.0, tau_star=1e-9).inflation == 1.0
    assert IDEAL_ROBUSTNESS.inflation == 1.0
    assert SamplingRobustness(delta_star=0.1, tau_star=0.4).inflation == pytest.approx(1.25)


@pytest.mark.parametrize("gap", [math.nan, -1e-300, -math.inf])
def test_sampling_robustness_rejects_nan_and_negative_gaps(gap):
    with pytest.raises(ValueError, match="per-interval gaps"):
        SamplingRobustness(0.1, 1.0, (0.05, gap))
    with pytest.raises(ValueError, match="per-interval gaps"):
        SamplingRobustness(0.1, 1.0, (gap,))


def test_xi_bar_hand_values_and_inequality():
    seq = DosSequence(((1.0, 0.5), (3.0, 1.0)))
    rob = SamplingRobustness(delta_star=0.2, tau_star=0.5, delta_per_interval=(0.2, 0.1))
    assert xi_bar_measure(seq, rob, 0.5) == 0.0
    assert xi_bar_measure(seq, rob, 1.25) == pytest.approx(0.25)  # partial: t - h0
    assert xi_bar_measure(seq, rob, 2.0) == pytest.approx(0.7)  # full first window
    assert xi_bar_measure(seq, rob, 10.0) == pytest.approx(0.7 + 1.1)
    rng = np.random.default_rng(41)
    for _ in range(30):
        cursor = 0.0
        pairs = []
        for _ in range(int(rng.integers(1, 6))):
            cursor += float(rng.uniform(0.05, 1.0))
            d = float(rng.uniform(0.1, 0.9))
            pairs.append((cursor, d))
            cursor += d
        seq = DosSequence(tuple(pairs))
        attempts = np.sort(rng.uniform(0.0, cursor + 1.0, size=int(rng.integers(2, 40))))
        rob = measure_robustness([float(a) for a in attempts], seq)
        for t in rng.uniform(0.1, cursor + 1.0, size=12):
            lhs = xi_bar_measure(seq, rob, float(t))
            rhs = xi_measure(seq, float(t)) * rob.inflation
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-12, (pairs, t)


def test_dos_free_segments():
    seq = DosSequence(((1.0, 0.5), (2.0, 0.5), (6.0, 1.0)))
    rob = SamplingRobustness(delta_star=0.6, tau_star=0.5)
    # inflated windows [1, 2.1) and [2, 3.1) merge; [6, 7.6) is clipped
    segs = dos_free_segments(seq, rob, horizon=7.0)
    assert segs == [(0.0, 1.0), (pytest.approx(3.1), 6.0)]
    # without inflation the middle gap reappears
    segs0 = dos_free_segments(seq, IDEAL_ROBUSTNESS, horizon=8.0)
    assert segs0 == [(0.0, 1.0), (1.5, 2.0), (2.5, 6.0), (7.0, 8.0)]


def test_format_report():
    text = format_report({"a": 1.5, "b": True, "c": "word", "d": 10})
    assert "a = 1.5" in text
    assert "b = true" in text
    assert "c = word" in text
    assert "d = 10" in text
    # floats round-trip through repr
    x = 0.1234567890123456789
    assert f"x = {x!r}" in format_report({"x": x})
