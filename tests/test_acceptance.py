"""Acceptance gate: nine end-to-end criteria, one test each.

The criteria keep their numbers; there is no criterion 6.

Each test prints a single "[acceptance NN] label: PASS/FAIL" line (visible
with -s or in failure reports); the pytest verdict carries the same signal.
All randomness is seeded, so this file is deterministic run to run.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np
import pytest

from dosloop import (
    DosBudget,
    DosSequence,
    InputMode,
    LogicKind,
    LtiPlant,
    SamplingRobustness,
    SimConfig,
    TriggerConfig,
    check_lyapunov_decay,
    check_onset_amplification,
    check_slow_average,
    dos_free_segments,
    exact_hold_step,
    gen_random_budgeted,
    ges_certificate_ideal,
    ges_certificate_lyapunov,
    ges_certificate_sampled,
    mat_exp,
    measure_robustness,
    riccati_delta2,
    rho_star,
    run,
    solve_lyapunov,
    spectral_norm,
    verify_ges,
    xi_bar_measure,
    xi_measure,
)
from dosloop import dos as dos_io
from dosloop.cli import main as cli_main
from conftest import feasible_sigma, random_stabilized_plant, standard_trigger
from oracles import (
    componentwise_exp_diag,
    quadratic_rate_threshold,
    rk4_hold_trajectory,
    rk4_riccati_crossing,
    scalar_lyapunov_constants,
)


@contextlib.contextmanager
def _criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {label}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {label}: PASS")


def _sampled_scenario(seed: int):
    """One randomized trajectory-certificate scenario (criterion 1 protocol).

    sigma sits at 90% of its feasibility bound, the retry/refresh rates come
    from the Riccati bound, jam intervals last at least five retry periods,
    gaps leave room for a success between intervals, and tau stays 10% above
    the certified minimum computed from worst-case attempt gaps.
    """
    rng = np.random.default_rng(1_000_000 + seed)
    plant = random_stabilized_plant(rng)
    sigma = feasible_sigma(plant, margin=0.9)
    trig = standard_trigger(plant, sigma)
    min_duration = 5.0 * trig.delta1
    wc = SamplingRobustness(delta_star=trig.delta1, tau_star=min_duration)
    probe = ges_certificate_sampled(plant, sigma, 0.0, 2.0, wc)
    tau = 1.1 * probe.tau_min
    kappa = min_duration
    budget = DosBudget(kappa=kappa, tau_avg=tau)
    horizon = float(np.clip(1200.0 * trig.delta1, 1.5, 5.0))
    # rejection-sample toward a nonempty realization so the run actually jams;
    # every candidate is budget-compliant, so this only conditions the draw
    seq = DosSequence(())
    for k in range(400):
        seq = gen_random_budgeted(
            budget, min_duration, seed=seed + 7919 * k, horizon=horizon,
            min_gap=2.0 * trig.delta1,
        )
        if len(seq) > 0:
            break
    cert = ges_certificate_sampled(plant, sigma, kappa, tau, wc)
    assert cert.feasible
    x0 = rng.normal(size=plant.n)
    config = SimConfig(
        plant=plant, logic=LogicKind.PURE_TIME, trigger=trig, dos=seq, budget=budget,
        x0=x0, horizon=horizon, record_step=trig.delta1 / 4.0,
    )
    return config, cert, wc


def test_c01_ges_envelope_under_sampled_updates():
    with _criterion(1, "trajectory certificate holds on randomized sampled runs"):
        jammed = 0
        for seed in range(50):
            config, cert, _ = _sampled_scenario(seed)
            trace = run(config)
            assert not trace.diverged
            verdict = verify_ges(trace, cert.alpha, cert.beta)
            assert verdict.holds, (
                f"seed {seed}: envelope violated at t={verdict.first_violation} "
                f"(margin {verdict.worst})"
            )
            jammed += int(len(config.dos) > 0)
        assert jammed >= 40, f"only {jammed}/50 scenarios exercised jamming"


def _lyapunov_scenario(seed: int):
    """Quadratic-certificate scenario: jam windows covered by the kappa credit.

    The sequence is generated against a budget tightened by the worst-case
    inflation factor 1.2 (= 1 + delta1 / min_duration), so the *inflated* jam
    measure still fits the scenario budget the certificate is computed at.
    """
    rng = np.random.default_rng(2_000_000 + seed)
    plant = random_stabilized_plant(rng)
    Q = np.eye(plant.n)
    probe = ges_certificate_lyapunov(plant, Q, 1e-6, 0.0, 2.0)
    sigma = min(0.9 * probe.gamma1 / probe.gamma2, 0.9)
    trig = standard_trigger(plant, sigma)
    min_duration = 5.0 * trig.delta1
    inflation = 1.0 + trig.delta1 / min_duration
    cert_probe = ges_certificate_lyapunov(plant, Q, sigma, 0.0, 2.0)
    tau = 1.2 * cert_probe.tau_min
    kappa = 2.0 * min_duration * inflation
    horizon = float(min(5.0, 1200.0 * trig.delta1))
    # two hand-placed intervals, fully paid for by the (tightened) kappa credit
    gap = max(0.25 * horizon, min_duration + 4.0 * trig.delta1)
    h0 = 0.3 * horizon
    seq = DosSequence(((h0, min_duration), (h0 + min_duration + gap, min_duration)))
    tight = DosBudget(kappa=kappa / inflation, tau_avg=tau * inflation)
    assert check_slow_average(seq, tight, horizon).holds
    budget = DosBudget(kappa=kappa, tau_avg=tau)
    cert = ges_certificate_lyapunov(plant, Q, sigma, kappa, tau)
    assert cert.feasible
    x0 = rng.normal(size=plant.n)
    config = SimConfig(
        plant=plant, logic=LogicKind.PURE_TIME, trigger=trig, dos=seq, budget=budget,
        x0=x0, horizon=horizon, record_step=trig.delta1 / 4.0,
    )
    return config, cert


def test_c02_lyapunov_certificate_envelope():
    with _criterion(2, "quadratic certificate and per-segment decay hold"):
        for seed in range(50):
            config, cert = _lyapunov_scenario(seed)
            trace = run(config)
            assert not trace.diverged
            verdict = verify_ges(trace, cert.alpha, cert.beta)
            assert verdict.holds, (
                f"seed {seed}: envelope violated at t={verdict.first_violation} "
                f"(margin {verdict.worst})"
            )
            measured = measure_robustness(trace.t[trace.attempt == 1], config.dos)
            segments = dos_free_segments(config.dos, measured, config.horizon)
            decay = check_lyapunov_decay(trace, cert.P, cert.omega1, segments)
            assert decay.holds, f"seed {seed}: segment decay violated (worst ratio {decay.worst})"


def test_c03_inter_event_lower_bound():
    with _criterion(3, "event gaps never beat the Riccati bound"):
        for seed in range(20):
            rng = np.random.default_rng(3_000_000 + seed)
            plant = random_stabilized_plant(rng)
            sigma = feasible_sigma(plant, margin=float(rng.uniform(0.3, 0.9)))
            c = spectral_norm(plant.phi)
            a = spectral_norm(plant.bk)
            bound = riccati_delta2(c, a, sigma)
            oracle = rk4_riccati_crossing(c, a, sigma)
            assert abs(bound - oracle) <= 1e-9 * max(oracle, 1e-9)
            trig = TriggerConfig(sigma=sigma, delta1=bound / 5.0, delta2=0.9 * bound)
            horizon = 14.0 * bound
            config = SimConfig(
                plant=plant, logic=LogicKind.IDEAL_EVENT, trigger=trig,
                dos=DosSequence(()), budget=DosBudget(kappa=0.1, tau_avg=2.0),
                x0=rng.normal(size=plant.n), horizon=horizon,
                record_step=trig.delta1 / 4.0,
            )
            trace = run(config)
            times = trace.t[trace.success == 1]
            assert len(times) >= 3, f"seed {seed}: too few events to measure gaps"
            gaps = np.diff(times)
            assert float(np.min(gaps)) >= bound - 1e-6, (
                f"seed {seed}: min gap {np.min(gaps)} beats bound {bound}"
            )


def test_c04_onset_jump_bound():
    with _criterion(4, "held sample at each jam onset within (1 + sigma) of the state"):
        onsets_seen = 0
        for seed in range(12):
            config, cert, _ = _sampled_scenario(seed)
            trace = run(config)
            onsets = check_onset_amplification(trace, config.trigger.sigma, config.dos)
            assert onsets.holds, f"seed {seed}: onset amplification {onsets.worst} too large"
            onsets_seen += int(np.sum(config.dos.onsets <= trace.t[-1]))
        # jamming from the very first instant: the held sample is still zero
        plant = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))
        trig = TriggerConfig(sigma=0.25, delta1=0.02, delta2=0.1)
        seq = DosSequence(((0.0, 0.1), (0.6, 0.1)))
        config0 = SimConfig(
            plant=plant, logic=LogicKind.PURE_TIME, trigger=trig, dos=seq,
            budget=DosBudget(kappa=0.22, tau_avg=8.0), x0=np.array([1.0]),
            horizon=1.5, record_step=0.005,
        )
        trace0 = run(config0)
        assert trace0.t[0] == 0.0 and trace0.jammed[0] == 1 and not np.any(trace0.success[trace0.t == 0.0])
        onsets0 = check_onset_amplification(trace0, trig.sigma, seq)
        assert onsets0.holds and onsets0.worst > 0.0  # the held sample is zero at t = 0, not at 0.6
        assert onsets_seen >= 3, "criterion needs scenarios that actually jam"


def test_c05_effective_jam_measure_inequality():
    with _criterion(5, "inflated jam measure bounded by inflation factor"):
        checked = 0
        for seed in range(12):
            config, _, _ = _sampled_scenario(seed)
            seq = config.dos
            if len(seq) == 0:
                continue
            trace = run(config)
            attempt_times = trace.t[trace.attempt == 1]
            rob = measure_robustness(attempt_times, seq)
            points = sorted(
                set(map(float, seq.onsets))
                | set(map(float, seq.ends))
                | set(attempt_times.tolist())
                | {config.horizon}
            )
            factor = rob.inflation
            for t in points:
                if t <= 0.0:
                    continue
                lhs = xi_bar_measure(seq, rob, t)
                rhs = xi_measure(seq, t) * factor
                assert lhs <= rhs * (1.0 + 1e-12) + 1e-15, (seed, t, lhs, rhs)
                checked += 1
        assert checked >= 50
        # zero-gap reduction: sampled constants collapse onto the ideal ones bitwise
        for seed in (0, 1, 2):
            rng = np.random.default_rng(5_000_000 + seed)
            plant = random_stabilized_plant(rng)
            sigma = feasible_sigma(plant, margin=0.8)
            ideal = ges_certificate_ideal(plant, sigma, 0.4, 25.0)
            reduced = ges_certificate_sampled(
                plant, sigma, 0.4, 25.0, SamplingRobustness(delta_star=0.0, tau_star=0.3)
            )
            assert reduced.alpha == ideal.alpha
            assert reduced.beta == ideal.beta
            assert reduced.tau_min == ideal.tau_min
            assert reduced.rho_star == ideal.rho_star


def test_c07_numeric_kernel():
    with _criterion(7, "matrix kernel identities and integrator agreement"):
        rng = np.random.default_rng(7_000_000)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            A = rng.normal(size=(n, n))
            s, t = float(rng.uniform(0.05, 1.2)), float(rng.uniform(0.05, 1.2))
            semi = mat_exp(A, s + t) - mat_exp(A, s) @ mat_exp(A, t)
            assert np.linalg.norm(semi, 2) <= 1e-8 * max(1.0, np.linalg.norm(mat_exp(A, s + t), 2))
            inv = mat_exp(A, t) @ mat_exp(A, -t) - np.eye(n)
            assert np.linalg.norm(inv, 2) <= 1e-8
        for _ in range(15):
            n = int(rng.integers(1, 5))
            F = rng.normal(size=(n, n)) - (2.0 + n) * np.eye(n)
            Q = np.eye(n)
            P = solve_lyapunov(F, Q)
            res = F.T @ P + P @ F + Q
            assert np.linalg.norm(res, 2) <= 1e-8 * np.linalg.norm(Q, 2)
        for k in range(10):
            plant = random_stabilized_plant(rng)
            x0 = rng.normal(size=plant.n)
            xh = rng.normal(size=plant.n)
            dt = float(rng.uniform(0.02, 0.5))
            exact = np.asarray(
                rk4_hold_trajectory(plant.A, plant.B, plant.K, x0, xh, dt, steps=int(dt / 1e-5) + 1)
            )
            got = exact_hold_step(plant, x0, xh, dt)
            assert np.linalg.norm(got - exact) <= 1e-6 * max(1.0, float(np.linalg.norm(exact)))
            # envelopes are proved for all t >= 0, with stated rounding slack; spot-check them
            env, gro = plant.decay, plant.growth
            for tt in rng.uniform(0.0, 10.0 / env.lam, size=10):
                val = float(np.linalg.norm(mat_exp(plant.phi, float(tt)), 2))
                assert val <= env.mu * math.exp(-env.lam * float(tt)) * (1.0 + 1e-6)
            for tt in rng.uniform(0.0, 2.0, size=5):
                val = float(np.linalg.norm(mat_exp(plant.A, float(tt)), 2))
                assert val <= gro.theta * math.exp(gro.rho * float(tt)) * (1.0 + 1e-6)


def test_c08_hand_checked_constants(tmp_path, capsys):
    with _criterion(8, "hand-evaluated certificate constants reproduced exactly"):
        doc = {
            "plant": {"A": [[1.0]], "B": [[1.0]], "K": [[-2.0]], "input_mode": "hold_last"},
            "trigger": {"kind": "pure_time", "sigma": 0.25, "delta1": 0.02, "delta2": None},
            "dos": {"intervals": []},
            "budget": {"kappa": 0.1, "tau": 12.0},
            "sim": {"x0": [1.0], "horizon": 4.0, "record_step": 0.005},
            "analysis": {"Q": [[2.0]]},
        }
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["analyze", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        report = {}
        for line in out.strip().splitlines():
            name, _, value = line.partition(" = ")
            report[name] = value
        want = scalar_lyapunov_constants(0.25)
        assert float(report["gamma1"]) == want["gamma1"] == 2.0
        assert float(report["gamma2"]) == want["gamma2"] == 4.0
        assert float(report["omega1_lyap"]) == want["omega1"] == 1.0
        assert float(report["omega2_lyap"]) == want["omega2"] == 9.0
        assert float(report["tau_min_lyapunov"]) == want["tau_min"] == 10.0
        # rate threshold against the closed-form quadratic root
        root = quadratic_rate_threshold(1.0, 1.0, 0.1, 1.0, 1.0)
        got = rho_star(1.0, 1.0, 0.1, 1.0, 1.0)
        assert abs(got - root) <= 1e-6 * root
        assert root == pytest.approx((1.1 + math.sqrt(5.61)) / 2.0, rel=1e-15)


def test_c09_unstable_open_loop_divergence():
    with _criterion(9, "unjammable-loop negative control diverges on the open-loop flow"):
        A = np.diag([0.8, 1.1])
        plant = LtiPlant(
            A=A, B=np.eye(2), K=-2.0 * np.eye(2), input_mode=InputMode.ZERO_DURING_DOS
        )
        horizon = 40.0
        tau = 2.0
        budget = DosBudget(kappa=horizon * (1.0 - 1.0 / tau) + 2.0, tau_avg=tau)
        seq = DosSequence(((0.0, horizon + 1.0),))
        trig = TriggerConfig(sigma=0.2, delta1=0.05, delta2=0.1)
        config = SimConfig(
            plant=plant, logic=LogicKind.PURE_TIME, trigger=trig, dos=seq, budget=budget,
            x0=np.array([1.0, 1.0]), horizon=horizon, record_step=0.0125,
        )
        trace = run(config)
        assert trace.diverged
        assert trace.t[-1] < horizon
        assert trace.x_norm[-1] > 1e12
        for i in range(len(trace)):
            want = componentwise_exp_diag(np.diag(A), np.array([1.0, 1.0]), float(trace.t[i]))
            assert np.allclose(trace.x[i], want, rtol=1e-6, atol=1e-20), trace.t[i]
        assert np.all(trace.u == 0.0)
        assert np.any(trace.attempt == 1) and not np.any(trace.success)


def test_c10_determinism_and_round_trips(tmp_path):
    with _criterion(10, "bit-identical reruns and exact file round-trips"):
        config, cert, _ = _sampled_scenario(4)
        a = run(config)
        b = run(config)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.e_norm, b.e_norm)
        assert np.array_equal(a.attempt, b.attempt) and np.array_equal(a.success, b.success)
        assert a.diverged == b.diverged
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        # seeded generator determinism
        budget = DosBudget(kappa=0.4, tau_avg=6.0)
        s1 = gen_random_budgeted(budget, 0.05, seed=99, horizon=15.0)
        s2 = gen_random_budgeted(budget, 0.05, seed=99, horizon=15.0)
        assert s1.intervals == s2.intervals
        # jam file round-trip is float-exact
        jam_path = tmp_path / "jam.txt"
        dos_io.save(jam_path, s1, budget)
        s3, b3 = dos_io.load(jam_path)
        assert s3.intervals == s1.intervals
        assert b3.kappa == budget.kappa and b3.tau_avg == budget.tau_avg
