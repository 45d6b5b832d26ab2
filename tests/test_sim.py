"""Event loop behavior: crossings, scheduling, traces, trace checks."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import dosloop.plant
import dosloop.sim
from dosloop import (
    DosBudget,
    DosSequence,
    InputMode,
    LogicKind,
    LtiPlant,
    SamplingRobustness,
    SimConfig,
    TriggerConfig,
    Varphi,
    Verdict,
    check_lyapunov_decay,
    check_onset_amplification,
    check_update_rule,
    dos_free_segments,
    find_event_crossing,
    gen_greedy_adversary,
    gen_periodic,
    ges_certificate_lyapunov,
    is_jammed,
    measure_robustness,
    periodic_budget,
    riccati_delta2,
    run,
    verify_ges,
    xi_bar_measure,
    xi_measure,
)
from dosloop.cli import Scenario, _applicable_certificates, certificates, main, scenario_from_dict
from dosloop.sim import _CHUNK_ROWS, _CSV_BLOCK_CELLS, _STRETCH_ROWS, Trace
from conftest import budgeted_jam, feasible_sigma, random_stabilized_plant, standard_trigger
from oracles import (
    csv_by_row,
    expm_hold_step,
    onset_amplification_by_walk,
    restep_rows,
    rk4_first_crossing,
    scipy_expm,
    update_rule_by_loop,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# A = 0, B = 1, K = -1: between updates x is a straight line x(t) = x1 (1 - dt)
# and the error ratio crosses sigma at exactly dt = sigma / (1 + sigma)
LINE = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))

NO_DOS = DosSequence(())
LOOSE = DosBudget(kappa=1.0, tau_avg=2.0)


def _config(plant, logic, trigger, dos=NO_DOS, budget=LOOSE, x0=None, horizon=3.0, **kw):
    if x0 is None:
        x0 = np.ones(plant.n)
    return SimConfig(
        plant=plant,
        logic=logic,
        trigger=trigger,
        dos=dos,
        budget=budget,
        x0=np.asarray(x0, dtype=float),
        horizon=horizon,
        record_step=trigger.delta1 / 4.0,
        **kw,
    )


def test_find_event_crossing_scalar_hand_value():
    sigma = 0.25
    hit = find_event_crossing(LINE, np.array([1.0]), np.array([1.0]), sigma, 0.0, 1.0)
    assert hit == pytest.approx(sigma / (1.0 + sigma), abs=2e-9)


@pytest.mark.parametrize("mode", ["hold_last", "zero_during_dos"])
def test_find_event_crossing_matches_rk4_oracle(mode):
    # the oracle finds the first root by dense RK4 marching and bisection;
    # the search must return a time at most crossing_tol after it
    rng = np.random.default_rng(41)
    zero_input = mode == "zero_during_dos"
    hits = 0
    for k in range(6):
        plant = random_stabilized_plant(rng)
        sigma = feasible_sigma(plant)
        x = rng.normal(size=plant.n)
        e = rng.normal(size=plant.n)
        e *= (0.5 * sigma * np.linalg.norm(x) / np.linalg.norm(e)) if k % 2 else 0.0
        want = rk4_first_crossing(plant.A, plant.B, plant.K, x, x + e, sigma, 4.0, zero_input=zero_input)
        for tol in (1e-9, 1e-6):
            got = find_event_crossing(plant, x, x + e, sigma, 0.3, 4.3, tol, applied=0.0 * x if zero_input else None)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert -1e-11 <= (got - 0.3) - want <= tol + 1e-11, (k, tol, got - 0.3, want)
        hits += want is not None
    assert hits >= 4


@pytest.mark.parametrize("zero_input", [False, True], ids=["hold", "zero_input"])
def test_find_event_crossing_meets_its_contract_under_an_expm_oracle(zero_input):
    # g = ||e|| - sigma ||x|| evaluated by one expm of the augmented matrix
    # from the search's start, never through the plant's own steps: every
    # returned t has g(t) >= 0 and g(t - crossing_tol) < 0, both up to a
    # rounding slack (t itself is rounded, and a trial can land within
    # rounding of the root)
    rng = np.random.default_rng(77)
    hits = 0
    for k in range(12):
        plant = random_stabilized_plant(rng)
        sigma = feasible_sigma(plant)
        trig = standard_trigger(plant, sigma)
        x = rng.normal(size=plant.n)
        e = rng.normal(size=plant.n)
        e *= (float(rng.uniform(0.1, 0.9)) * sigma * np.linalg.norm(x) / np.linalg.norm(e)) if k % 3 else 0.0
        slack = 1e-13 * max(np.linalg.norm(x), np.linalg.norm(x + e))

        def g(s):
            xs = expm_hold_step(plant.A, plant.bk, x, x + e, s, zero_input)
            return np.linalg.norm(e + x - xs) - sigma * np.linalg.norm(xs)

        t_from = float(rng.uniform(0.0, 2.0))
        for tol in (1e-9, 1e-6):
            for window in (4.0, 4.0 * trig.delta2):
                t = find_event_crossing(plant, x, x + e, sigma, t_from, t_from + window, tol,
                                        applied=0.0 * x if zero_input else None)
                if t is None:
                    continue
                hits += 1
                assert t_from < t <= t_from + window
                assert g(t - t_from) >= -slack, (k, tol, window)
                assert g(t - t_from - tol) < slack, (k, tol, window)
    assert hits >= 30


def test_find_event_crossing_finds_a_crossing_between_any_two_grid_points():
    # Rotating plants, e = 0 at the start and sigma set 1e-5 to 1e-3 below the
    # peak of ||e|| / ||x|| on a dense grid: the window's only crossings can
    # be short excursions above sigma, which a search that looks at fixed
    # grid points skips. The grid steps by one cached scipy exponential
    # (oracles.expm_hold_step), never by the library's stepping.
    rng = np.random.default_rng(1972)
    points = 2000
    for k in range(60):
        w, gain = rng.uniform(2.0, 30.0), rng.uniform(0.1, 2.0)
        A = np.array([[0.0, w], [-w, 0.0]]) + 0.05 * rng.normal(size=(2, 2))
        plant = LtiPlant(A=A, B=np.eye(2), K=-gain * np.eye(2))
        x0 = rng.normal(size=2)
        window = float(rng.uniform(0.05, 0.5))
        dt = window / points
        one_step = scipy_expm(np.block([[A, plant.bk], [np.zeros((2, 4))]]), dt)
        xs = [x0]
        for _ in range(points):
            xs.append(expm_hold_step(A, plant.bk, xs[-1], x0, dt, exp=lambda M, t: one_step))
        xs = np.array(xs)
        ratio = np.linalg.norm(x0 - xs, axis=1) / np.linalg.norm(xs, axis=1)
        sigma = float(ratio.max()) * (1.0 - 10.0 ** rng.uniform(-5.0, -3.0))
        # the first grid point past sigma by more than the grid's rounding
        first = int(np.argmax(ratio >= sigma * (1.0 + 1e-9))) * dt
        tol = 1e-9
        t = find_event_crossing(plant, x0, x0, sigma, 0.0, window, tol)
        assert t is not None, (k, sigma)
        assert t <= first + tol, (k, t, first)
        x_t = expm_hold_step(A, plant.bk, x0, x0, t)
        assert np.linalg.norm(x0 - x_t) - sigma * np.linalg.norm(x_t) >= -1e-12 * np.linalg.norm(x0), k


def test_find_event_crossing_steps_within_the_taylor_reach(monkeypatch):
    # x' = -50 x - x_held from x = x_held = 1: x(t) = -0.02 + 1.02 exp(-50 t),
    # and ||e|| = 10 ||x|| at x = 1/11. The window is cut into stretches of
    # the Taylor reach 1/||[-50, -1]||, each decided on its own polynomial;
    # the crossing lies past two of them
    plant = LtiPlant(A=np.array([[-50.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))
    want = -np.log((1.0 / 11.0 + 0.02) / 1.02) / 50.0
    assert want > 2.0 * plant.taylor_reach
    stats = dict.fromkeys(("crossing_searches", "hull_tests", "root_trials", "taylor_steps", "expm_steps"), 0)
    formed = []
    original = LtiPlant.taylor_coeffs
    monkeypatch.setattr(LtiPlant, "taylor_coeffs", lambda *args: formed.append(args[1:]) or original(*args))
    t = find_event_crossing(plant, np.ones(1), np.ones(1), 10.0, 0.0, 1.0, stats=stats)
    assert want <= t <= want + 1e-9 + 1e-15
    # the Taylor coefficients are formed once per stretch, each next stretch
    # starting from one Taylor step of the one before, never from mat_exp
    assert len(formed) == math.ceil(want / plant.taylor_reach) == 3
    assert stats["taylor_steps"] == 2 and stats["expm_steps"] == 0
    assert stats["crossing_searches"] == 1 and stats["hull_tests"] >= 3 and stats["root_trials"] > 0


def test_find_event_crossing_with_a_tolerance_finer_than_a_float_returns():
    # a tolerance below what the offsets can resolve (2^-50 of a stretch)
    # searches to that resolution instead of stepping in place for ever
    sigma = 0.25
    for tol in (1e-30, 5e-324):
        hit = find_event_crossing(LINE, np.array([1.0]), np.array([1.0]), sigma, 0.0, 1.0, tol)
        assert hit == pytest.approx(sigma / (1.0 + sigma), abs=1e-15)
    # and so does a run with it, which found its first crossing for ever
    trig = TriggerConfig(sigma=sigma, delta1=0.04, delta2=0.19)
    trace = run(_config(LINE, LogicKind.EVENT_TIME, trig, horizon=1.0, crossing_tol=1e-30))
    times = trace.t[trace.attempt == 1]
    assert np.allclose(times[:5], 0.2 * np.arange(5), rtol=0, atol=1e-14)


def test_find_event_crossing_none_when_out_of_window():
    assert find_event_crossing(LINE, np.array([1.0]), np.array([1.0]), 0.25, 0.0, 0.1) is None
    # zero state never crosses anything
    assert find_event_crossing(LINE, np.array([0.0]), np.array([0.0]), 0.25, 0.0, 5.0) is None


def test_find_event_crossing_from_a_violated_start_returns_the_start():
    # e = 1 > sigma x already at t_from: the crossing is the start itself
    assert find_event_crossing(LINE, np.array([1.0]), np.array([2.0]), 0.25, 0.5, 1.5) == 0.5
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError):
            find_event_crossing(LINE, np.array([1.0]), np.array([1.0]), 0.25, 0.0, 1.0, tol)


def test_find_event_crossing_from_a_huge_state_is_exact_and_warning_free():
    # a sum of squares past 2^900 is rescaled by a power of two (linalg._norm),
    # so from 2^600 the search takes the steps it takes from 1, and the
    # overflow of the first sum raises no warning
    big, one = np.array([2.0**600]), np.ones(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit = find_event_crossing(LINE, big, big, 0.25, 0.0, 1.0)
    assert hit is not None and hit == find_event_crossing(LINE, one, one, 0.25, 0.0, 1.0)


def test_config_keeps_its_own_read_only_x0():
    x0 = np.array([1.0])
    cfg = _config(LINE, LogicKind.PURE_TIME, TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19), x0=x0, horizon=0.5)
    x0[0] = 5.0
    assert cfg.x0[0] == 1.0
    with pytest.raises(ValueError):
        cfg.x0[0] = 2.0
    assert run(cfg).x[0, 0] == 1.0


def test_event_time_run_has_geometric_updates():
    sigma = 0.25
    step = sigma / (1.0 + sigma)  # 0.2
    trig = TriggerConfig(sigma=sigma, delta1=0.04, delta2=0.19)
    trace = run(_config(LINE, LogicKind.EVENT_TIME, trig, horizon=1.0))
    times = trace.t[trace.attempt == 1]
    assert np.all(trace.success[trace.attempt == 1] == 1)
    for k, t in enumerate(times[:5]):
        assert t == pytest.approx(k * step, abs=5e-8)
    # state contracts by 1/(1+sigma) per event
    idx = np.nonzero(trace.attempt == 1)[0]
    x_at = trace.x_norm[idx]
    for k in range(1, 5):
        assert x_at[k] == pytest.approx(0.8 ** k, rel=1e-6)


def test_run_is_bit_deterministic():
    plant = random_stabilized_plant(np.random.default_rng(8))
    sigma = feasible_sigma(plant)
    trig = standard_trigger(plant, sigma)
    seq, budget, _ = budgeted_jam(5, trig, tau_avg=6.0, horizon=4.0)
    cfg = _config(plant, LogicKind.PURE_TIME, trig, dos=seq, budget=budget, horizon=4.0)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.attempt, b.attempt) and np.array_equal(a.success, b.success)
    assert a.diverged == b.diverged


def test_trace_rows_and_attempt_conventions():
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    trace = run(_config(LINE, LogicKind.PURE_TIME, trig, horizon=1.0))
    assert trace.t[0] == 0.0
    assert trace.t[-1] == 1.0
    assert np.all(np.diff(trace.t) >= 0.0)
    att_rows = np.nonzero(trace.attempt == 1)[0]
    assert np.all(trace.success[trace.attempt == 0] == 0)  # only attempt rows carry a success
    for i in att_rows:
        t = trace.t[i]
        if trace.success[i]:
            # a success is followed by a post-jump row at the same instant
            assert trace.t[i + 1] == t
            assert trace.e_norm[i + 1] == 0.0
    # DoS-free pure-time: every attempt succeeds, spaced delta2
    gaps = np.diff(trace.t[att_rows])
    assert np.allclose(gaps, trig.delta2, atol=1e-12)


def test_pure_time_retries_at_fast_rate_under_jam():
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    seq = DosSequence(((0.3, 0.22),))
    budget = DosBudget(kappa=0.25, tau_avg=3.0)
    trace = run(_config(LINE, LogicKind.PURE_TIME, trig, dos=seq, budget=budget, horizon=1.5))
    att = trace.attempt == 1
    times, ok = trace.t[att], trace.success[att]
    for t0, ok0, t1 in zip(times, ok, times[1:]):
        expected = trig.delta1 if not ok0 else trig.delta2
        assert t1 - t0 == pytest.approx(expected, abs=1e-12)
    failed = times[ok == 0]
    assert failed.size, "some attempts must land inside the jam window"
    assert np.all((0.3 <= failed) & (failed < 0.52))


def test_self_trigger_spacing():
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19, varphi=Varphi())
    seq = DosSequence(((0.2, 0.3),))
    budget = DosBudget(kappa=0.31, tau_avg=4.0)
    trace = run(_config(LINE, LogicKind.SELF_TRIGGER, trig, dos=seq, budget=budget, horizon=1.5))
    gaps = np.diff(trace.t[trace.attempt == 1])
    # zero varphi never accelerates: the gap is exactly delta2, ack or not
    assert np.allclose(gaps, trig.delta2, atol=1e-12)
    ramp = TriggerConfig(
        sigma=0.25, delta1=0.05, delta2=0.19, varphi=Varphi(kind="saturated_linear", scale=10.0)
    )
    trace2 = run(_config(LINE, LogicKind.SELF_TRIGGER, ramp, dos=seq, budget=budget, horizon=1.5))
    gaps2 = np.diff(trace2.t[trace2.attempt == 1])
    assert np.all(gaps2 >= trig.delta1 - 1e-12)
    assert np.all(gaps2 <= trig.delta2 + 1e-12)
    assert np.any(gaps2 < trig.delta2 - 1e-6)


def test_ideal_event_resumes_at_jam_end():
    sigma = 0.25
    trig = TriggerConfig(sigma=sigma, delta1=0.05, delta2=0.19)
    # first crossing at 0.2 lands inside the jam [0.15, 0.45)
    seq = DosSequence(((0.15, 0.3),))
    budget = DosBudget(kappa=0.31, tau_avg=4.0)
    trace = run(_config(LINE, LogicKind.IDEAL_EVENT, trig, dos=seq, budget=budget, horizon=1.2))
    failed = trace.t[(trace.attempt == 1) & (trace.success == 0)]
    assert len(failed) == 1
    assert failed[0] == pytest.approx(0.2, abs=5e-8)
    # the retry lands exactly on the interval end and succeeds
    resumed = trace.t[(trace.success == 1) & (trace.t > 0.2)]
    assert resumed[0] == float(seq.ends[0])


def _overflowing_config():
    """A jammed unstable plant that overflows within one record step."""
    plant = LtiPlant(A=np.array([[50.0]]), B=np.array([[1.0]]), K=np.array([[-60.0]]))
    trig = TriggerConfig(sigma=0.1, delta1=100.0, delta2=100.0)
    return SimConfig(
        plant=plant, logic=LogicKind.IDEAL_EVENT, trigger=trig, dos=DosSequence(((1.0, 30.0),)),
        budget=DosBudget(kappa=40.0, tau_avg=2.0), x0=np.array([1.0]), horizon=200.0, record_step=25.0,
    )


def test_zero_input_mode_and_divergence_flag():
    # open-loop unstable diagonal plant, jammed for the entire horizon,
    # zeroed input: the state is exp(At) x0 and must trip the guard
    A = np.diag([0.8, 1.1])
    B = np.eye(2)
    K = -2.0 * np.eye(2)
    plant = LtiPlant(A=A, B=B, K=K, input_mode=InputMode.ZERO_DURING_DOS)
    horizon = 40.0
    tau = 2.0
    kappa = horizon * (1.0 - 1.0 / tau) + 1.0
    seq = DosSequence(((0.0, horizon + 1.0),))
    budget = DosBudget(kappa=kappa, tau_avg=tau)
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.1)
    cfg = _config(plant, LogicKind.PURE_TIME, trig, dos=seq, budget=budget,
                  x0=np.array([1.0, 1.0]), horizon=horizon)
    trace = run(cfg)
    assert trace.diverged
    assert trace.t[-1] < horizon
    assert trace.x_norm[-1] > 1e12
    # all controls are zeroed while jammed
    assert np.all(trace.u[trace.jammed == 1] == 0.0)
    # growth matches the componentwise exponential
    for i in range(0, len(trace), 200):
        t = trace.t[i]
        want = np.exp(np.diag(A) * t)
        assert np.allclose(trace.x[i], want, rtol=1e-6), t
    # the guard's bound is relative to ||x0||; where 1e12 ||x0|| overflows,
    # an infinite norm still trips it
    huge = run(dataclasses.replace(cfg, x0=np.array([1e300, 1e300])))
    assert huge.diverged and huge.t[-1] < horizon and huge.x_norm[-1] == math.inf


def test_divergence_guard_catches_nan_state():
    # the jammed unstable plant overflows within one record step; inf - inf in
    # the held-input term turns the state into NaN, which must still trip the guard
    trace = run(_overflowing_config())
    assert trace.diverged
    assert trace.t[-1] < 200.0
    assert not np.isfinite(trace.x_norm[-1])
    # a diverged trace can never pass a stability claim
    assert not verify_ges(trace, alpha=1e6, beta=0.0).holds


_TRACE_COLUMNS = ("t", "x", "u", "e_norm", "x_norm", "jammed", "attempt", "success")


def _at_both_chunk_bounds(cfg, monkeypatch):
    """The run of cfg, checked to be the same bytes, divergence and stats at the smallest chunk bound.

    The smallest bound on the padded rows of one bulk product is
    _STRETCH_ROWS, one widest stretch, so the ticks between stops are
    filled in far more, far smaller products than at the default.
    """
    ref = run(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(dosloop.sim, "_CHUNK_ROWS", _STRETCH_ROWS)
        small = run(cfg)
    for col in _TRACE_COLUMNS:
        assert getattr(small, col).tobytes() == getattr(ref, col).tobytes(), col
    assert (small.diverged, small.stats) == (ref.diverged, ref.stats)
    return ref


def _ringing_config():
    """A jammed plant whose ||x|| swings by 4x each quarter turn and grows 8% a half turn, with its input zeroed.

    IDEAL_EVENT's first attempt fails and it waits for the jam to end, past
    the horizon, so the only stops are stretch ends, two record ticks
    apart: each stretch holds one tick between two stops.
    """
    w = 10.0
    g = math.log(1.08) * (w / 4.0) / math.pi
    plant = LtiPlant(A=np.array([[g, w], [-w / 16.0, g]]), B=np.eye(2), K=-3.0 * np.eye(2),
                     input_mode=InputMode.ZERO_DURING_DOS)
    rs = plant.taylor_reach / 2.5
    horizon = 1e5
    return SimConfig(
        plant=plant, logic=LogicKind.IDEAL_EVENT, trigger=TriggerConfig(sigma=0.5, delta1=4.0 * rs, delta2=4.0 * rs),
        dos=DosSequence(((0.0, horizon + 1.0),)), budget=DosBudget(kappa=0.5 * horizon + 1.0, tau_avg=2.0),
        x0=np.array([math.cos(0.5), math.sin(0.5)]), horizon=horizon, record_step=rs,
    )


def test_a_diverged_run_ends_at_its_first_row_past_the_guard(monkeypatch):
    # The guard trips on a tick strictly between two stops, near a peak of
    # ||x||, and the stop after it lies below the guard again: the loop
    # steps on, 15 stretches here, before the bulk product that fills that
    # tick finds it. The trace still ends at that tick, with the stats
    # after its stretch: 11,945 rows and 5,972 stretches, as when every
    # stretch's rows were evaluated at its own stop. At every chunk bound.
    formed = []
    coeffs = LtiPlant.taylor_coeffs
    monkeypatch.setattr(LtiPlant, "taylor_coeffs", lambda *args: formed.append(None) or coeffs(*args))
    trace = _at_both_chunk_bounds(_ringing_config(), monkeypatch)
    assert trace.diverged and not trace.attempt[-1] and trace.x_norm[-1] > 1e12 * trace.x_norm[0]
    assert (len(trace), float(trace.t[-1])) == (11945, 439.0368850138629)
    assert trace.stats["blocks_stepped"] == 5972 and trace.stats["rows_emitted"] == len(trace)
    assert len(formed) > 2 * trace.stats["blocks_stepped"]  # both runs stepped past the tick
    # a NaN state, stepped past the Taylor reach, trips it at a stop
    nan = _at_both_chunk_bounds(_overflowing_config(), monkeypatch)
    assert nan.diverged and np.isnan(nan.x_norm[-1]) and nan.stats["expm_steps"] > 0


def test_a_run_ends_at_its_horizon():
    # pure_time attempts at 3 delta2, one ulp before this horizon: the run
    # still steps on, so its last row sits at the horizon itself
    doc = _shipped_doc("scalar", "pure_time", "hold_last")
    delta2 = scenario_from_dict(doc, SCENARIOS).trigger.delta2
    horizon = math.nextafter(3.0 * delta2, math.inf)
    assert horizon == 0.5469646703818639
    doc["sim"]["horizon"] = horizon
    trace = run(scenario_from_dict(doc, SCENARIOS).sim_config())
    assert trace.t[-1] == horizon and not trace.attempt[-1]
    assert trace.t[-2] == 3.0 * delta2 and trace.t[-3] == 3.0 * delta2 and trace.attempt[-3] == 1


def test_stretches_are_bounded_independent_of_horizon(monkeypatch):
    # 64 record ticks per delta1, so more than _STRETCH_ROWS ticks lie
    # between some events; no stretch holds more rows than that, however
    # long the run, through jammed stretches (w = 0) and free ones alike.
    # Each LtiPlant.stretch call is one product: the rows of one stretch
    # stepped while event_time waits for a crossing, or one bulk product of
    # the ticks between stops of many pure_time stretches, whose padded
    # rows stay within _CHUNK_ROWS. No run builds a matrix exponential.
    rng = np.random.default_rng(12)
    base = random_stabilized_plant(rng)
    sigma = feasible_sigma(base)
    trig = standard_trigger(base, sigma)
    period, duty = 40.0 * trig.delta1, 0.2
    x0 = rng.normal(size=base.n)
    shapes, steps = [], []
    stretch, propagator = LtiPlant.stretch, LtiPlant.propagator
    monkeypatch.setattr(LtiPlant, "stretch", lambda self, c, dts: shapes.append(dts.shape) or stretch(self, c, dts))
    monkeypatch.setattr(LtiPlant, "propagator", lambda self, dt: steps.append(dt) or propagator(self, dt))
    rows, padded = [], []
    for horizon in (2.0, 8.0):
        shapes.clear()
        plant = LtiPlant(A=base.A, B=base.B, K=base.K, input_mode=InputMode.ZERO_DURING_DOS)
        seq = gen_periodic(0.5 * period, period, duty, horizon)
        for logic in (LogicKind.EVENT_TIME, LogicKind.PURE_TIME):
            trace = run(SimConfig(plant=plant, logic=logic, trigger=trig, dos=seq,
                                  budget=periodic_budget(period, duty), x0=x0, horizon=horizon,
                                  record_step=trig.delta1 / 64.0))
            assert trace.jammed.any() and not trace.diverged
        assert max(shape[0] for shape in shapes if len(shape) == 2) > 1  # bulk products of many stretches
        rows.append(max(shape[-1] for shape in shapes))
        padded.append(max(math.prod(shape) for shape in shapes))
    assert rows == [_STRETCH_ROWS, _STRETCH_ROWS]
    assert max(padded) <= _CHUNK_ROWS
    assert steps == []


@pytest.mark.parametrize("logic", ["pure_time", "event_time"])
def test_a_zeroed_input_steps_from_the_one_taylor_table(logic, monkeypatch):
    # a zeroed input is the applied sample w = 0 on the flow of a held one,
    # so a ZERO_DURING_DOS run that meets a jam interval and takes no expm
    # step forms the plant's one Taylor table once and builds no
    # propagator: every row comes from that table
    tables, steps = [], []
    terms, propagator = dosloop.plant._taylor_terms, LtiPlant.propagator
    monkeypatch.setattr(dosloop.plant, "_taylor_terms", lambda *args: tables.append(args) or terms(*args))
    monkeypatch.setattr(LtiPlant, "propagator", lambda self, dt: steps.append(dt) or propagator(self, dt))
    _, trace = _shipped_run("double_integrator", logic, "zero_during_dos")
    assert trace.jammed.any() and trace.stats["expm_steps"] == 0
    assert len(tables) == 1 and steps == []


@pytest.mark.parametrize("mode", list(InputMode))
@pytest.mark.parametrize("logic", [LogicKind.PURE_TIME, LogicKind.EVENT_TIME])
def test_record_steps_past_the_taylor_reach_step_by_mat_exp(logic, mode):
    # A weak gain and a loose sigma admit a delta2 of 11 Taylor reaches, so
    # the record step delta1/4 lies 2.85 reaches out: every row there is
    # one LtiPlant.step by mat_exp, the one path left to it (a Taylor sum
    # that long would be off by about 1e-7), and a cell that long is never
    # cleared by the watch's bound, only searched
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    A -= (np.linalg.eigvals(A).real.max() + 1.0) * np.eye(3)
    plant = LtiPlant(A=A, B=rng.normal(size=(3, 1)), K=1e-4 * rng.normal(size=(1, 3)), input_mode=mode)
    delta2 = riccati_delta2(plant.phi_norm, plant.bk_norm, 1e4)
    trig = TriggerConfig(sigma=1e4, delta1=delta2, delta2=delta2)
    seq = DosSequence(((5.0 * delta2, 3.0 * delta2), (20.0 * delta2, 4.0 * delta2)))
    budget = DosBudget(kappa=7.0 * delta2, tau_avg=10.0)
    cfg = _config(plant, logic, trig, dos=seq, budget=budget, x0=rng.normal(size=3), horizon=40.0 * delta2)
    assert cfg.record_step > 2.5 * plant.taylor_reach
    trace = run(cfg)
    assert not trace.diverged and trace.jammed.any() and trace.success.sum() >= 2
    assert trace.stats["expm_steps"] > 0
    assert (trace.stats["crossing_searches"] > 0) == (logic is LogicKind.EVENT_TIME)
    assert restep_rows(trace, plant.A, plant.B, plant.K, mode is InputMode.ZERO_DURING_DOS) <= 1e-12
    rule = check_update_rule(trace, trig.sigma, seq, measure_robustness(trace.t[trace.attempt == 1], seq))
    assert rule.holds, rule


@pytest.mark.parametrize("mode", list(InputMode))
@pytest.mark.parametrize("logic", list(LogicKind))
def test_rows_match_an_expm_restep_of_the_row_before(logic, mode):
    # every row is its predecessor advanced by one exponential over the gap;
    # the second run records 64 ticks per delta1, so more than 256 ticks lie
    # between attempts and the rows of one segment span several stretches
    rng = np.random.default_rng(300 + len(logic.value))
    long_gap = 0
    for k in range(2):
        base = random_stabilized_plant(rng)
        plant = LtiPlant(A=base.A, B=base.B, K=base.K, input_mode=mode)
        trig = standard_trigger(plant, feasible_sigma(plant))
        horizon = 60.0 * trig.delta2 if k else 3.0
        seq, budget, _ = budgeted_jam(k + 3, trig, tau_avg=5.0, horizon=horizon)
        rs = trig.delta1 / (64.0 if k else 4.0)
        trace = run(SimConfig(plant=plant, logic=logic, trigger=trig, dos=seq, budget=budget,
                              x0=rng.normal(size=plant.n), horizon=horizon, record_step=rs))
        assert not trace.diverged and len(seq) > 0
        worst = restep_rows(trace, plant.A, plant.B, plant.K, mode is InputMode.ZERO_DURING_DOS)
        assert worst <= 1e-12, (k, worst)
        long_gap = max(long_gap, int(np.diff(np.flatnonzero(trace.attempt)).max()))
    assert long_gap > _STRETCH_ROWS


# Measured before row blocks: rows, attempts, successes, jam onsets, diverged,
# verify_ges holds (None: no feasible certificate) and check_update_rule holds.
PINNED_BEHAVIOUR = {
    ("scalar", "event_time", "hold_last"): (1294, 64, 30, 2, False, True, True),
    ("scalar", "event_time", "zero_during_dos"): (1263, 35, 28, 2, False, True, True),
    ("scalar", "pure_time", "hold_last"): (1294, 64, 30, 2, False, True, True),
    ("scalar", "pure_time", "zero_during_dos"): (1294, 64, 30, 2, False, True, True),
    ("scalar", "self_trigger", "hold_last"): (1261, 33, 28, 2, False, None, True),
    ("scalar", "self_trigger", "zero_during_dos"): (1261, 33, 28, 2, False, None, True),
    ("scalar", "ideal_event", "hold_last"): (1262, 32, 30, 2, False, True, True),
    ("scalar", "ideal_event", "zero_during_dos"): (1257, 29, 28, 2, False, True, True),
    ("double_integrator", "event_time", "hold_last"): (7083, 90, 88, 4, False, True, True),
    ("double_integrator", "event_time", "zero_during_dos"): (7084, 90, 89, 4, False, True, True),
    ("double_integrator", "pure_time", "hold_last"): (7538, 324, 309, 4, False, True, True),
    ("double_integrator", "pure_time", "zero_during_dos"): (7538, 324, 309, 4, False, True, True),
    ("double_integrator", "self_trigger", "hold_last"): (7523, 311, 307, 4, False, None, True),
    ("double_integrator", "self_trigger", "zero_during_dos"): (7523, 311, 307, 4, False, None, True),
    ("double_integrator", "ideal_event", "hold_last"): (7083, 90, 88, 4, False, True, True),
    ("double_integrator", "ideal_event", "zero_during_dos"): (7084, 90, 89, 4, False, True, True),
}


# Trace.stats of the same runs, in the order of _PINNED_STAT_KEYS: a change
# to the loop that keeps these does the same work.
_PINNED_STAT_KEYS = (
    "blocks_stepped", "rows_emitted", "crossing_searches", "cells_scanned", "hull_tests", "root_trials", "taylor_steps",
    "expm_steps",
)
PINNED_STATS = {
    ('scalar', 'event_time', 'hold_last'): (68, 1294, 32, 1093, 32, 140, 0, 0),
    ('scalar', 'event_time', 'zero_during_dos'): (39, 1263, 31, 1199, 31, 130, 0, 0),
    ('scalar', 'pure_time', 'hold_last'): (68, 1294, 0, 0, 0, 0, 0, 0),
    ('scalar', 'pure_time', 'zero_during_dos'): (68, 1294, 0, 0, 0, 0, 0, 0),
    ('scalar', 'self_trigger', 'hold_last'): (37, 1261, 0, 0, 0, 0, 0, 0),
    ('scalar', 'self_trigger', 'zero_during_dos'): (37, 1261, 0, 0, 0, 0, 0, 0),
    ('scalar', 'ideal_event', 'hold_last'): (35, 1262, 32, 1093, 32, 140, 0, 0),
    ('scalar', 'ideal_event', 'zero_during_dos'): (32, 1257, 31, 1200, 31, 130, 0, 0),
    ('double_integrator', 'event_time', 'hold_last'): (98, 7083, 94, 6982, 94, 424, 0, 0),
    ('double_integrator', 'event_time', 'zero_during_dos'): (98, 7084, 96, 6988, 96, 430, 0, 0),
    ('double_integrator', 'pure_time', 'hold_last'): (332, 7538, 0, 0, 0, 0, 0, 0),
    ('double_integrator', 'pure_time', 'zero_during_dos'): (332, 7538, 0, 0, 0, 0, 0, 0),
    ('double_integrator', 'self_trigger', 'hold_last'): (319, 7523, 0, 0, 0, 0, 0, 0),
    ('double_integrator', 'self_trigger', 'zero_during_dos'): (319, 7523, 0, 0, 0, 0, 0, 0),
    ('double_integrator', 'ideal_event', 'hold_last'): (96, 7083, 94, 6986, 94, 425, 0, 0),
    ('double_integrator', 'ideal_event', 'zero_during_dos'): (97, 7084, 96, 6992, 96, 429, 0, 0),
}


def _shipped_doc(name, logic, mode, x0=None):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["trigger"]["kind"] = logic
    doc["plant"]["input_mode"] = mode
    if x0 is not None:
        doc["sim"]["x0"] = x0
    return doc


def _shipped_run(name, logic, mode, x0=None):
    sc = scenario_from_dict(_shipped_doc(name, logic, mode, x0), SCENARIOS)
    return sc, run(sc.sim_config())


@pytest.mark.parametrize("name,logic,mode", list(PINNED_BEHAVIOUR), ids=["-".join(key) for key in PINNED_BEHAVIOUR])
def test_shipped_scenarios_keep_their_pinned_behaviour(name, logic, mode):
    sc, trace = _shipped_run(name, logic, mode)
    feasible = [(a, b) for _, a, b, ok in _applicable_certificates(sc, certificates(sc)) if ok]
    ges = verify_ges(trace, *max(feasible, key=lambda ab: ab[1])).holds if feasible else None
    rule = check_update_rule(trace, sc.trigger.sigma, sc.dos, measure_robustness(trace.t[trace.attempt == 1], sc.dos))
    onsets = int(np.isin(sc.dos.onsets, trace.t).sum())  # jam onsets the run wrote a row at
    got = (len(trace), int(trace.attempt.sum()), int(trace.success.sum()), onsets, trace.diverged, ges, rule.holds)
    assert got == PINNED_BEHAVIOUR[name, logic, mode]
    assert trace.stats == dict(zip(_PINNED_STAT_KEYS, PINNED_STATS[name, logic, mode]))


@pytest.mark.parametrize("name,logic,mode", list(PINNED_BEHAVIOUR), ids=["-".join(key) for key in PINNED_BEHAVIOUR])
def test_the_chunk_bound_changes_no_byte(name, logic, mode, monkeypatch):
    # the record ticks between stops are filled in bulk products of whole
    # stretches, chunked by a bound on their padded rows; no row, flag or
    # counter depends on where the chunks split
    sc = scenario_from_dict(_shipped_doc(name, logic, mode), SCENARIOS)
    _at_both_chunk_bounds(sc.sim_config(), monkeypatch)


@pytest.mark.parametrize("x1", [2.0**-565, 1e-160], ids=["2^-565", "1e-160"])
def test_recorded_norms_are_never_under_estimated(x1):
    # Entries below about 1e-154 have subnormal squares, and below about
    # 1e-162 their squares vanish: sqrt(x . x) read 0 on every row from
    # [1e-170, 0], and ideal_event, which waits for ||e|| to reach
    # sigma ||x||, made one attempt in the run instead of 90.
    for logic in LogicKind:
        for mode in InputMode:
            _, trace = _shipped_run("double_integrator", logic.value, mode.value, x0=[x1, 0.0])
            held = [0.0, 0.0]
            rows = zip(trace.x.tolist(), trace.x_norm.tolist(), trace.e_norm.tolist(), trace.attempt, trace.success)
            for i, (x, x_norm, e_norm, att, suc) in enumerate(rows):
                for got, want in ((x_norm, math.hypot(*x)), (e_norm, math.hypot(*np.subtract(held, x)))):
                    assert abs(got - want) <= 4.0 * math.ulp(want), (logic, mode, i, got, want)
                if att and suc:
                    held = x


# 2^-k x0 in the test below: from norms whose squares overflow (k = -600)
# and past 1e12, once an absolute divergence bound, to norms whose squares
# underflow (k = 900).
_SCALES = (-600, -40, 1, 100, 300, 500, 900)


def _scaled_shipped_run(name, logic, mode, k, path, capsys):
    """The run from 2^-k x0, the verdicts on it, and simulate's exit code and report."""
    doc = _shipped_doc(name, logic, mode)
    doc["sim"]["x0"] = [math.ldexp(v, -k) for v in doc["sim"]["x0"]]
    sc = scenario_from_dict(doc, SCENARIOS)
    trace = run(sc.sim_config())
    bundle = certificates(sc)
    sigma, dos = sc.trigger.sigma, sc.dos
    measured = measure_robustness(trace.t[trace.attempt == 1], dos)
    feasible = [(a, b) for _, a, b, ok in _applicable_certificates(sc, bundle) if ok]
    segments = dos_free_segments(dos, measured, sc.horizon)
    got = {
        "certificate": verify_ges(trace, *max(feasible, key=lambda ab: ab[1])) if feasible else None,
        "false bound": verify_ges(trace, 1.5, 1.2),
        "update rule": check_update_rule(trace, sigma, dos, measured),
        "onsets": check_onset_amplification(trace, sigma, dos),
        "lyapunov": check_lyapunov_decay(trace, bundle.lyapunov.P, bundle.lyapunov.omega1, segments),
    }
    path.write_text(json.dumps(doc))
    got["exit code"] = main(["simulate", "--config", str(path), "--out", str(path.with_suffix(".csv"))])
    got["report"] = capsys.readouterr().out
    return trace, got


@pytest.mark.parametrize("name,logic,mode", list(PINNED_BEHAVIOUR), ids=["-".join(key) for key in PINNED_BEHAVIOUR])
def test_a_run_from_a_scaled_x0_is_that_run_scaled(name, logic, mode, tmp_path, capsys):
    # The update logics act on time and on ||e|| / ||x||, never on the size
    # of x, and the plant is linear: from 2^-k x0 every float of the run is
    # the unscaled one times 2^-k, exactly, while it stays a normal float,
    # so the times, flags, counters, verdicts and report are those of the
    # unscaled run. V = x' P x is quadratic, so check_lyapunov_decay forms
    # it from rows scaled by a power of two taken from ||x(0)||, which keeps
    # it a normal float at every k here.
    ref, want = _scaled_shipped_run(name, logic, mode, 0, tmp_path / "ref.json", capsys)
    for k in _SCALES:
        trace, got = _scaled_shipped_run(name, logic, mode, k, tmp_path / "scaled.json", capsys)
        assert (len(trace), trace.diverged, trace.stats) == (len(ref), ref.diverged, ref.stats), k
        for col in ("t", "jammed", "attempt", "success"):
            assert np.array_equal(getattr(trace, col), getattr(ref, col)), (k, col)
        for col in ("x", "u", "e_norm", "x_norm"):
            assert np.array_equal(getattr(trace, col), np.ldexp(getattr(ref, col), -k)), (k, col)
        for key, value in want.items():
            assert got[key] == value, (k, key)


_EVENT_CASES = [key for key in PINNED_BEHAVIOUR if key[1] in ("event_time", "ideal_event")]


@pytest.mark.parametrize("name,logic,mode", _EVENT_CASES, ids=["-".join(key) for key in _EVENT_CASES])
def test_crossing_search_costs_little_beyond_the_rows(name, logic, mode):
    # one search per stretch stepped while waiting, over the rows up to the
    # first with g >= 0: few hull tests each, and a few trials per crossing
    _, trace = _shipped_run(name, logic, mode)
    successes = int(trace.success.sum())
    stats = trace.stats
    assert stats["crossing_searches"] <= stats["blocks_stepped"]
    assert stats["cells_scanned"] <= len(trace)
    assert stats["hull_tests"] <= 2 * stats["crossing_searches"]
    assert stats["root_trials"] <= 5 * successes


@pytest.mark.parametrize("name,logic,mode", _EVENT_CASES, ids=["-".join(key) for key in _EVENT_CASES])
def test_run_searches_through_find_event_crossing(name, logic, mode, monkeypatch):
    # every search of the watch goes through the module's public name, so a
    # wrapper bound there (as the benchmark's tracer binds one) sees them all
    calls = 0
    original = dosloop.sim.find_event_crossing

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(dosloop.sim, "find_event_crossing", counting)
    _, trace = _shipped_run(name, logic, mode)
    assert 0 < calls == trace.stats["crossing_searches"]


@pytest.mark.parametrize("mode", ["hold_last", "zero_during_dos"])
def test_a_crossing_the_search_missed_is_an_attempt_at_the_next_stop(mode, monkeypatch):
    # A search that returns None over a stretch that crosses leaves the
    # next stretch to start past the threshold, where find_event_crossing
    # returns the start. run() takes it as the attempt: the run finishes,
    # and the stretch's end, the first stop where ||e|| >= sigma ||x||, is
    # the attempt, whose rows replace its tick's.
    missed, at_start = [], []
    original = dosloop.sim.find_event_crossing

    def missing_one(plant, x, x_held, sigma, t_from, t_max, *args, **kwargs):
        hit = original(plant, x, x_held, sigma, t_from, t_max, *args, **kwargs)
        if hit == t_from:
            at_start.append(t_from)
        if not missed and hit is not None and hit < t_max:
            missed.append((t_from, hit, t_max))
            return None
        return hit

    monkeypatch.setattr(dosloop.sim, "find_event_crossing", missing_one)
    sc, trace = _shipped_run("double_integrator", "event_time", mode)
    assert len(missed) == 1 and not trace.diverged
    t_from, crossing, t_max = missed[0]
    assert at_start == [t_max]
    attempts = trace.t[trace.attempt == 1]
    assert attempts[np.searchsorted(attempts, t_from, "right")] == t_max
    at = np.flatnonzero(trace.t == t_max)
    assert trace.attempt[at].tolist() == [1, 0] and trace.success[at].tolist() == [1, 0]
    assert trace.e_norm[at[0]] >= sc.trigger.sigma * trace.x_norm[at[0]]
    # the ticks between the crossing the search missed and the attempt have crossed too
    late = (crossing < trace.t) & (trace.t < t_max)
    assert late.any() and np.all(trace.e_norm[late] >= sc.trigger.sigma * trace.x_norm[late])


def test_an_error_inside_the_crossing_search_is_raised_by_run(monkeypatch):
    # run() takes no exception from the search as an attempt: a ValueError
    # from inside it (here from the first g form, once) leaves run(),
    # instead of becoming an attempt at the stretch's start
    original = dosloop.sim._g_form
    calls = 0

    def failing_once(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 1:
            raise ValueError("a fault inside the search")
        return original(*args, **kwargs)

    monkeypatch.setattr(dosloop.sim, "_g_form", failing_once)
    with pytest.raises(ValueError, match="a fault inside the search"):
        _shipped_run("double_integrator", "event_time", "hold_last")
    assert calls == 1


def _whole_window_crossing(plant, trace, seq, sigma, t_s, x_s):
    """find_event_crossing from a success at t_s over the rest of the run.

    With the input zeroed while jammed, the flow changes at every jam
    breakpoint, so the search restarts there from the recorded state (run()
    writes a row at each breakpoint) in that stretch's input mode.
    """
    zero_mode = plant.input_mode is InputMode.ZERO_DURING_DOS
    horizon = float(trace.t[-1])
    edges = sorted({float(b) for b in (*seq.onsets, *seq.ends) if t_s < b < horizon}) if zero_mode else []
    t_a, x_a = t_s, x_s
    for t_b in edges + [horizon]:
        zi = zero_mode and is_jammed(seq, t_a)
        w = 0.0 * x_s if zi else None
        hit = find_event_crossing(plant, x_a, x_s, sigma, t_a, t_b, trace.crossing_tol, applied=w)
        if hit is not None or t_b == horizon:
            return hit
        i = int(np.searchsorted(trace.t, t_b))
        assert trace.t[i] == t_b
        t_a, x_a = t_b, trace.x[i]


@pytest.mark.parametrize("mode", list(InputMode))
@pytest.mark.parametrize("logic", [LogicKind.EVENT_TIME, LogicKind.IDEAL_EVENT])
def test_watch_finds_the_crossing_a_whole_window_search_finds(logic, mode):
    # Every attempt that waits for a crossing (the one after a success, not
    # from rest) lies within crossing_tol of the search that run() never
    # makes: one find_event_crossing over the whole window from that
    # success. Both return a point in [t*, t* + crossing_tol) of the first
    # crossing t*; only an excursion above sigma shorter than crossing_tol,
    # which either may skip, could part them, and these runs have none.
    rng = np.random.default_rng(1600 + len(logic.value) + len(mode.value))
    checked = 0
    for k in range(3):
        base = random_stabilized_plant(rng)
        plant = LtiPlant(A=base.A, B=base.B, K=base.K, input_mode=mode)
        sigma = feasible_sigma(plant)
        trig = standard_trigger(plant, sigma)
        horizon = 30.0 * trig.delta2
        seq, budget, _ = budgeted_jam(k + 5, trig, tau_avg=5.0, horizon=horizon)
        trace = run(SimConfig(plant=plant, logic=logic, trigger=trig, dos=seq, budget=budget,
                              x0=rng.normal(size=plant.n), horizon=horizon, record_step=trig.delta1 / 4.0))
        tol = trace.crossing_tol
        success_rows = np.flatnonzero((trace.attempt == 1) & (trace.success == 1))
        x_at = {float(trace.t[i]): trace.x[i] for i in success_rows}
        att = trace.attempt == 1
        times = trace.t[att].tolist()
        for t_s, ok, t_next in zip(times, trace.success[att], times[1:] + [None]):
            if not (ok and x_at[t_s].any()):
                continue
            want = _whole_window_crossing(plant, trace, seq, sigma, t_s, x_at[t_s])
            if t_next is None:
                assert want is None or want > horizon - tol, (k, t_s, want)
            else:
                assert want is not None and abs(want - t_next) <= tol, (k, t_s, t_next, want)
            checked += 1
    assert checked >= 30


def test_trace_stats_count_blocks_and_are_reproducible():
    plant = random_stabilized_plant(np.random.default_rng(8))
    trig = standard_trigger(plant, feasible_sigma(plant))
    seq, budget, _ = budgeted_jam(5, trig, tau_avg=6.0, horizon=4.0)
    cfg = _config(plant, LogicKind.EVENT_TIME, trig, dos=seq, budget=budget, horizon=4.0)
    a, b = run(cfg), run(cfg)
    assert a.stats == b.stats
    assert set(a.stats) == {
        "blocks_stepped", "rows_emitted", "crossing_searches", "cells_scanned", "hull_tests", "root_trials",
        "taylor_steps", "expm_steps",
    }
    assert all(type(v) is int for v in a.stats.values())
    assert a.stats["rows_emitted"] == len(a)
    assert 0 < a.stats["blocks_stepped"] < len(a)
    # one search per stretch stepped while waiting for a crossing, over one
    # or more of its cells, one or more hull tests each, and trials of g
    # while refining each crossing found (the attempt after a success)
    assert 0 < a.stats["crossing_searches"] <= min(a.stats["blocks_stepped"], a.stats["cells_scanned"])
    assert a.stats["hull_tests"] >= a.stats["crossing_searches"]
    crossings = int(a.success[a.attempt == 1][:-1].sum())
    assert a.stats["root_trials"] >= 2 * crossings > 0
    # a crossing's state is its stretch's end, and every stretch lies within
    # the Taylor table's reach: no single step at all
    assert a.stats["taylor_steps"] == a.stats["expm_steps"] == 0
    periodic = run(_config(plant, LogicKind.PURE_TIME, trig, dos=seq, budget=budget, horizon=4.0))
    assert periodic.stats["crossing_searches"] == periodic.stats["cells_scanned"] == periodic.stats["hull_tests"] == 0
    # without a search every row comes from a stretch: no single step at all
    assert periodic.stats["blocks_stepped"] > 0 and periodic.stats["taylor_steps"] == periodic.stats["expm_steps"] == 0


def _rule_trace(t, ratio, x_norm, attempt, success):
    n = len(t)
    return Trace(
        t=t, x=x_norm[:, None], u=np.zeros((n, 1)), e_norm=ratio * x_norm, x_norm=x_norm,
        jammed=np.zeros(n, dtype=np.int8), attempt=attempt, success=success, diverged=False, crossing_tol=1e-9,
    )


def test_check_update_rule_matches_the_per_interval_loop():
    rng = np.random.default_rng(2024)
    sigma = 0.5
    dur = rng.uniform(0.01, 0.05, size=240)
    space = np.where(rng.random(240) < 0.2, 0.0, rng.uniform(0.0, 0.05, size=240))  # some intervals touch
    intervals, h = [], 0.1
    for d, gap in zip(dur.tolist(), space.tolist()):
        intervals.append((h, d))
        h = h + d + gap
    seq = DosSequence(tuple(intervals))
    # gaps up to 0.2 make inflated windows reach over several later ones
    gaps = rng.uniform(0.0, 0.2, size=240)
    rob = SamplingRobustness(delta_star=float(gaps.max()), tau_star=float(dur.min()),
                             delta_per_interval=tuple(gaps.tolist()))
    end = float(seq.ends[-1]) + 0.5
    # rows on every window edge, just inside and outside, plus random ones
    starts = seq.onsets - 1e-9
    reach = seq.ends + gaps + 1e-9
    t = np.sort(np.concatenate((
        rng.uniform(0.0, end, size=800), starts, reach, np.nextafter(starts, -1.0), np.nextafter(reach, -1.0),
    )))
    n = len(t)
    x_norm = rng.uniform(0.5, 2.0, size=n)
    attempt = (rng.random(n) < 0.1).astype(np.int8)
    success = attempt * (rng.random(n) < 0.5).astype(np.int8)
    verdicts = set()
    for draw in range(4):
        ratio = rng.uniform(0.0, 3.0 if draw % 2 else 1.0, size=n) * sigma
        for s, r in ((seq, rob), (DosSequence(()), SamplingRobustness(delta_star=0.1, tau_star=1.0))):
            trace = _rule_trace(t, ratio, x_norm, attempt, success)
            got = check_update_rule(trace, sigma, s, r)
            assert (got.holds, got.first_violation, got.worst) == update_rule_by_loop(trace, sigma, s, r)
            verdicts.add(got.holds)
    assert verdicts == {True, False}
    # one violating row at a time: holds says exactly whether that row is exempt
    calm = np.full(n, 0.5 * sigma)
    for i in rng.choice(n, size=300, replace=False):
        ratio = calm.copy()
        ratio[i] = 2.0 * sigma
        trace = _rule_trace(t, ratio, x_norm, attempt, success)
        got = check_update_rule(trace, sigma, seq, rob)
        assert (got.holds, got.first_violation, got.worst) == update_rule_by_loop(trace, sigma, seq, rob)


def test_sim_config_validation():
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    with pytest.raises(ValueError):
        SimConfig(plant=LINE, logic=LogicKind.PURE_TIME, trigger=trig, dos=NO_DOS,
                  budget=LOOSE, x0=np.ones(1), horizon=1.0, record_step=0.05)  # > delta1/4
    with pytest.raises(ValueError):
        SimConfig(plant=LINE, logic=LogicKind.PURE_TIME, trigger=trig, dos=NO_DOS,
                  budget=LOOSE, x0=np.ones(2), horizon=1.0, record_step=0.01)  # bad x0
    bad_budget = DosBudget(kappa=0.01, tau_avg=50.0)
    jam = DosSequence(((0.0, 1.0),))
    with pytest.raises(ValueError):
        SimConfig(plant=LINE, logic=LogicKind.PURE_TIME, trigger=trig, dos=jam,
                  budget=bad_budget, x0=np.ones(1), horizon=2.0, record_step=0.01)
    # delta2 beyond the Riccati bound is rejected for finite-rate logics
    wild = TriggerConfig(sigma=0.25, delta1=0.05, delta2=5.0)
    with pytest.raises(ValueError):
        SimConfig(plant=LINE, logic=LogicKind.EVENT_TIME, trigger=wild, dos=NO_DOS,
                  budget=LOOSE, x0=np.ones(1), horizon=1.0, record_step=0.0125)
    # ... but tolerated for the idealized logic, which never reads it
    SimConfig(plant=LINE, logic=LogicKind.IDEAL_EVENT, trigger=wild, dos=NO_DOS,
              budget=LOOSE, x0=np.ones(1), horizon=1.0, record_step=0.0125)
    # a crossing must be found within one record cell of its time
    for tol in (0.0125, 0.02):
        with pytest.raises(ValueError, match="crossing_tol"):
            SimConfig(plant=LINE, logic=LogicKind.EVENT_TIME, trigger=trig, dos=NO_DOS,
                      budget=LOOSE, x0=np.ones(1), horizon=1.0, record_step=0.0125, crossing_tol=tol)


def test_verify_ges_detects_violations():
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    trace = run(_config(LINE, LogicKind.PURE_TIME, trig, horizon=1.0))
    good = verify_ges(trace, alpha=2.0, beta=0.01)
    assert good.holds and good.first_violation is None
    bad = verify_ges(trace, alpha=1.0, beta=50.0)
    assert not bad.holds
    assert bad.first_violation is not None
    assert bad.worst > 1.0
    # no floor under the bound: the norms scaled by 2^-1000, where the bound
    # falls below 1e-300, give the same verdicts
    tiny = dataclasses.replace(trace, x_norm=np.ldexp(trace.x_norm, -1000))
    for alpha, beta in ((2.0, 0.01), (1.0, 2.0)):
        assert verify_ges(tiny, alpha, beta) == verify_ges(trace, alpha, beta)
    with pytest.raises(ValueError):
        verify_ges(trace, alpha=0.5, beta=0.1)


def test_check_update_rule_and_violation_detection():
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    trace = run(_config(LINE, LogicKind.EVENT_TIME, trig, horizon=1.0))
    rob = measure_robustness(trace.t[trace.attempt == 1], NO_DOS)
    ok = check_update_rule(trace, 0.25, NO_DOS, rob)
    assert ok.holds
    assert ok.worst <= 0.25 * (1.0 + 1e-6)
    # no floor under ||x||: the norms scaled by 2^-1000 give the same verdict
    tiny = dataclasses.replace(trace, e_norm=np.ldexp(trace.e_norm, -1000), x_norm=np.ldexp(trace.x_norm, -1000))
    assert check_update_rule(tiny, 0.25, NO_DOS, rob) == ok
    # the same trace cannot satisfy a much stricter threshold
    strict = check_update_rule(trace, 0.025, NO_DOS, rob)
    assert not strict.holds
    assert strict.first_violation is not None


@pytest.mark.parametrize("logic", [LogicKind.EVENT_TIME, LogicKind.IDEAL_EVENT])
def test_a_run_from_zero_stays_there_and_every_ratio_reads_zero(logic):
    # No x is too small to wait for a crossing, but x = 0 has none to wait
    # for: event_time retries every delta1, ideal_event stays put after its
    # first success. Every ratio is 0 / 0 there, which reads 0.
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    seq = DosSequence(((0.3, 0.2),))
    trace = run(_config(LINE, logic, trig, dos=seq, x0=[0.0], horizon=1.0))
    assert not trace.x.any() and not trace.diverged
    attempts = trace.t[trace.attempt == 1]
    if logic is LogicKind.EVENT_TIME:
        assert len(attempts) == 20 and np.allclose(np.diff(attempts), trig.delta1)
    else:
        assert attempts.tolist() == [0.0]
    ges = verify_ges(trace, alpha=1.0, beta=1.0)
    assert (ges.holds, ges.worst) == (True, 0.0)
    rule = check_update_rule(trace, trig.sigma, seq, measure_robustness(attempts, seq))
    assert (rule.holds, rule.worst) == (True, 0.0)
    assert check_onset_amplification(trace, trig.sigma, seq) == Verdict(True, None, 0.0)


def test_check_update_rule_exempts_jam_windows():
    plant = random_stabilized_plant(np.random.default_rng(3))
    sigma = feasible_sigma(plant)
    trig = standard_trigger(plant, sigma)
    seq, budget, _ = budgeted_jam(11, trig, tau_avg=5.0, horizon=3.0)
    trace = run(_config(plant, LogicKind.PURE_TIME, trig, dos=seq, budget=budget, horizon=3.0))
    rob = measure_robustness(trace.t[trace.attempt == 1], seq)
    verdict = check_update_rule(trace, sigma, seq, rob)
    assert verdict.holds, verdict
    onsets = check_onset_amplification(trace, sigma, seq)
    assert onsets.holds
    assert onsets.worst <= 1.0 + 1e-9


def test_check_lyapunov_decay_on_quiet_segments():
    plant = LtiPlant(A=np.array([[1.0]]), B=np.array([[1.0]]), K=np.array([[-2.0]]))
    sigma = 0.25
    trig = standard_trigger(plant, sigma)
    trace = run(_config(plant, LogicKind.EVENT_TIME, trig, horizon=2.0))
    cert = ges_certificate_lyapunov(plant, np.array([[2.0]]), sigma, 0.0, 100.0)
    segments = dos_free_segments(NO_DOS, measure_robustness(trace.t[trace.attempt == 1], NO_DOS), 2.0)
    decay = check_lyapunov_decay(trace, cert.P, cert.omega1, segments)
    assert decay.holds, decay.worst
    # an impossible decay rate must be caught
    bad = check_lyapunov_decay(trace, cert.P, 50.0 * cert.omega1, segments)
    assert not bad.holds


def test_every_check_fails_a_nan_row_at_its_time():
    # run() can write such a row (a diverged run's last); here no window
    # exempts it, and a row passes a check only if its value is <= its bound
    t = np.array([0.0, 0.0, 0.1, 0.2])
    x = np.array([1.0, 1.0, 0.9, np.nan])
    attempt = np.array([1, 0, 0, 0], dtype=np.int8)
    trace = _rule_trace(t, np.full(4, 0.1), x, attempt, attempt.copy())
    verdicts = (
        verify_ges(trace, 2.0, 0.0),
        check_update_rule(trace, 0.25, NO_DOS, measure_robustness(t[attempt == 1], NO_DOS)),
        check_onset_amplification(trace, 0.25, DosSequence(((0.2, 0.1),))),
        check_lyapunov_decay(trace, np.eye(1), 1.0, [(0.0, 0.2)]),
    )
    for verdict in verdicts:
        assert not verdict.holds and verdict.first_violation == 0.2 and math.isnan(verdict.worst), verdict


def test_a_check_with_no_row_to_check_holds_with_worst_zero():
    t = np.array([0.0, 0.5, 1.0])
    no_attempt = np.zeros(3, dtype=np.int8)
    trace = _rule_trace(t, np.full(3, 0.5), np.ones(3), no_attempt, no_attempt.copy())
    covering = DosSequence(((0.0, 2.0),))  # exempts every row from the update rule
    empty = Verdict(True, None, 0.0)
    assert check_update_rule(trace, 0.25, covering, measure_robustness(t[:0], covering)) == empty
    assert check_onset_amplification(trace, 0.25, NO_DOS) == empty
    assert check_lyapunov_decay(trace, np.eye(1), 1.0, []) == empty


def test_onset_and_lyapunov_checks_report_their_first_violation():
    # the stale held sample of test_onset_check_fails_a_stale_held_sample_at_a_fresh_onset
    t = np.array([0.0, 0.0, 0.2, 0.5, 0.75, 1.0])
    x = np.array([1.0, 1.0, 0.9, 0.6, 0.55, 0.5])
    attempt = np.array([1, 0, 0, 0, 0, 0], dtype=np.int8)
    trace = _rule_trace(t, np.zeros(6), x, attempt, attempt.copy())
    seq = DosSequence(((0.2, 0.3), (0.5, 0.2), (1.0, 0.1)))
    assert check_onset_amplification(trace, 0.25, seq) == Verdict(False, 1.0, 1.6)
    # the impossible decay rate of test_check_lyapunov_decay_on_quiet_segments
    plant = LtiPlant(A=np.array([[1.0]]), B=np.array([[1.0]]), K=np.array([[-2.0]]))
    trace = run(_config(plant, LogicKind.EVENT_TIME, standard_trigger(plant, 0.25), horizon=2.0))
    cert = ges_certificate_lyapunov(plant, np.array([[2.0]]), 0.25, 0.0, 100.0)
    segments = dos_free_segments(NO_DOS, measure_robustness(trace.t[trace.attempt == 1], NO_DOS), 2.0)
    assert segments == [(0.0, 2.0)]
    bad = check_lyapunov_decay(trace, cert.P, 50.0 * cert.omega1, segments)
    # V = P x^2 on the one segment: the first row past its decay bound
    V = cert.P[0, 0] * trace.x[:, 0] ** 2
    over = np.flatnonzero(V > V[0] * np.exp(-50.0 * cert.omega1 * trace.t) * (1.0 + 1e-6))
    assert over.size and bad.first_violation == trace.t[over[0]] > 0.0


def test_to_csv_round_trip(tmp_path):
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    seq = DosSequence(((0.3, 0.2),))
    budget = DosBudget(kappa=0.25, tau_avg=3.0)
    trace = run(_config(LINE, LogicKind.PURE_TIME, trig, dos=seq, budget=budget, horizon=1.0))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "u1", "e_norm", "x_norm", "jammed", "attempt", "success"]
    assert len(rows) - 1 == len(trace)
    for i in (0, 1, len(trace) // 2, len(trace) - 1):
        got = rows[1 + i]
        assert float(got[0]) == trace.t[i]
        assert float(got[1]) == trace.x[i, 0]
        assert float(got[2]) == trace.u[i, 0]
        assert float(got[3]) == trace.e_norm[i]
        assert float(got[4]) == trace.x_norm[i]
        assert int(got[5]) == trace.jammed[i]
    # breakpoint rows exist at the jam onset and end
    assert 0.3 in trace.t
    assert 0.5 in trace.t


def _reference_csv(trace) -> bytes:
    """The trace written cell by cell through csv.writer, as Trace.to_csv once did."""
    n, m = trace.x.shape[1], trace.u.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{j + 1}" for j in range(m)]
        + ["e_norm", "x_norm", "jammed", "attempt", "success"]
    )
    for i in range(len(trace)):
        row = [f"{trace.t[i]:.17g}"]
        row += [f"{v:.17g}" for v in trace.x[i]]
        row += [f"{v:.17g}" for v in trace.u[i]]
        row += [f"{trace.e_norm[i]:.17g}", f"{trace.x_norm[i]:.17g}"]
        row += [str(int(trace.jammed[i])), str(int(trace.attempt[i])), str(int(trace.success[i]))]
        writer.writerow(row)
    return buf.getvalue().encode()


def _diverged_run():
    """A run that diverges while jammed; its last row is NaN."""
    return run(SimConfig(
        plant=LtiPlant(A=np.array([[50.0]]), B=np.array([[1.0]]), K=np.array([[-60.0]])),
        logic=LogicKind.IDEAL_EVENT, trigger=TriggerConfig(sigma=0.1, delta1=100.0, delta2=100.0),
        dos=DosSequence(((1.0, 30.0),)), budget=DosBudget(kappa=40.0, tau_avg=2.0),
        x0=np.array([1.0]), horizon=200.0, record_step=25.0,
    ))


def _csv_block_rows(trace):
    """Rows per block that Trace.to_csv formats and writes at once."""
    return _CSV_BLOCK_CELLS // (trace.x.shape[1] + trace.u.shape[1] + 3)


def test_to_csv_bytes_match_a_csv_writer_reference(tmp_path):
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    # successful attempts, so pre/post row pairs at one timestamp
    paired = run(_config(LINE, LogicKind.PURE_TIME, trig, horizon=1.0))
    assert np.any((paired.success == 1) & (np.diff(paired.t, append=np.inf) == 0.0))
    # two touching jam intervals, two state columns (one of them -0 at t = 0),
    # and enough rows to span several write blocks
    plant = LtiPlant(A=np.array([[0.0, 1.0], [-1.0, -1.0]]), B=np.eye(2), K=-np.eye(2),
                     input_mode=InputMode.ZERO_DURING_DOS)
    slow = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.09)
    touching = run(_config(plant, LogicKind.EVENT_TIME, slow, dos=DosSequence(((0.3, 0.2), (0.5, 0.1))),
                           budget=DosBudget(kappa=0.35, tau_avg=4.0), x0=[1.0, -0.0], horizon=30.0))
    assert len(touching) > 2 * _csv_block_rows(touching)
    diverged = _diverged_run()
    assert diverged.diverged and np.isnan(diverged.x_norm[-1])
    for name, trace in (("paired", paired), ("touching", touching), ("diverged", diverged)):
        path = tmp_path / f"{name}.csv"
        trace.to_csv(path)
        assert path.read_bytes() == _reference_csv(trace), name
    # the traces do exercise the spellings the byte check pins
    assert b",-0," in (tmp_path / "touching.csv").read_bytes()
    assert b",nan," in (tmp_path / "diverged.csv").read_bytes()
    assert (tmp_path / "paired.csv").read_bytes().endswith(b"\r\n")


@pytest.mark.parametrize("case", [*("-".join(key) for key in PINNED_BEHAVIOUR), "diverged", "signed_zero_and_nan_u"])
def test_to_csv_bytes_match_the_per_row_writer(case, tmp_path):
    if case == "diverged":
        trace = _diverged_run()
    elif case == "signed_zero_and_nan_u":
        # runs of u differing only in the sign of zero or in a NaN payload must
        # keep their own text: -0 is not 0, and a run break must not be missed
        _, base = _shipped_run("double_integrator", "pure_time", "zero_during_dos")
        u = base.u.copy()
        u[::7] = -0.0
        u[1::7] = 0.0
        u[4::11] = np.nan
        u[5::11] = -np.nan
        trace = dataclasses.replace(base, u=u)
        assert len(trace) > 2 * _csv_block_rows(trace)
    else:
        trace = _shipped_run(*case.split("-"))[1]
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == csv_by_row(trace)
    if case == "signed_zero_and_nan_u":
        text = path.read_bytes().decode()
        cells = [row.split(",")[3] for row in text.splitlines()[1:]]
        assert cells[:2] == ["-0", "0"] and cells[4:6] == ["nan", "nan"]


@pytest.mark.parametrize("mode", list(InputMode))
@pytest.mark.parametrize("logic", list(LogicKind))
def test_jam_column_and_attempts_match_is_jammed(logic, mode):
    # one interval from t = 0, then two that touch at t = 0.5
    seq = DosSequence(((0.0, 0.1), (0.3, 0.2), (0.5, 0.1)))
    plant = LtiPlant(A=LINE.A, B=LINE.B, K=LINE.K, input_mode=mode)
    trig = TriggerConfig(sigma=0.25, delta1=0.05, delta2=0.19)
    trace = run(_config(plant, logic, trig, dos=seq, budget=DosBudget(kappa=0.45, tau_avg=4.0), horizon=1.2))
    att = np.flatnonzero(trace.attempt)
    assert 0.5 in trace.t and trace.t[att[0]] == 0.0 and not trace.success[att[0]]
    for i in range(len(trace)):
        assert trace.jammed[i] == is_jammed(seq, float(trace.t[i])), trace.t[i]
    for i in att:
        assert trace.success[i] == (not is_jammed(seq, float(trace.t[i]))), trace.t[i]
    # u is K x_held, or zero while jammed under zero_during_dos, where (A = 0)
    # the state then stays put until the next row
    held = np.zeros(plant.n)
    for i in range(len(trace)):
        zeroed = mode is InputMode.ZERO_DURING_DOS and trace.jammed[i]
        assert np.array_equal(trace.u[i], np.zeros(plant.m) if zeroed else plant.K @ held), trace.t[i]
        if zeroed and i + 1 < len(trace):
            assert np.array_equal(trace.x[i + 1], trace.x[i]), trace.t[i]
        if trace.attempt[i] and trace.success[i]:
            held = trace.x[i]


def _touching_onsets_run(logic, mode):
    """A = 0, B = 1, K = -1, sigma 0.3, delta1 0.05, delta2 0.19, jammed on three intervals.

    Onsets: at t = 0 (the held sample is still zero), at a success t_a of
    the run jammed only from t = 0 (the same run up to there, so an attempt
    falls on the onset and now fails), and at t_a + 0.1, where the interval
    before it ends. The event logics cross 0.3 / 1.3 after a success, off
    the record grid (delta1 / 4), so their crossings are found by the
    search, not read off a row.
    """
    plant = LtiPlant(A=LINE.A, B=LINE.B, K=LINE.K, input_mode=mode)
    trig = TriggerConfig(sigma=0.3, delta1=0.05, delta2=0.19)
    budget = DosBudget(kappa=0.45, tau_avg=4.0)
    first = DosSequence(((0.0, 0.1),))
    probe = run(_config(plant, logic, trig, dos=first, budget=budget, horizon=1.2))
    t_a = float(probe.t[(probe.success == 1) & (probe.t > 0.3)][0])
    seq = DosSequence(((0.0, 0.1), (t_a, 0.1), (t_a + 0.1, 0.1)))
    assert seq.ends[1] == seq.onsets[2]
    trace = run(_config(plant, logic, trig, dos=seq, budget=budget, horizon=1.2))
    assert np.any((trace.attempt == 1) & (trace.t == t_a) & (trace.success == 0))
    return trig, seq, trace


@pytest.mark.parametrize("mode", list(InputMode))
@pytest.mark.parametrize("logic", list(LogicKind))
def test_onset_amplification_matches_a_per_row_walk(logic, mode):
    # The check reads each onset's held sample from the columns; the walk
    # carries it along the rows.
    trig, seq, trace = _touching_onsets_run(logic, mode)
    _, _, seen = onset_amplification_by_walk(trace, trig.sigma, seq)
    assert [h for h, _, _ in seen] == seq.onsets[:2].tolist()
    assert seen[0][1] == 0.0 and seen[1][1] > 0.0
    for sigma in (trig.sigma, 0.1, 4.0):
        ok, worst, _ = onset_amplification_by_walk(trace, sigma, seq)
        got = check_onset_amplification(trace, sigma, seq)
        assert (got.holds, got.worst) == (ok, worst)
        assert worst > 0.0 and (ok or sigma == 0.1)


@pytest.mark.parametrize("mode", list(InputMode))
@pytest.mark.parametrize("logic", list(LogicKind))
def test_onset_check_skips_touching_onsets_and_allows_a_late_crossing(logic, mode, monkeypatch):
    # Jammed since t_a, the loop reaches the touching onset t_a + 0.1 with
    # the sample held since before t_a: read as a fresh onset, its ratio was
    # 1.083-1.149 with the input held. It continues the period that began at
    # t_a and is not checked. At t_a the event logics attempted at a
    # crossing found late, as the search's contract allows (up to
    # crossing_tol), so the ratio there exceeds 1 by about crossing_tol
    # (1 + sigma), past the 1e-9 slack but within the crossing_tol
    # allowance. The search finds these crossings within a few ulps, so it
    # is wrapped to return each one on the next multiple of crossing_tol / 8
    # at least 7 crossing_tol / 8 later (the same time in both runs of the
    # helper, whose windows differ).
    search = dosloop.sim.find_event_crossing

    def late(plant, x, x_held, sigma, t_from, t_max, crossing_tol, **kwargs):
        hit = search(plant, x, x_held, sigma, t_from, t_max, crossing_tol, **kwargs)
        if hit is None:
            return None
        step = crossing_tol / 8.0
        return min(math.ceil((hit + 7.0 * step) / step) * step, t_max)

    monkeypatch.setattr(dosloop.sim, "find_event_crossing", late)
    trig, seq, trace = _touching_onsets_run(logic, mode)
    onsets = check_onset_amplification(trace, trig.sigma, seq)
    assert onsets.holds and onsets.worst < 1.0 + 2e-9, onsets.worst
    if logic in (LogicKind.EVENT_TIME, LogicKind.IDEAL_EVENT):
        assert onsets.worst > 1.0 + 1e-9, onsets.worst


def test_onset_check_fails_a_stale_held_sample_at_a_fresh_onset():
    # One success at t = 0 holds x = 1. The interval from 0.5 touches the
    # one that ends there and is skipped; the one from 1.0 starts a new
    # jamming period with ||x|| = 0.5: 1 / (1.25 * 0.5) = 1.6.
    t = np.array([0.0, 0.0, 0.2, 0.5, 0.75, 1.0])
    x = np.array([1.0, 1.0, 0.9, 0.6, 0.55, 0.5])
    attempt = np.array([1, 0, 0, 0, 0, 0], dtype=np.int8)
    trace = _rule_trace(t, np.zeros(6), x, attempt, attempt.copy())
    seq = DosSequence(((0.2, 0.3), (0.5, 0.2), (1.0, 0.1)))
    assert seq.ends[0] == seq.onsets[1] and seq.ends[1] != seq.onsets[2]
    ok, worst, seen = onset_amplification_by_walk(trace, 0.25, seq)
    assert [h for h, _, _ in seen] == [0.2, 1.0]
    got = check_onset_amplification(trace, 0.25, seq)
    assert (got.holds, got.worst) == (ok, worst) == (False, 1.6)


@pytest.mark.parametrize("mode", list(InputMode))
def test_onset_amplification_skips_the_onset_a_diverged_run_stopped_at(mode):
    # A success at t = 0, then jammed from 2^-8 on, before the first
    # crossing: the state grows like e^{50 t} and overflows (to NaN with the
    # input held, which an onset check would read as an infinite ratio) on
    # the one step to t = 20, where one interval ends as the next begins.
    # The run stopped there without handling that onset.
    plant = LtiPlant(A=np.array([[50.0]]), B=np.array([[1.0]]), K=np.array([[-60.0]]), input_mode=mode)
    trig = TriggerConfig(sigma=0.1, delta1=100.0, delta2=100.0)
    seq = DosSequence(((2.0**-8, 20.0 - 2.0**-8), (20.0, 0.1)))
    trace = run(SimConfig(plant=plant, logic=LogicKind.IDEAL_EVENT, trigger=trig, dos=seq,
                          budget=DosBudget(kappa=11.0, tau_avg=2.0), x0=np.ones(1), horizon=200.0, record_step=25.0))
    assert trace.diverged and trace.t[-1] == 20.0 and not trace.x_norm[-1] <= 1e12
    ok, worst, seen = onset_amplification_by_walk(trace, trig.sigma, seq)
    assert [(h, held) for h, held, _ in seen] == [(2.0**-8, 1.0)]
    got = check_onset_amplification(trace, trig.sigma, seq)
    assert (got.holds, got.worst) == (ok, worst)
    assert ok and 0.9 < worst < 1.0


@pytest.mark.parametrize("logic", list(LogicKind))
@pytest.mark.parametrize("n", [2, 4])
def test_certificates_hold_against_a_greedy_fixed_point_adversary(n, logic):
    # The jammer jams the loop's own attempt times as far as its budget
    # allows (gen_greedy_adversary), the loop is run again against that
    # sequence, and so on for at most 3 rounds or until the jammed attempts
    # stop changing. Every jammed run keeps each certificate that applies to
    # its logic and the inequalities that support it. The budget's tau is
    # 1.35 times the largest tau_min of the three routes (the sampled one at
    # the worst-case inflation), so every route is certified.
    base = random_stabilized_plant(np.random.default_rng(1500 + n), n=n)
    sigma = feasible_sigma(base, 0.5)
    trig = standard_trigger(base, sigma)
    min_duration = 5.0 * trig.delta1
    rounds = 0
    for mode in InputMode:
        plant = LtiPlant(A=base.A, B=base.B, K=base.K, input_mode=mode)
        sc = Scenario(plant=plant, logic=logic, trigger=trig, dos=DosSequence(((0.0, min_duration),)),
                      budget=DosBudget(kappa=min_duration, tau_avg=2.0), x0=np.ones(n), horizon=1.0,
                      record_step=trig.delta1 / 4.0, crossing_tol=1e-9, Q=np.eye(n), delta2_was_computed=False)
        bundle = certificates(sc)
        tau = 1.35 * max(bundle.sampled.tau_min, bundle.ideal.tau_min, bundle.lyapunov.tau_min)
        budget = DosBudget(kappa=3.0 * min_duration, tau_avg=tau)
        horizon = 8.0 * tau * min_duration
        sc = dataclasses.replace(sc, dos=NO_DOS, budget=budget, horizon=horizon)
        trace = run(sc.sim_config())
        for _ in range(3):
            seq = gen_greedy_adversary(budget, min_duration, trace.t[trace.attempt == 1].tolist())
            if seq.intervals == sc.dos.intervals:
                break
            assert len(seq) >= 3
            sc = dataclasses.replace(sc, dos=seq)
            trace = run(sc.sim_config())  # checks the budget
            rounds += 1
            assert not trace.diverged
            bundle = certificates(sc)
            routes = [(a, b) for _, a, b, ok in _applicable_certificates(sc, bundle) if ok]
            assert routes
            for alpha, beta in routes:
                assert verify_ges(trace, alpha, beta).holds
            measured = measure_robustness(trace.t[trace.attempt == 1], seq)
            assert check_update_rule(trace, sigma, seq, measured).holds
            xi, xi_bar = xi_measure(seq, horizon), xi_bar_measure(seq, measured, horizon)
            assert xi_bar <= xi * measured.inflation * (1.0 + 1e-9)
            assert check_onset_amplification(trace, sigma, seq).holds
    assert rounds >= 2
