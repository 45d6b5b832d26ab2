"""Relations between runs: a sign flip of the state's coordinates, the unit of time, and the scale of Q."""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dosloop import DosBudget, GenerationError, gen_greedy_adversary, gen_random_budgeted, run
from dosloop.cli import main, scenario_from_dict
from conftest import budgeted_jam, feasible_sigma, random_stabilized_plant, standard_trigger

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
LOGICS = ("event_time", "pure_time", "self_trigger", "ideal_event")
MODES = ("hold_last", "zero_during_dos")
_COLUMNS = ("t", "x", "u", "e_norm", "x_norm", "jammed", "attempt", "success")


def _shipped(name: str, logic: str, mode: str) -> dict:
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["trigger"]["kind"], doc["plant"]["input_mode"] = logic, mode
    return doc


def _run(doc: dict):
    return run(scenario_from_dict(doc, SCENARIOS).sim_config())


def _analyze(doc: dict, path: Path, capsys) -> str:
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) in (0, 2)
    return capsys.readouterr().out


def _flipped(doc: dict, d: np.ndarray) -> dict:
    """The plant (D A D, D B, K D) from D x0, D = diag(d) with entries +-1."""
    out = json.loads(json.dumps(doc))
    plant = out["plant"]
    plant["A"] = (d[:, None] * np.array(plant["A"]) * d).tolist()
    plant["B"] = (d[:, None] * np.array(plant["B"])).tolist()
    plant["K"] = (np.array(plant["K"]) * d).tolist()
    out["sim"]["x0"] = (d * np.array(out["sim"]["x0"])).tolist()
    return out


def _assert_flipped(trace, ref, d: np.ndarray) -> None:
    assert (len(trace), trace.diverged, trace.stats) == (len(ref), ref.diverged, ref.stats)
    for col in _COLUMNS:
        want = getattr(ref, col) * d if col == "x" else getattr(ref, col)
        assert np.array_equal(getattr(trace, col), want), col


def _seeded_doc(rng: np.random.Generator, n: int, mode: str) -> dict:
    """An event_time scenario on a seeded LQR plant of size n, jammed by a budgeted sequence."""
    plant = random_stabilized_plant(rng, n=n)
    trig = standard_trigger(plant, feasible_sigma(plant))
    horizon = 12.0 * trig.delta2
    seq, budget, _ = budgeted_jam(int(rng.integers(1_000)), trig, tau_avg=5.0, horizon=horizon)
    return {
        "plant": {"A": plant.A.tolist(), "B": plant.B.tolist(), "K": plant.K.tolist(), "input_mode": mode},
        "trigger": {"kind": "event_time", "sigma": trig.sigma, "delta1": trig.delta1, "delta2": trig.delta2},
        "dos": {"intervals": [[h, dur] for h, dur in seq.intervals]},
        "budget": {"kappa": budget.kappa, "tau": budget.tau_avg},
        "sim": {"x0": rng.normal(size=n).tolist(), "horizon": horizon, "record_step": trig.delta1 / 4.0},
    }


def test_a_sign_flip_of_the_coordinates_flips_the_run_bit_for_bit(tmp_path, capsys):
    # With D = diag(+-1), the plant (D A D, D B, K D) started from D x0 is
    # the same loop in coordinates with flipped signs: x comes out as D x
    # bit for bit, and u, both norms, the flags, Trace.stats and every
    # analyze line are those of the original. Every product and sum of the
    # run (the Taylor table, the stretches, the norms and the Gram products
    # the crossing search decides on) treats each coordinate alike, so any
    # code that treated one sign unevenly would break this.
    path = tmp_path / "case.json"
    for logic, mode in product(LOGICS, MODES):
        doc = _shipped("double_integrator", logic, mode)
        ref, report = _run(doc), _analyze(doc, path, capsys)
        for d in ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
            flipped = _flipped(doc, np.array(d))
            _assert_flipped(_run(flipped), ref, np.array(d))
            assert _analyze(flipped, path, capsys) == report, (logic, mode, d)
    rng = np.random.default_rng(2610)
    crossings = 0
    for n, mode in product((2, 4, 8), MODES):
        doc = _seeded_doc(rng, n, mode)
        ref, report = _run(doc), _analyze(doc, path, capsys)
        d = rng.choice((-1.0, 1.0), size=n)
        d[0] = -1.0
        flipped = _flipped(doc, d)
        _assert_flipped(_run(flipped), ref, d)
        assert _analyze(flipped, path, capsys) == report, (n, mode)
        crossings += int(ref.success[1:].sum())  # successes after the one at t = 0
    assert crossings > 0


def _rescaled(doc: dict, k: int) -> dict:
    """The scenario on a time scale 2^k faster: A and B times 2^k, every time, kappa and crossing_tol times 2^-k."""
    out = json.loads(json.dumps(doc))
    for key in ("A", "B"):
        out["plant"][key] = [[math.ldexp(v, k) for v in row] for row in out["plant"][key]]
    times = [("trigger", "delta1"), ("trigger", "delta2"), ("budget", "kappa"), ("sim", "horizon"),
             ("sim", "record_step")]
    for sec, key in times:
        if out[sec][key] is not None:
            out[sec][key] = math.ldexp(out[sec][key], -k)
    out["sim"]["crossing_tol"] = math.ldexp(out["sim"].get("crossing_tol", 1e-9), -k)
    dos = out["dos"]
    if "intervals" in dos:
        dos["intervals"] = [[math.ldexp(h, -k), math.ldexp(d, -k)] for h, d in dos["intervals"]]
    else:
        gen = dos["generator"]
        for key in ("onset", "period", "min_duration", "min_gap"):
            if key in gen:
                gen[key] = math.ldexp(gen[key], -k)
    return out


@pytest.mark.parametrize("name", ["scalar", "double_integrator"])
def test_a_run_on_a_faster_time_scale_is_that_run_rescaled(name):
    # Nothing in a run depends on the unit of time: with the rates times
    # 2^k and every time times 2^-k, the Taylor table, the offsets' powers,
    # the crossing search's polynomial in u and its tolerance in u are the
    # same floats, so t comes out as the original times 2^-k bit for bit,
    # and x, u, both norms, the flags and Trace.stats are equal.
    for logic, mode in product(LOGICS, MODES):
        doc = _shipped(name, logic, mode)
        ref = _run(doc)
        for k in (-60, -20, -4, 1, 20, 60):
            trace = _run(_rescaled(doc, k))
            assert (len(trace), trace.diverged, trace.stats) == (len(ref), ref.diverged, ref.stats), (logic, mode, k)
            assert np.array_equal(trace.t, np.ldexp(ref.t, -k)), (logic, mode, k)
            for col in _COLUMNS[1:]:
                assert np.array_equal(getattr(trace, col), getattr(ref, col)), (logic, mode, k, col)


# analyze lines that are rates (scale with 2^k) and times (scale with 2^-k);
# every other line is dimensionless or a flag and must not move
_RATES = {"lam", "rho", "bk_norm", "rho_star", "sigma_margin", "beta_ideal", "beta_sampled", "beta_lyapunov",
          "omega1_lyap", "omega2_lyap"}
_TIMES = {"delta1", "delta2", "delta2_bound", "kappa", "delta_star_wc", "tau_star_wc", "alpha1_lyap", "alpha2_lyap"}


_KS = (-60, -44, -40, -20, -4, 1, 20, 60)


def _report_lines(report: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in report.splitlines())


@pytest.mark.parametrize("k", _KS)
@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("name", ["scalar", "double_integrator"])
def test_analyze_on_a_faster_time_scale_is_that_report_rescaled(name, logic, k, tmp_path, capsys):
    # The certificates do not depend on the unit of time either: each rate
    # comes out exactly 2^k times the original, each time 2^-k times it, and
    # every dimensionless value and flag is equal. At k = -44 an absolute
    # floor on the rate once made rho_star 0.22 times its scaled value, and
    # the report still said feasible_ideal = true.
    path = tmp_path / "case.json"
    doc = _shipped(name, logic, "hold_last")
    ref = _report_lines(_analyze(doc, path, capsys))
    got = _report_lines(_analyze(_rescaled(doc, k), path, capsys))
    assert _RATES | _TIMES <= ref.keys()
    assert got.keys() == ref.keys()
    for key, text in ref.items():
        if key in _RATES or key in _TIMES:
            want = math.ldexp(float(text), k if key in _RATES else -k)
            assert float(got[key]) == want, (key, got[key], want)
        else:
            assert got[key] == text, key


def _simulate(doc: dict, path: Path, capsys) -> tuple[int, dict[str, str]]:
    """The exit code and report lines of simulate on the scenario doc."""
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--out", str(path.with_suffix(".csv"))])
    return code, _report_lines(capsys.readouterr().out)


# simulate lines that are times (scale with 2^-k) and rates (2^k), first violations among the times
_SIM_TIMES = {"delta_star_measured", "tau_star_measured", "xi_horizon", "xi_bar_horizon"}
_SIM_RATES = {"beta"}


def _assert_simulate_rescaled(doc: dict, ks, path: Path, capsys) -> None:
    """simulate at each time scale k reports the original lines, each time 2^-k and each rate 2^k times it."""
    ref_code, ref = _simulate(doc, path, capsys)
    assert ref_code in (0, 3) and _SIM_TIMES <= ref.keys()
    for k in ks:
        code, got = _simulate(_rescaled(doc, k), path, capsys)
        assert (code, got.keys()) == (ref_code, ref.keys()), k
        for key, text in ref.items():
            if key in _SIM_TIMES or key in _SIM_RATES or key.endswith("_first_violation"):
                want = math.ldexp(float(text), k if key in _SIM_RATES else -k)
                assert float(got[key]) == want, (k, key, got[key], want)
            else:
                assert got[key] == text, (k, key)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("name", ["scalar", "double_integrator"])
def test_simulate_on_a_faster_time_scale_is_that_report_rescaled(name, logic, mode, tmp_path, capsys):
    # The simulate report follows its trace: each measured time, the jammed
    # times and any first violation come out exactly 2^-k times the
    # original, the certificate's rate 2^k times it, and every other line
    # (the verdicts, the named certificate, alpha, the worst values) and the
    # exit code are equal.
    _assert_simulate_rescaled(_shipped(name, logic, mode), _KS, tmp_path / "case.json", capsys)


def _randomly_jammed(name: str, logic: str) -> dict:
    """The shipped scenario jammed by the random generator: min_duration 5 delta1, min_gap 2 delta1, seed 3.

    kappa is 0 on the scalar plant, where the budget puts every onset on its
    line. The double integrator keeps its kappa = 0.1: at tau = 550 a
    budget of t / tau leaves no room for a 5 delta1 interval before the
    horizon, and its one interval starts where the exponential gap puts it.
    """
    doc = _shipped(name, logic, "hold_last")
    delta1 = doc["trigger"]["delta1"]
    doc["dos"] = {"generator": {"kind": "random", "seed": 3, "min_duration": 5.0 * delta1, "min_gap": 2.0 * delta1}}
    if name == "scalar":
        doc["budget"]["kappa"] = 0.0
    return doc


@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("name", ["scalar", "double_integrator"])
def test_simulate_with_generated_jamming_on_a_faster_time_scale_is_that_report_rescaled(name, logic, tmp_path,
                                                                                        capsys):
    # The jam sequence comes from gen_random_budgeted, whose onsets the
    # budget constrains. An absolute nudge past the budget line once moved
    # those onsets by more than their scaled values and broke the relation,
    # from k = -4 on.
    doc = _randomly_jammed(name, logic)
    assert len(scenario_from_dict(doc, SCENARIOS).dos) == (3 if name == "scalar" else 1)
    _assert_simulate_rescaled(doc, (-60, -40, -4, 20, 40, 60), tmp_path / "case.json", capsys)


def _scaled_budget(budget: DosBudget, k: int) -> DosBudget:
    return DosBudget(kappa=math.ldexp(budget.kappa, -k), tau_avg=budget.tau_avg)


def _scaled(intervals, k: int) -> tuple[tuple[float, float], ...]:
    return tuple((math.ldexp(h, -k), math.ldexp(d, -k)) for h, d in intervals)


@pytest.mark.parametrize("k", [-60, -40, -4, 1, 20, 40, 60])
def test_jam_generators_on_a_faster_time_scale_give_the_sequence_rescaled(k):
    # Both generators decide every interval on sums and products of the
    # times and one comparison with the budget's bound, with a slack
    # relative to that bound, so on a time scale 2^k faster they return the
    # original sequence times 2^-k bit for bit. An absolute slack once let
    # the greedy adversary place 76 and 97 intervals at k = 40 and 60 where
    # the budget allows 54.
    for kappa, tau, min_duration, min_gap, seed in product((0.0, 0.2, 0.6), (1.5, 12.0, 550.0), (0.004, 0.05),
                                                          (0.0, 0.01), (3, 11)):
        budget, horizon = DosBudget(kappa=kappa, tau_avg=tau), 6.0
        try:
            ref = gen_random_budgeted(budget, min_duration, seed, horizon, min_gap)
        except GenerationError:  # not one interval fits before the horizon, on any time scale
            continue
        got = gen_random_budgeted(_scaled_budget(budget, k), math.ldexp(min_duration, -k), seed,
                                  math.ldexp(horizon, -k), math.ldexp(min_gap, -k))
        assert got.intervals == _scaled(ref.intervals, k), (kappa, tau, min_duration, min_gap, seed)
    attempts = [0.02 * i for i in range(300)]
    for kappa, tau, min_duration in product((0.0, 0.2, 0.6), (1.5, 12.0), (0.02, 0.05)):
        budget = DosBudget(kappa=kappa, tau_avg=tau)
        ref = gen_greedy_adversary(budget, min_duration, attempts)
        got = gen_greedy_adversary(_scaled_budget(budget, k), math.ldexp(min_duration, -k),
                                   [math.ldexp(t, -k) for t in attempts])
        assert got.intervals == _scaled(ref.intervals, k), (kappa, tau, min_duration)


def test_an_over_budget_jam_sequence_is_rejected_on_every_time_scale(tmp_path, capsys):
    # With kappa = 0.2 the scalar scenario's jam sequence is 39% over its
    # budget at t = 4.5. An absolute slack of 1e-12 once let simulate run it,
    # certified, from k = 38 on, where the excess is below 1e-12.
    doc = _shipped("scalar", "pure_time", "hold_last")
    doc["budget"]["kappa"] = 0.2
    path = tmp_path / "case.json"
    for k in (-60, -40, -4, 0, 1, 20, 30, 36, 38, 40, 60):
        assert _simulate(_rescaled(doc, k), path, capsys) == (1, {}), k


# analyze lines that scale with Q: the weight's eigenvalue bounds and the Lyapunov function's
_Q_LINES = {"gamma1", "gamma2", "alpha1_lyap", "alpha2_lyap"}


@pytest.mark.parametrize("k", _KS)
@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("name", ["scalar", "double_integrator"])
def test_analyze_with_q_on_another_scale_is_that_report_rescaled(name, logic, k, tmp_path, capsys):
    # The Lyapunov route's certificate does not depend on the scale of Q:
    # P solves A'P + PA = -Q, so with Q times 2^k the weight's bounds and
    # the Lyapunov function's come out exactly 2^k times the original, and
    # every other line is equal.
    path = tmp_path / "case.json"
    doc = _shipped(name, logic, "hold_last")
    q = np.array(doc["analysis"]["Q"] or np.eye(len(doc["sim"]["x0"])))
    doc["analysis"]["Q"] = q.tolist()
    ref = _report_lines(_analyze(doc, path, capsys))
    doc["analysis"]["Q"] = np.ldexp(q, k).tolist()
    got = _report_lines(_analyze(doc, path, capsys))
    assert _Q_LINES <= ref.keys() and got.keys() == ref.keys()
    for key, text in ref.items():
        if key in _Q_LINES:
            assert float(got[key]) == math.ldexp(float(text), k), (key, got[key], text)
        else:
            assert got[key] == text, key


@pytest.mark.parametrize("k", _KS)
def test_an_asymmetric_q_is_bad_input_at_every_scale(k, tmp_path, capsys):
    # The symmetry check is relative to ||Q||: a floor of 1 on ||Q|| once
    # let 2^-40 [[1, 0.5], [0, 1]] pass, and the Lyapunov solve then failed
    # as an internal error (exit 4).
    doc = _shipped("double_integrator", "event_time", "hold_last")
    doc["analysis"]["Q"] = [[math.ldexp(1.0, k - 40), math.ldexp(0.5, k - 40)], [0.0, math.ldexp(1.0, k - 40)]]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    assert "analysis.Q must be symmetric" in capsys.readouterr().err
