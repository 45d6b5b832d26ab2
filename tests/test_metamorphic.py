"""Relations between runs: a sign flip of the state's coordinates, and the unit of time."""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dosloop import run
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
        for key in ("onset", "period"):
            dos["generator"][key] = math.ldexp(dos["generator"][key], -k)
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


def _report_lines(report: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in report.splitlines())


@pytest.mark.parametrize("k", [-60, -44, -40, -20, -4, 1, 20, 60])
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
