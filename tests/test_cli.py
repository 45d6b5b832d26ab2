"""Command-line interface: scenario parsing, commands, exit codes, round-trips."""

from __future__ import annotations

import csv
import inspect
import json
import math
import numbers
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dosloop
from dosloop import EnvelopeError, growth_envelope, riccati_delta2
from dosloop import cli as cli_mod
from dosloop.cli import (
    ScenarioError,
    build_parser,
    load_scenario,
    main,
    scenario_from_dict,
)
from dosloop.sim import Verdict


def scalar_doc(**overrides) -> dict:
    doc = {
        "plant": {"A": [[1.0]], "B": [[1.0]], "K": [[-2.0]], "input_mode": "hold_last"},
        "trigger": {"kind": "pure_time", "sigma": 0.25, "delta1": 0.02, "delta2": None},
        "dos": {"intervals": [[1.0, 0.3], [4.0, 0.5]]},
        "budget": {"kappa": 0.6, "tau": 12.0},
        "sim": {"x0": [1.0], "horizon": 6.0, "record_step": 0.005},
        "analysis": {"Q": [[2.0]]},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


@pytest.fixture
def scalar_config(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(scalar_doc(), indent=2))
    return path


def _read_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.strip().splitlines():
        name, _, value = line.partition(" = ")
        out[name] = value
    return out


def test_analyze_feasible_scenario(scalar_config, tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    code = main(["analyze", "--config", str(scalar_config), "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    rep = _read_report(out)
    assert rep["tau_min_lyapunov"] == "10.0"
    assert rep["gamma1"] == "2.0" and rep["gamma2"] == "4.0"
    assert rep["omega1_lyap"] == "1.0" and rep["omega2_lyap"] == "9.0"
    assert rep["feasible_all"] == "true"
    assert report_path.read_text() == out


def test_analyze_echoes_computed_delta2(scalar_config, capsys):
    main(["analyze", "--config", str(scalar_config)])
    rep = _read_report(capsys.readouterr().out)
    assert rep["delta2_source"] == "computed"
    want = riccati_delta2(1.0, 2.0, 0.25)
    assert float(rep["delta2"]) == want
    assert float(rep["delta2_bound"]) == want


@pytest.mark.parametrize("name", ["scalar", "double_integrator"])
def test_analyze_evaluates_a_computed_delta2_once(name, monkeypatch, capsys):
    # delta2 is null in both shipped scenarios: the bound that fills it is
    # the report's delta2_bound, taken once
    import dosloop.triggers

    calls, bound = [], dosloop.triggers.riccati_delta2

    def counted(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(cli_mod, "riccati_delta2", counted)
    monkeypatch.setattr(dosloop.triggers, "riccati_delta2", counted)
    path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    assert main(["analyze", "--config", str(path)]) in (0, 2)
    rep = _read_report(capsys.readouterr().out)
    assert len(calls) == 1 and rep["delta2_source"] == "computed"
    assert rep["delta2_bound"] == rep["delta2"] == repr(bound(*calls[0]))


def test_analyze_infeasible_sigma_exits_2(tmp_path, capsys):
    doc = scalar_doc()
    doc["trigger"]["sigma"] = 0.49  # margin = 1 - 2 * 0.49 > 0, but lyapunov 2 - 4*0.49 > 0 too
    doc["trigger"]["sigma"] = 0.51  # both families infeasible now
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--config", str(path)])
    rep = _read_report(capsys.readouterr().out)
    assert code == 2
    assert rep["sigma_feasible"] == "false"
    assert rep["tau_min_ideal"] == "inf"


def test_analyze_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"plant": [1, 2,\n')
    code = main(["analyze", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err


def test_analyze_missing_section_exits_1(tmp_path, capsys):
    doc = scalar_doc()
    del doc["budget"]
    path = tmp_path / "nosec.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    assert "budget" in capsys.readouterr().err


def test_json_booleans_and_fractional_seeds_exit_1(tmp_path, capsys):
    # float() and int() would read true as 1.0 and a seed of 2.9 as 2
    random_jam = {"generator": {"kind": "random", "seed": 2.9, "min_duration": 0.1}}
    bool_horizon = {"x0": [1.0], "horizon": True, "record_step": 0.005}
    cases = [
        (scalar_doc(sim=bool_horizon), "sim.horizon: expected a number, got True"),
        (scalar_doc(budget={"kappa": True, "tau": 12.0}), "budget.kappa: expected a number, got True"),
        (scalar_doc(dos=random_jam), "dos.generator.seed: expected an integer, got 2.9"),
        (scalar_doc(dos={"generator": {**random_jam["generator"], "seed": True}}), "expected an integer, got True"),
        # numpy would read these as numbers too: np.asarray([True, 1.0]) is float64,
        # and np.asarray(["0.5"], dtype=float) parses the string
        (scalar_doc(dos={"intervals": [[True, 0.3]]}), "dos.intervals: expected a number, got True"),
        (scalar_doc(dos={"intervals": [[0.3]]}), "dos.intervals must be a list of [onset, duration] pairs"),
        (scalar_doc(sim={**scalar_doc()["sim"], "x0": [True]}), "sim.x0: expected a number, got True"),
        (scalar_doc(plant={**scalar_doc()["plant"], "A": [[True]]}), "plant.A: expected a number, got True"),
        (scalar_doc(plant={**scalar_doc()["plant"], "A": [[1.0], [2.0, 3.0]]}), "plant.A: setting an array element"),
        (scalar_doc(trigger={**scalar_doc()["trigger"], "sigma": "0.25"}), "trigger.sigma: expected a number, got '0.25'"),
        (scalar_doc(analysis={"Q": [[True]]}), "analysis.Q: expected a number, got True"),
        (scalar_doc(analysis={"Q": [["2.0"]]}), "analysis.Q: expected a number, got '2.0'"),
        # an integer past the largest float: float() and np.asarray raise OverflowError
        # (a JSON float such as 1e400 parses to inf, which the range checks reject)
        (scalar_doc(trigger={**scalar_doc()["trigger"], "sigma": 10**400}), "trigger.sigma: int too large"),
        (scalar_doc(plant={**scalar_doc()["plant"], "A": [[10**400]]}), "plant.A: int too large"),
        (scalar_doc(sim={**scalar_doc()["sim"], "horizon": 10**400}), "sim.horizon: int too large"),
        (scalar_doc(trigger={**scalar_doc()["trigger"], "varphi": {"kind": "zero", "scale": 10**400}}),
         "trigger.varphi.scale: int too large"),
        (scalar_doc(dos={"generator": {"kind": "periodic", "period": 1.0, "duty": 10**400}}),
         "dos.generator.duty: int too large"),
    ]
    for k, (doc, message) in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(path)]) == 1, message
        assert message in capsys.readouterr().err
    # a whole-number seed still parses
    scenario_from_dict(scalar_doc(dos={"generator": {**random_jam["generator"], "seed": 2}}))


def test_envelope_failure_text_is_pinned(tmp_path, capsys):
    # a fast rotation has ||exp(Mt)|| = 1 exactly; sampling it with expm once
    # rejected it on rounding (1.00000000173 > 1 at ||Mt|| ~ 1e5)
    A = [[0.0, 1e5], [-1e5, 0.0]]
    env = growth_envelope(np.array(A))
    assert env.theta == 1.0 and env.rho <= 1e-9
    doc = scalar_doc(
        plant={"A": A, "B": [[1.0, 0.0], [0.0, 1.0]], "K": [[-1.0, 0.0], [0.0, -1.0]]},
        trigger={"kind": "pure_time", "sigma": 0.25, "delta1": 1e-6, "delta2": None},
        sim={"x0": [1.0, 0.0], "horizon": 6.0, "record_step": 0.005},
        analysis={"Q": [[1.0, 0.0], [0.0, 1.0]]},
    )
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 0
    report = _read_report(capsys.readouterr().out)
    assert float(report["rho"]) <= 1e-9
    assert 1.0 <= float(report["mu"]) <= 1.0 + 1e-12
    # no envelope: exit 1, and the error names the inequality that failed
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(scalar_doc(plant={"A": [[0.2]], "B": [[1.0]], "K": [[0.0]]})))
    assert main(["analyze", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: plant: no decay envelope: phi = 0.2 >= 0, not Hurwitz\n"


def test_shared_parser_keeps_no_state_between_calls(scalar_config, tmp_path, capsys):
    assert build_parser() is build_parser()
    report = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(scalar_config), "--report", str(report)]) == 0
    first = capsys.readouterr().out
    report.unlink()
    assert main(["analyze", "--config", str(scalar_config)]) == 0
    capsys.readouterr()
    assert not report.exists()
    code = main([
        "sweep", "--config", str(scalar_config), "--param", "gamma",
        "--from", "1", "--to", "2", "--steps", "3", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    capsys.readouterr()
    assert main(["analyze", "--config", str(scalar_config)]) == 0
    assert capsys.readouterr().out == first


def test_simulate_writes_trace_and_exits_0(scalar_config, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--config", str(scalar_config), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    rep = _read_report(stdout)
    assert rep["ges_holds"] == "true"
    assert rep["update_rule_holds"] == "true"
    assert rep["measure_inequality_holds"] == "true"
    assert rep["certificate"] == "sampled"
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t" and rows[0][-1] == "success"
    assert len(rows) > 100


def test_simulate_uncertified_scenario_exits_0(tmp_path, capsys):
    # tau far below tau_min: no feasible certificate, so no claim to violate
    doc = scalar_doc()
    doc["budget"]["tau"] = 2.0
    doc["dos"] = {"intervals": [[1.0, 0.3]]}
    path = tmp_path / "uncert.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    rep = _read_report(capsys.readouterr().out)
    assert code == 0
    assert rep["certificate"] == "uncertified"
    assert "ges_holds" not in rep


def test_simulate_divergence_reported(tmp_path, capsys):
    horizon = 40.0
    doc = {
        "plant": {
            "A": [[0.8, 0.0], [0.0, 1.1]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "K": [[-2.0, 0.0], [0.0, -2.5]],
            "input_mode": "zero_during_dos",
        },
        "trigger": {"kind": "pure_time", "sigma": 0.2, "delta1": 0.05, "delta2": 0.05},
        "dos": {"intervals": [[0.0, horizon + 1.0]]},
        "budget": {"kappa": horizon / 2.0 + 2.0, "tau": 2.0},
        "sim": {"x0": [1.0, 1.0], "horizon": horizon, "record_step": 0.0125},
        "analysis": {},
    }
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "d.csv")])
    rep = _read_report(capsys.readouterr().out)
    assert rep["diverged"] == "true"
    assert code == 0  # nothing was certified, so nothing was violated


def test_overflowing_certificate_is_infeasible_not_a_crash(tmp_path, capsys):
    # kappa * rate is far past the largest float exponent: alpha overflows
    doc = {
        "plant": {"A": [[50.0]], "B": [[1.0]], "K": [[-60.0]]},
        "trigger": {"kind": "ideal_event", "sigma": 0.1, "delta1": 100.0, "delta2": 100.0},
        "dos": {"intervals": [[1.0, 30.0]]},
        "budget": {"kappa": 40.0, "tau": 2.0},
        "sim": {"x0": [1.0], "horizon": 200.0, "record_step": 25.0},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    rep = _read_report(capsys.readouterr().out)
    assert code == 0
    assert rep["certificate"] == "uncertified"
    assert rep["diverged"] == "true"

    # as written, delta2 is an input error for analyze ...
    assert main(["analyze", "--config", str(path)]) == 1
    assert "exceeds" in capsys.readouterr().err
    # ... and with delta2 computed, every family is infeasible with alpha = inf
    doc["trigger"] = {"kind": "ideal_event", "sigma": 0.1, "delta1": 1e-4}
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--config", str(path)])
    rep = _read_report(capsys.readouterr().out)
    assert code == 2
    for family in ("ideal", "sampled", "lyapunov"):
        assert rep[f"alpha_{family}"] == "inf"
        assert rep[f"feasible_{family}"] == "false"
    assert rep["feasible_all"] == "false"


def test_simulate_certified_violation_exits_3(scalar_config, tmp_path, monkeypatch):
    # exercise the exit path by forcing the envelope check to report a failure
    monkeypatch.setattr(
        cli_mod, "verify_ges",
        lambda trace, alpha, beta: Verdict(holds=False, first_violation=0.5, worst=2.0),
    )
    code = main(["simulate", "--config", str(scalar_config), "--out", str(tmp_path / "t.csv")])
    assert code == 3


def test_sweep_rows_and_transition(scalar_config, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(scalar_config), "--param", "tau",
        "--from", "8", "--to", "16", "--steps", "5", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "tau_min", "alpha", "beta", "ges_observed"]
    assert len(rows) == 6
    values = [float(r[0]) for r in rows[1:]]
    assert values == sorted(values)
    betas = [float(r[3]) for r in rows[1:]]
    assert all(b0 < b1 for b0, b1 in zip(betas, betas[1:]))  # beta grows with tau
    observed = {r[4] for r in rows[1:]}
    assert "true" in observed  # feasible tail of the sweep simulates clean


def _tau_sweep_against_direct_runs(doc: dict, tmp_path, monkeypatch, lo: float, hi: float, steps: int):
    """(runs, changes of the jam sequence from one simulated point to the next) of a tau sweep of doc.

    Each row is checked against a direct run of its point.
    """
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    run, calls = cli_mod.run, []

    def counting_run(config):
        calls.append(config)
        return run(config)

    monkeypatch.setattr(cli_mod, "run", counting_run)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(path), "--param", "tau", "--from", str(lo), "--to", str(hi), "--steps", str(steps)]
    assert main(argv + ["--out", str(out)]) == 0
    monkeypatch.setattr(cli_mod, "run", run)
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == steps
    sequences = []
    for value, row in zip(np.linspace(lo, hi, steps).tolist(), rows, strict=True):
        doc["budget"]["tau"] = value
        sc = scenario_from_dict(doc, path.parent)
        strongest = cli_mod._strongest_certificate(sc, cli_mod.certificates(sc))
        try:
            config = sc.sim_config()
        except ScenarioError:
            config = None
        want = ""
        if strongest is not None and config is not None:
            want = "true" if cli_mod.verify_ges(run(config), *strongest[1:]).holds else "false"
            sequences.append(sc.dos)
        assert (float(row[0]), row[4]) == (value, want)
    return len(calls), sum(i == 0 or seq != sequences[i - 1] for i, seq in enumerate(sequences))


def test_a_tau_sweep_runs_again_only_when_the_jam_sequence_changes(tmp_path, monkeypatch):
    # run() never reads the budget, so the points of a tau sweep share one
    # run while their jam intervals agree; each row still takes its own
    # budget check and its own alpha and beta
    doc = json.loads((Path(dosloop.__file__).resolve().parents[2] / "scenarios" / "double_integrator.json").read_text())
    assert _tau_sweep_against_direct_runs(doc, tmp_path, monkeypatch, 400.0, 2000.0, 20) == (1, 1)
    # a random generator draws its onsets from the budget: one run each time they change
    doc = scalar_doc()
    doc["trigger"]["kind"] = "event_time"
    doc["budget"]["kappa"] = 0.0
    doc["dos"] = {"generator": {"kind": "random", "seed": 3, "min_duration": 0.1, "min_gap": 0.04}}
    runs, changes = _tau_sweep_against_direct_runs(doc, tmp_path, monkeypatch, 8.0, 16.0, 5)
    assert runs == changes > 1


def test_sweep_sigma_beta_monotone(tmp_path):
    doc = scalar_doc()
    doc["dos"] = {"intervals": []}
    doc["budget"] = {"kappa": 0.1, "tau": 60.0}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(path), "--param", "sigma",
        "--from", "0.05", "--to", "0.45", "--steps", "5", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    betas = [float(r[3]) for r in rows]
    # pushing sigma toward the feasibility boundary only slows the envelope
    assert all(b0 > b1 for b0, b1 in zip(betas, betas[1:]))


def test_sweep_two_points(scalar_config, tmp_path):
    out = tmp_path / "two.csv"
    assert main([
        "sweep", "--config", str(scalar_config), "--param", "delta1",
        "--from", "0.01", "--to", "0.02", "--steps", "2", "--out", str(out),
    ]) == 0
    with open(out) as fh:
        assert len(list(csv.reader(fh))) == 3


def test_sweep_input_errors(scalar_config, tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--config", str(scalar_config), "--param", "gamma",
                 "--from", "1", "--to", "2", "--steps", "3", "--out", out]) == 1
    assert "unknown sweep parameter" in capsys.readouterr().err
    assert main(["sweep", "--config", str(scalar_config), "--param", "tau",
                 "--from", "1", "--to", "2", "--steps", "1", "--out", out]) == 1
    # sweep reads the scenario file as analyze does: a missing file, malformed
    # JSON and a top level that is not an object are bad input, with one message
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    broken = tmp_path / "broken.json"
    broken.write_text('{"plant": [1,\n')
    for path, message in ((listed, "top level must be an object"), (broken, "line 2, column 1"),
                          (tmp_path / "missing.json", "cannot read scenario file")):
        capsys.readouterr()
        assert main(["analyze", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert main(["sweep", "--config", str(path), "--param", "tau",
                     "--from", "1", "--to", "2", "--steps", "2", "--out", out]) == 1
        assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_a_scenario_file_that_is_not_utf8_exits_1(command, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"plant": "\xff\xfe"}')
    argv = [command, "--config", str(path)] + (["--out", str(tmp_path / "t.csv")] if command == "simulate" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text") and "Traceback" not in err


def test_gen_dos_random_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen-dos", "--kind", "random", "--kappa", "0.4", "--tau", "5.0",
            "--seed", "7", "--horizon", "12", "--min-duration", "0.05"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    from dosloop import dos as dos_io
    from dosloop import check_slow_average
    seq, budget = dos_io.load(a)
    assert budget is not None
    assert check_slow_average(seq, budget, 12.0).holds


def test_gen_dos_periodic_ignores_seed(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["gen-dos", "--kind", "periodic", "--period", "2.0", "--duty", "0.25",
                 "--horizon", "8", "--seed", "1", "--out", str(a)]) == 0
    assert main(["gen-dos", "--kind", "periodic", "--period", "2.0", "--duty", "0.25",
                 "--horizon", "8", "--seed", "999", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_dos_infeasible_exits_1(tmp_path, capsys):
    code = main(["gen-dos", "--kind", "random", "--kappa", "0.0", "--tau", "10.0",
                 "--seed", "0", "--horizon", "5", "--min-duration", "2.0",
                 "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_an_infinite_horizon_is_bad_input(tmp_path, capsys):
    # the jam generators would loop forever on it
    out = str(tmp_path / "x.txt")
    assert main(["gen-dos", "--kind", "periodic", "--period", "1.5", "--duty", "0.1",
                 "--horizon", "inf", "--out", out]) == 1
    assert main(["gen-dos", "--kind", "random", "--kappa", "0.5", "--tau", "10", "--min-duration", "0.1",
                 "--horizon", "inf", "--out", out]) == 1
    doc = json.loads((Path(dosloop.__file__).resolve().parents[2] / "scenarios" / "double_integrator.json").read_text())
    doc["sim"]["horizon"] = math.inf  # written as the JSON literal Infinity, which json reads back
    path = tmp_path / "endless.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    assert capsys.readouterr().err.count("horizon must be positive and finite, got inf") == 3


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0], ids=["inf", "nan", "negative"])
def test_analyze_checks_the_horizon_of_inline_jam_intervals(horizon, tmp_path, capsys):
    # no generator reads the horizon here, and analyze builds no SimConfig:
    # the scenario's own check must reject it, as simulate does
    doc = json.loads((Path(dosloop.__file__).resolve().parents[2] / "scenarios" / "scalar.json").read_text())
    assert "intervals" in doc["dos"]
    doc["sim"]["horizon"] = horizon  # JSON's Infinity and NaN literals, which json reads back
    path = tmp_path / "horizon.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    assert f"error: sim.horizon: horizon must be positive and finite, got {horizon}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["sweep", "--config", "s.json", "--param", "tau", "--from", "1", "--to", "x", "--steps", "3", "--out", "o.csv"],
        [],
    ],
    ids=["missing_option", "bad_float", "no_command"],
)
def test_command_line_errors_exit_1_with_usage(argv, capsys):
    # exit 2 means an infeasible certificate, never a mistyped command line
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dosloop") and "\nerror: dosloop" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dosloop analyze")


def test_scenario_dos_generator_and_file(tmp_path):
    doc = scalar_doc()
    doc["dos"] = {"generator": {"kind": "random", "min_duration": 0.05, "seed": 3}}
    sc = scenario_from_dict(doc)
    assert len(sc.dos) > 0
    from dosloop import dos as dos_io
    jam_path = tmp_path / "jam.txt"
    dos_io.save(jam_path, sc.dos)
    doc2 = scalar_doc()
    doc2["dos"] = {"file": "jam.txt"}
    path2 = tmp_path / "withfile.json"
    path2.write_text(json.dumps(doc2))
    sc2 = load_scenario(path2)
    assert sc2.dos.intervals == sc.dos.intervals


def test_scenario_errors():
    with pytest.raises(ScenarioError):
        scenario_from_dict(scalar_doc(dos={"intervals": [[0, 1]], "file": "x"}))
    with pytest.raises(ScenarioError):
        scenario_from_dict(scalar_doc(trigger={"kind": "warp", "sigma": 0.2, "delta1": 0.01}))
    with pytest.raises(ScenarioError):
        scenario_from_dict(scalar_doc(plant={"A": [[1.0]], "B": [[1.0]], "K": [[0.5]]}))
    doc = scalar_doc()
    doc["sim"]["x0"] = [1.0, 2.0]
    sc = scenario_from_dict(doc)
    with pytest.raises(ValueError):
        sc.sim_config()  # x0 length mismatch surfaces at config build


def test_worst_case_robustness_by_logic():
    sc = scenario_from_dict(scalar_doc())
    rob = cli_mod.worst_case_robustness(sc)
    assert rob.delta_star == sc.trigger.delta1
    assert rob.tau_star == 0.3
    doc = scalar_doc()
    doc["trigger"]["kind"] = "self_trigger"
    rob2 = cli_mod.worst_case_robustness(scenario_from_dict(doc))
    assert rob2.delta_star == pytest.approx(riccati_delta2(1.0, 2.0, 0.25))
    doc["trigger"]["kind"] = "ideal_event"
    rob3 = cli_mod.worst_case_robustness(scenario_from_dict(doc))
    assert rob3.delta_star == 0.0 and math.isinf(rob3.tau_star)


def test_no_command_loads_scipy(tmp_path):
    # the runtime needs numpy alone: importing scipy.linalg would be most of a
    # fresh process's start-up time, and scipy.optimize adds about 19 MB more
    src = Path(dosloop.__file__).resolve().parent.parent
    scenario = src.parent / "scenarios" / "double_integrator.json"
    code = """
import json, sys
from dosloop.cli import main
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
scenario, out = sys.argv[1], sys.argv[2]
loaded, codes = {"import": scipy_modules()}, {}
for name, argv in [
    ("analyze", ["analyze", "--config", scenario]),
    ("gen-dos", ["gen-dos", "--kind", "random", "--kappa", "0.6", "--tau", "12", "--seed", "3", "--horizon", "6",
                 "--min-duration", "0.1", "--min-gap", "0.04", "--out", out + "/jam.txt"]),
    ("simulate", ["simulate", "--config", scenario, "--out", out + "/trace.csv"]),
    ("sweep", ["sweep", "--config", scenario, "--param", "sigma", "--from", "0.03", "--to", "0.0488",
               "--steps", "2", "--out", out + "/sweep.csv"]),
]:
    codes[name] = main(argv)
    loaded[name] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code, str(scenario), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["loaded"] == {"import": [], "analyze": [], "gen-dos": [], "simulate": [], "sweep": []}
    assert result["codes"] == {"analyze": 0, "gen-dos": 0, "simulate": 0, "sweep": 0}
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 2 and all(r[4] == "true" for r in rows)


def test_internal_error_exits_4_with_its_traceback(scalar_config, tmp_path, monkeypatch, capsys):
    def broken(sc):
        raise RuntimeError("bug in the report")

    monkeypatch.setattr(cli_mod, "analysis_report", broken)
    assert main(["analyze", "--config", str(scalar_config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:\nTraceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: bug in the report")
    # bad input keeps exit 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_library_value_error_exits_4_but_input_checks_exit_1(scalar_config, tmp_path, monkeypatch, capsys):
    # a ValueError from inside the library is a bug, not bad input
    def broken(sc):
        raise ValueError("shape mismatch in the report")

    with monkeypatch.context() as patched:
        patched.setattr(cli_mod, "analysis_report", broken)
        assert main(["analyze", "--config", str(scalar_config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:\nTraceback (most recent call last):")
    assert err.rstrip().endswith("ValueError: shape mismatch in the report")

    # so is an EnvelopeError past parsing: a plant without an envelope is
    # rejected, as bad input, where the scenario is read
    def no_envelope(sc):
        raise EnvelopeError("no decay envelope: raised after parsing")

    with monkeypatch.context() as patched:
        patched.setattr(cli_mod, "analysis_report", no_envelope)
        assert main(["analyze", "--config", str(scalar_config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:\nTraceback (most recent call last):")
    assert err.rstrip().endswith("EnvelopeError: no decay envelope: raised after parsing")

    # the input checks that the library raises as ValueError still read as bad input
    def exits_1(argv, doc, needle):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        assert main([*argv[:1], "--config", str(path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err

    out = str(tmp_path / "t.csv")
    over_budget = scalar_doc(dos={"intervals": [[1.0, 3.0]]})  # 3 s jammed against kappa = 0.6
    exits_1(["simulate", "--out", out], over_budget, "violates its budget")
    coarse = scalar_doc(sim={"x0": [1.0], "horizon": 6.0, "record_step": 0.01})  # > delta1 / 4
    exits_1(["simulate", "--out", out], coarse, "record_step")
    wide = scalar_doc(trigger={"kind": "pure_time", "sigma": 0.25, "delta1": 0.02, "delta2": 5.0})
    exits_1(["simulate", "--out", out], wide, "exceeds")
    exits_1(["analyze"], wide, "exceeds")
    exits_1(["analyze"], scalar_doc(analysis={"Q": [[-1.0]]}), "analysis.Q must be positive definite")
    exits_1(["analyze"], scalar_doc(trigger={"kind": "pure_time", "sigma": 0.25, "delta1": 0.02,
                                             "varphi": {"kind": "cubic"}}), "unknown varphi kind")
    assert main(["gen-dos", "--kind", "periodic", "--period", "1.0", "--duty", "1.5",
                 "--horizon", "5", "--out", str(tmp_path / "x.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: duty must lie in (0, 1)")


def test_a_weight_whose_lyapunov_solve_overflows_exits_1(tmp_path, capsys):
    # Q's unit is free, but 1e308 I on the shipped double integrator
    # overflows the Lyapunov solve: bad input, in every command that reads Q
    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "double_integrator.json").read_text())
    doc["analysis"]["Q"] = [[1e308, 0.0], [0.0, 1e308]]
    path, out = tmp_path / "big_q.json", str(tmp_path / "out.csv")
    path.write_text(json.dumps(doc))
    sweep = ["--param", "tau", "--from", "400", "--to", "2000", "--steps", "2"]
    for command, args in (("analyze", []), ("simulate", ["--out", out]), ("sweep", [*sweep, "--out", out])):
        assert main([command, "--config", str(path), *args]) == 1, command
        assert capsys.readouterr().err.startswith("error: analysis.Q: Lyapunov residual inf"), command


def test_simulate_rejects_a_crossing_tol_not_below_the_record_step(tmp_path, capsys):
    # A crossing found up to crossing_tol late must stay within one record
    # cell, so crossing_tol >= record_step is bad input (exit 1), not a run
    # whose attempts drift by more than a cell. One case is the shipped
    # double integrator on a time scale 2^20 faster (A and B times 2^20,
    # every time 2^-20): its record step falls to 8.3e-10, below the
    # default crossing_tol of 1e-9.
    path, out = tmp_path / "case.json", str(tmp_path / "t.csv")

    def simulate(doc):
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(path), "--out", out])
        return code, capsys.readouterr().err

    for tol in (0.005, 0.01):
        code, err = simulate(scalar_doc(sim={"x0": [1.0], "horizon": 6.0, "record_step": 0.005, "crossing_tol": tol}))
        assert code == 1 and err.startswith("error: ") and "crossing_tol" in err, (tol, err)
    assert simulate(scalar_doc(sim={"x0": [1.0], "horizon": 6.0, "record_step": 0.005, "crossing_tol": 0.004}))[0] == 0
    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "double_integrator.json").read_text())
    k = 20
    doc["plant"]["A"] = [[math.ldexp(v, k) for v in row] for row in doc["plant"]["A"]]
    doc["plant"]["B"] = [[math.ldexp(v, k) for v in row] for row in doc["plant"]["B"]]
    for sec, key in (("trigger", "delta1"), ("sim", "horizon"), ("sim", "record_step"), ("budget", "kappa")):
        doc[sec][key] = math.ldexp(doc[sec][key], -k)
    for key in ("onset", "period"):
        doc["dos"]["generator"][key] = math.ldexp(doc["dos"]["generator"][key], -k)
    assert doc["sim"]["record_step"] < 1e-9 and "crossing_tol" not in doc["sim"]
    code, err = simulate(doc)
    assert code == 1 and "crossing_tol" in err, err


def test_sweep_blanks_input_errors_but_a_library_error_exits_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "over.json"
    path.write_text(json.dumps(scalar_doc(dos={"intervals": [[1.0, 3.0]]})))  # 3 s jammed against kappa = 0.6
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(path), "--param", "sigma", "--from", "0.1", "--to", "0.2",
            "--steps", "3", "--out", str(out)]
    # a point whose jam sequence breaks its budget is bad input: a blank ges_observed
    assert main(argv) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 3 and all(r[4] == "" and r[1] != "nan" for r in rows)
    capsys.readouterr()

    def broken(sc):
        raise ValueError("bug inside the library")

    monkeypatch.setattr(cli_mod, "certificates", broken)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:\nTraceback (most recent call last):")
    assert err.rstrip().endswith("ValueError: bug inside the library")


def test_sweep_of_a_document_no_point_can_mend_exits_1(tmp_path, capsys):
    # every grid point fails to build for the same reason, which no swept
    # value mends: that is bad input, reported once, and no CSV is written
    doc = json.loads((Path(dosloop.__file__).resolve().parents[2] / "scenarios" / "scalar.json").read_text())
    doc["sim"]["horizon"] = math.inf  # JSON's Infinity literal, which json reads back
    path = tmp_path / "endless.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(path), "--param", "tau", "--from", "6", "--to", "30", "--steps", "3",
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: sim.horizon: horizon must be positive and finite, got inf\n"
    assert captured.out == "" and not out.exists()


SHIPPED_DOUBLE_INTEGRATOR = Path(__file__).resolve().parent.parent / "scenarios" / "double_integrator.json"


def _count_calls(monkeypatch, functions) -> dict[str, int]:
    """Count calls of each function through every dosloop module that binds it by name."""
    counts = {}
    for function in functions:
        name = function.__name__
        counts[name] = 0

        def counted(*args, _name=name, _function=function, **kwargs):
            counts[_name] += 1
            return _function(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "dosloop" and getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_analyze_computes_each_plant_invariant_once(monkeypatch, capsys):
    from dosloop.guarantees import rho_star
    from dosloop.linalg import solve_lyapunov, spectral_norm

    counts = _count_calls(monkeypatch, (spectral_norm, solve_lyapunov, rho_star))
    assert main(["analyze", "--config", str(SHIPPED_DOUBLE_INTEGRATOR)]) == 0
    assert "feasible_all = true" in capsys.readouterr().out
    # ||A + BK|| and ||BK|| once per plant, ||K^T B^T P + P B K|| once
    assert counts["spectral_norm"] <= 3
    # Q = I: P is the one the decay envelope solved for
    assert counts["solve_lyapunov"] == 0
    # the ideal and sampled certificates share one bisection
    assert counts["rho_star"] == 1


def _count_linalg_calls(monkeypatch) -> dict[str, int]:
    """Count calls of every numpy.linalg function and of np.kron; norm is keyed by its ord."""
    counts: dict[str, int] = {}
    targets = [(np.linalg, name) for name in np.linalg.__all__ if not inspect.isclass(getattr(np.linalg, name))]
    for module, name in [*targets, (np, "kron")]:
        function = getattr(module, name)

        def counted(*args, _name=name, _function=function, **kwargs):
            if _name == "norm":
                _name = f"norm(ord={args[1] if len(args) > 1 else kwargs.get('ord')})"
            counts[_name] = counts.get(_name, 0) + 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def _seeded_scenario(tmp_path: Path, n: int, seed: int) -> Path:
    """A scenario file of a seeded n-state plant, Q = I by default and delta2 computed."""
    from conftest import feasible_sigma, random_stabilized_plant, standard_trigger

    plant = random_stabilized_plant(np.random.default_rng(seed), n=n)
    sigma = feasible_sigma(plant, 0.5)
    doc = scalar_doc(
        plant={"A": plant.A.tolist(), "B": plant.B.tolist(), "K": plant.K.tolist(), "input_mode": "hold_last"},
        trigger={"kind": "event_time", "sigma": sigma, "delta1": standard_trigger(plant, sigma).delta1, "delta2": None},
        budget={"kappa": 0.5, "tau": 1e6},
        sim={"x0": [1.0] * n, "horizon": 2.0, "record_step": 0.01},
    )
    del doc["analysis"]
    path = tmp_path / f"seeded_{n}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("scenario", ["double_integrator", "seeded_n8"])
def test_analyze_lapack_call_budget(scenario, tmp_path, monkeypatch, capsys):
    # Every 2-norm is one svd and the Lyapunov operator is built without np.kron;
    # a change that brings numpy's wrappers back, or adds a LAPACK call, fails here.
    path = SHIPPED_DOUBLE_INTEGRATOR if scenario == "double_integrator" else _seeded_scenario(tmp_path, 8, 21)
    counts = _count_linalg_calls(monkeypatch)
    assert main(["analyze", "--config", str(path)]) == 0
    assert "feasible_all = true" in capsys.readouterr().out
    # svd: the decay residual, ||A + BK|| with ||BK|| (one stacked call) and ||K^T B^T P + P B K||;
    # eigvalsh: P of the decay envelope and the symmetric part of A (the identity Q needs none);
    # norm: the Frobenius norm of the decay envelope's rounding bound; solve: the one Lyapunov system
    assert counts == {"svd": 3, "eigvalsh": 2, "solve": 1, "norm(ord=None)": 1}


def test_analyze_checks_q_once(monkeypatch, capsys):
    # the shipped scalar scenario's Q = [[2]] is checked where the scenario is
    # read, and the Lyapunov route solves with that checked weight
    from dosloop.linalg import as_weight

    counts = _count_calls(monkeypatch, (as_weight,))
    assert main(["analyze", "--config", str(SHIPPED_DOUBLE_INTEGRATOR.with_name("scalar.json"))]) == 0
    assert "feasible_all = true" in capsys.readouterr().out
    assert counts["as_weight"] == 1


def test_is_number_accepts_exactly_the_real_non_bool_values():
    from decimal import Decimal
    from fractions import Fraction

    from dosloop.cli import _is_number

    accepted = [0, -3, 2**80, 0.5, -0.0, math.inf, math.nan, np.float64(0.25), np.int64(3), np.float32(1.5), Fraction(1, 3)]
    rejected = [True, False, np.bool_(True), "0.25", "1", None, 1j, complex(1.0, 0.0), np.complex128(1.0), Decimal("0.5"), [1.0], {}]
    assert [_is_number(v) for v in accepted] == [True] * len(accepted)
    assert [_is_number(v) for v in rejected] == [False] * len(rejected)
    # the ABC test it stands for, on every value
    for v in accepted + rejected:
        assert _is_number(v) == (isinstance(v, numbers.Real) and not isinstance(v, bool)), v


def test_reused_invariants_equal_direct_computation():
    from dosloop.guarantees import ges_certificate_lyapunov, ges_certificate_sampled, rho_star
    from dosloop.linalg import solve_lyapunov, spectral_norm

    sc = load_scenario(SHIPPED_DOUBLE_INTEGRATOR)
    plant, sigma, kappa, tau = sc.plant, sc.trigger.sigma, sc.budget.kappa, sc.budget.tau_avg
    eye = np.eye(plant.n)
    cert = ges_certificate_lyapunov(plant, eye, sigma, kappa, tau)
    assert cert.P is plant.decay.P
    direct = solve_lyapunov(plant.phi, eye)
    assert cert.P.tobytes() == direct.tobytes()
    assert plant.decay.p_eigs.tobytes() == np.linalg.eigvalsh(direct).tobytes()
    assert (plant.phi_norm, plant.bk_norm) == tuple(map(spectral_norm, (plant.phi, plant.bk)))
    bundle = cli_mod.certificates(sc)
    assert bundle.robustness.inflation > 1.0
    env, gro = plant.decay, plant.growth
    rs = rho_star(env.lam, env.mu * plant.bk_norm, sigma, gro.theta, plant.bk_norm, gro.rho)
    assert bundle.ideal.rho_star == rs and bundle.sampled.rho_star == rs
    assert bundle.sampled == ges_certificate_sampled(plant, sigma, kappa, tau, bundle.robustness)
    # the inflated fields, from the same operations as a certificate built with the inflation
    rate, margin = (env.lam + rs) * bundle.robustness.inflation, bundle.ideal.sigma_margin
    inflated = (rate / margin, env.mu * math.exp(kappa * rate), margin - rate / tau)
    assert (bundle.sampled.tau_min, bundle.sampled.alpha, bundle.sampled.beta) == inflated


@pytest.mark.parametrize("name", ["scalar", "double_integrator"])
def test_python_m_dosloop_runs_the_cli(name, capsys):
    # python -m dosloop is the console script without installing it
    src = Path(dosloop.__file__).resolve().parent.parent
    scenario = src.parent / "scenarios" / f"{name}.json"
    code = main(["analyze", "--config", str(scenario)])
    want = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "dosloop", "analyze", "--config", str(scenario)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, want, "")
