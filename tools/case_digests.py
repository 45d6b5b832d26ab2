"""Digests of every output of dosloop's reference cases, one JSON line per case.

    python3 tools/case_digests.py SRC_TREE OUT_DIR

Runs each case through SRC_TREE's ``dosloop.cli.main``, in this interpreter,
with stdout and stderr captured, and prints
``{"id", "exit", "stdout", "stderr", "csv", "stats"}``: the exit code, the
sha256 of stdout, of stderr and of the trace or sweep CSV, and the
``Trace.stats`` counters of the (first) run (``csv`` and ``stats`` are null
for ``analyze``); the trace CSVs go to ``OUT_DIR/csv`` and the sweep CSVs
to ``OUT_DIR/sweep``. Run it on two checkouts with the same OUT_DIR and
diff the two outputs: equal lines mean the same reports, exit codes, trace
bytes and work.

The cases' inputs come from the checkout that holds this script, never from
SRC_TREE, so both runs read the same files. The 68 cases are:

* every ``event_sim``, ``periodic_sim`` and ``certify`` job of
  ``bench/workloads.py`` at seeds 7 and 11 (38 jobs);
* ``analyze`` of both shipped scenarios;
* ``simulate`` of both shipped scenarios under each of the four update
  logics and both input modes (16 cases);
* ``simulate`` of both shipped scenarios under ``event_time``, jammed by
  the random generator (seed 3, ``min_duration`` 5 delta1, ``min_gap``
  2 delta1; kappa 0 on the scalar plant, whose onsets the budget then
  places), so that an output depends on generated onsets (2 cases);
* ``sweep --param tau`` of both shipped scenarios and of the scalar
  random-jam variant, whose onsets move with tau (3 cases), so that the
  rows of a sweep, which shares one run between points with the same jam
  intervals, are checked byte for byte;
* ``simulate`` of the shipped scalar scenario from ``x0 = [0.0]``, and of
  a diverged variant: ``zero_during_dos`` under one jam interval
  [0.5, 30.5) (``kappa`` 30, horizon 32), whose open loop reaches the
  divergence guard (2 cases);
* ``simulate`` of the shipped scalar scenario under ``event_time`` with
  horizon 760, where the decaying state's Taylor coefficients fall below
  2^-1024 (1 case);
* ``simulate`` under ``pure_time`` and ``event_time``, in both input
  modes, of the seeded plant of ``tests/test_sim.py``'s past-reach runs,
  whose record step lies 2.85 Taylor reaches out, so that most stretches
  end with no row (4 cases).

scipy is needed, as by ``bench/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
SHIPPED = ("scalar", "double_integrator")
LOGICS = ("event_time", "pure_time", "self_trigger", "ideal_event")
INPUT_MODES = ("hold_last", "zero_during_dos")
# --from, --to and --steps of each tau sweep, by its scenario file's stem
TAU_GRIDS = {
    "scalar": ("6", "30", "7"),
    "double_integrator": ("400", "2000", "20"),
    "scalar-random-jam": ("8", "16", "5"),
}


def _past_reach_doc(riccati_delta2, logic: str, mode: str) -> dict:
    """tests/test_sim.py's past-reach scenario: a weak gain and sigma = 1e4 admit a delta2 of 11 Taylor reaches."""
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    A -= (np.linalg.eigvals(A).real.max() + 1.0) * np.eye(3)
    B, K = rng.normal(size=(3, 1)), 1e-4 * rng.normal(size=(1, 3))
    delta2 = riccati_delta2(np.linalg.norm(A + B @ K, 2), np.linalg.norm(B @ K, 2), 1e4)
    return {
        "plant": {"A": A.tolist(), "B": B.tolist(), "K": K.tolist(), "input_mode": mode},
        "trigger": {"kind": logic, "sigma": 1e4, "delta1": delta2, "delta2": delta2},
        "dos": {"intervals": [[5.0 * delta2, 3.0 * delta2], [20.0 * delta2, 4.0 * delta2]]},
        "budget": {"kappa": 7.0 * delta2, "tau": 10.0},
        "sim": {"x0": rng.normal(size=3).tolist(), "horizon": 40.0 * delta2, "record_step": delta2 / 4.0},
    }


def cases(out_dir: Path) -> list[tuple[str, str, Path]]:
    """(case id, command, scenario file) of every case; writes the scenario files into out_dir."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    out = []
    for workload, seed in product(workloads.WORKLOADS, SEEDS):
        work_dir = out_dir / f"{workload}-{seed}"
        for job in workloads.generate(workload, seed, work_dir):
            out.append((f"{workload}/{seed}/{job.id}", job.command, work_dir / job.scenario))
    (out_dir / "shipped").mkdir(parents=True, exist_ok=True)
    for name in SHIPPED:
        shipped = ROOT / "scenarios" / f"{name}.json"
        out.append((f"shipped/analyze-{name}", "analyze", shipped))
        doc = json.loads(shipped.read_text())
        for logic, mode in product(LOGICS, INPUT_MODES):
            doc["trigger"]["kind"], doc["plant"]["input_mode"] = logic, mode
            path = out_dir / "shipped" / f"{name}-{logic}-{mode}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            out.append((f"shipped/simulate-{name}-{logic}-{mode}", "simulate", path))
        doc["trigger"]["kind"], doc["plant"]["input_mode"] = "event_time", "hold_last"
        delta1 = doc["trigger"]["delta1"]
        doc["dos"] = {"generator": {"kind": "random", "seed": 3, "min_duration": 5.0 * delta1, "min_gap": 2.0 * delta1}}
        if name == "scalar":
            doc["budget"]["kappa"] = 0.0
        path = out_dir / "shipped" / f"{name}-random-jam.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        out.append((f"shipped/simulate-{name}-random-jam", "simulate", path))
        out.append((f"shipped/sweep-tau-{name}", "sweep", shipped))
    out.append(("shipped/sweep-tau-scalar-random-jam", "sweep", out_dir / "shipped" / "scalar-random-jam.json"))
    for variant in ("x0-zero", "diverged", "horizon-760"):
        doc = json.loads((ROOT / "scenarios" / "scalar.json").read_text())
        if variant == "x0-zero":
            doc["sim"]["x0"] = [0.0]
        elif variant == "diverged":
            doc["plant"]["input_mode"], doc["dos"]["intervals"] = "zero_during_dos", [[0.5, 30.0]]
            doc["budget"]["kappa"], doc["sim"]["horizon"] = 30.0, 32.0
        else:
            doc["trigger"]["kind"], doc["sim"]["horizon"] = "event_time", 760.0
        path = out_dir / "shipped" / f"scalar-{variant}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        out.append((f"shipped/simulate-scalar-{variant}", "simulate", path))
    for logic, mode in product(("pure_time", "event_time"), INPUT_MODES):
        path = out_dir / "shipped" / f"past-reach-{logic}-{mode}.json"
        path.write_text(json.dumps(_past_reach_doc(workloads.riccati_delta2, logic, mode), indent=1) + "\n")
        out.append((f"shipped/simulate-past-reach-{logic}-{mode}", "simulate", path))
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(cli, case_id: str, command: str, scenario: Path, out_dir: Path) -> dict[str, object]:
    """Run one case through cli.main and digest its outputs."""
    argv = [command, "--config", str(scenario)]
    # the trace CSVs, which tools/csv_delta.py compares, apart from the sweeps'
    csv = out_dir / ("csv" if command == "simulate" else "sweep") / (case_id.replace("/", "-") + ".csv")
    if command == "sweep":
        lo, hi, steps = TAU_GRIDS[scenario.stem]
        argv += ["--param", "tau", "--from", lo, "--to", hi, "--steps", steps]
    if command != "analyze":
        csv.parent.mkdir(parents=True, exist_ok=True)
        csv.unlink(missing_ok=True)
        argv += ["--out", str(csv)]
    runs = []
    run = cli.run

    def recording_run(config):
        trace = run(config)
        runs.append(dict(trace.stats))
        return trace

    out, err = io.StringIO(), io.StringIO()
    cli.run = recording_run
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.run = run
    return {
        "id": case_id,
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
        "csv": _sha256(csv.read_bytes()) if command != "analyze" and csv.exists() else None,
        "stats": runs[0] if runs else None,
    }


def import_cli(src_tree: Path):
    """dosloop.cli from src_tree/src, never from anywhere else."""
    src = (src_tree / "src").resolve()
    sys.path.insert(0, str(src))
    import dosloop.cli

    if Path(dosloop.cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"dosloop imported from {dosloop.cli.__file__}, not from {src}")
    return dosloop.cli


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write("usage: case_digests.py SRC_TREE OUT_DIR\n")
        return 1
    src_tree, out_dir = Path(args[0]), Path(args[1])
    cli = import_cli(src_tree)
    for case_id, command, scenario in cases(out_dir):
        sys.stdout.write(json.dumps(digest(cli, case_id, command, scenario, out_dir)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
