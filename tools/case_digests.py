"""Digests of every output of dosloop's reference cases, one JSON line per case.

    python3 tools/case_digests.py SRC_TREE OUT_DIR

Runs each case through SRC_TREE's ``dosloop.cli.main``, in this interpreter,
with stdout and stderr captured, and prints
``{"id", "exit", "stdout", "stderr", "csv", "stats"}``: the exit code, the
sha256 of stdout, of stderr and of the trace CSV, and the ``Trace.stats``
counters of the run (``csv`` and ``stats`` are null for ``analyze``). Run it
on two checkouts with the same OUT_DIR and diff the two outputs: equal lines
mean the same reports, exit codes, trace bytes and work.

The cases' inputs come from the checkout that holds this script, never from
SRC_TREE, so both runs read the same files. The 58 cases are:

* every ``event_sim``, ``periodic_sim`` and ``certify`` job of
  ``bench/workloads.py`` at seeds 7 and 11 (38 jobs);
* ``analyze`` of both shipped scenarios;
* ``simulate`` of both shipped scenarios under each of the four update
  logics and both input modes (16 cases);
* ``simulate`` of both shipped scenarios under ``event_time``, jammed by
  the random generator (seed 3, ``min_duration`` 5 delta1, ``min_gap``
  2 delta1; kappa 0 on the scalar plant, whose onsets the budget then
  places), so that an output depends on generated onsets (2 cases).

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

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
SHIPPED = ("scalar", "double_integrator")
LOGICS = ("event_time", "pure_time", "self_trigger", "ideal_event")
INPUT_MODES = ("hold_last", "zero_during_dos")


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
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(cli, case_id: str, command: str, scenario: Path, out_dir: Path) -> dict[str, object]:
    """Run one case through cli.main and digest its outputs."""
    argv = [command, "--config", str(scenario)]
    csv = out_dir / "csv" / (case_id.replace("/", "-") + ".csv")
    if command == "simulate":
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
        "csv": _sha256(csv.read_bytes()) if command == "simulate" and csv.exists() else None,
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
