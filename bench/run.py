"""The dosloop benchmark: seeded workloads of real ``dosloop`` commands.

    python3 bench/run.py --workload event_sim --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out results/new.json
    python3 bench/run.py --compare results/old results/new
    python3 -m pytest bench -q        # the benchmark's own tests

A run of one workload:

1. writes the workload's scenario files, generated from ``--seed`` by
   workloads.py, into a work directory under ``.bench_work/``;
2. measures ``setup_s`` in SETUP_REPEATS fresh interpreters (worker.py
   ``setup``) and reports their median;
3. runs the fixed job list in one fresh, single-threaded worker process
   (worker.py ``jobs``): one untimed warm-up job, then whole timed passes
   over the job list for ``--seconds``. With ``--trace 1`` the worker
   reports the per-layer metrics of tracing.py instead, from a traced half
   of the time set against an untraced half.

End-to-end metrics, from untraced runs:

- ``setup_s``: from before ``import dosloop`` until every scenario of the
  workload has been loaded once with ``cli.load_scenario``;
- ``jobs_per_s``: jobs per second over the fixed job list, from each job's
  median time over the passes;
- ``rows_per_s``: output rows per second over the same list: trace rows for
  ``simulate``, report lines for ``analyze``;
- ``job_ms_p50``: the median job time;
- ``peak_rss_mb``: peak resident memory of the worker process.

``job_ms_p90`` (runs of at least 100 jobs) and ``fail_ratio`` are printed
beside them but carry no bound: a correct program has ``fail_ratio`` 0,
and a bound is a share of the parent's value.

Times are given at a nominal host speed. On a shared host the same job's
wall time moves by tens of percent from one minute to the next, far more
than the changes the benchmark must resolve. worker.HostClock times a fixed
reference kernel right before every job, and in every setup probe right
after its clock stops; each time is scaled by REF_NOMINAL_S over the
reference times around it. Raw wall times are printed beside each metric
and kept under ``wall`` in ``--out`` records.

Every job is checked (worker.check_job); failed jobs count in ``failed``
and ``fail_ratio`` and are never dropped. ``--workload all`` runs the three
workloads one after another, one worker process at a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--out`` also
writes the full records (metrics, run metadata, job and row counts) for
``--compare``, which prints each side's median and quartiles per workload
and metric and a verdict against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 7

# Single-threaded BLAS here and in every worker (children inherit it); set
# before numpy is first imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "rows_per_s": "1/s",
    "job_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


def _child(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} took longer than {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, set up and run one workload; return its full record."""
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = workloads.generate(workload, seed, work)
        probes = [_child(["setup", str(work)], 120) for _ in range(SETUP_REPEATS)]
        args = ["jobs", str(work), "--seconds", repr(seconds)]
        if trace:
            args += ["--trace", str(WORK_ROOT / f"spans-{workload}.npz")]
        res = _child(args, 2 * seconds + 90)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "fail_ratio": res["failed"] / res["attempted"],
        "jobs": res["jobs"],
        "passes": res["passes"],
        "meta": dict(
            res["meta"],
            seed=seed,
            job_ids=[j.id for j in jobs],
            jobs_per_pass=res["jobs_per_pass"],
            rows_per_pass=res["rows_per_pass"],
            setup_probes=probes,
        ),
    }
    if trace:
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in res["layer"].items()}
        record["spans"] = res["spans"]
    else:
        setup_s = statistics.median(p["setup_s"] * worker.REF_NOMINAL_S / p["ref_s"] for p in probes)
        values = dict(res, setup_s=setup_s)
        record["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        setup_wall = statistics.median(p["setup_s"] for p in probes)
        record["wall"] = dict(res["wall"], setup_s=setup_wall, peak_rss_mb=res["peak_rss_mb"])
        record["job_median_ms"] = dict(zip(record["meta"]["job_ids"], res["job_median_ms"]))
        if "job_ms_p90" in res:
            record["job_ms_p90"] = res["job_ms_p90"]
    return record


def print_record(r: dict) -> None:
    m = r["meta"]
    mode = "traced" if r["trace"] else "untraced"
    print(
        f"== {r['workload']}  seed {r['seed']}  {mode}: {m['jobs_per_pass']} jobs x {r['passes']} timed passes"
        f" = {r['jobs']} jobs, {m['rows_per_pass']} output rows per pass"
    )
    print(
        f"   python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}  nproc {m['nproc']}"
        f" (usable {m['cpus_usable']})  blas {m['blas']} threads {m['blas_threads']['OPENBLAS_NUM_THREADS']}"
    )
    if r["trace"]:
        print(f"   trace.overhead_ratio = {r['metrics']['trace.overhead_ratio']['value']:.4f} ({r['spans']} spans)")
        print(f"   {'metric (times at nominal host speed)':<44} {'value':>14} unit")
    else:
        print(f"   {'metric (times at nominal host speed)':<44} {'value':>14} {'unit':<6} {'wall time':>14}")
    for name, v in r["metrics"].items():
        wall = f"{r['wall'][name]:>14.6g}" if not r["trace"] else ""
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_REPEATS} fresh interpreters"
        elif name == "job_ms_p50":
            note = f"of {r['jobs']} jobs"
        print(f"   {name:<44} {v['value']:>14.6g} {v['unit']:<6} {wall} {note}")
    if not r["trace"]:
        if "job_ms_p90" in r:
            print(f"   {'job_ms_p90':<44} {r['job_ms_p90']:>14.6g} {'ms':<6} {r['wall']['job_ms_p90']:>14.6g} of {r['jobs']} jobs")
        print(f"   {'fail_ratio':<44} {r['fail_ratio']:>14.6g} {'ratio':<6} {'':>14} {r['failed']} of {r['attempted']} jobs")
    for f in r["failures"]:
        print(f"   FAILED {f}")


def stress_checks(records: list[dict]) -> list[tuple[str, bool]]:
    """The traced runs' evidence that each workload stresses what it claims."""
    layer = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()} for r in records if r["trace"]}
    if set(layer) != set(workloads.WORKLOADS):
        return []

    def job_time(w: str) -> float:
        return sum(v for k, v in layer[w].items() if k.endswith(".self_s"))

    def sim_share(w: str) -> float:
        return (layer[w]["sim.run.self_s"] + layer[w]["sim.Trace.to_csv.self_s"]) / job_time(w)

    certify_self = {k: v for k, v in layer["certify"].items() if k.endswith(".self_s")}
    return [
        (
            "sim.find_event_crossing.calls > 0 only on event_sim",
            all((layer[w]["sim.find_event_crossing.calls"] > 0) == (w == "event_sim") for w in layer),
        ),
        (
            "an envelope function holds the largest self time on certify",
            max(certify_self, key=certify_self.get) in ("linalg.decay_envelope.self_s", "linalg.growth_envelope.self_s"),
        ),
        (
            "sim.run + Trace.to_csv self time is a larger share of job time on periodic_sim than on event_sim",
            sim_share("periodic_sim") > sim_share("event_sim"),
        ),
    ]


def load_records(path: Path) -> list[dict]:
    """Every record in a --out file, or in all .json files of a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [r for f in files for r in json.loads(f.read_text())["results"]]


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (inf with fewer than two values)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0.0:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(old: list[float], new: list[float], better: str, bound: float | None) -> str:
    """better / worse / unchanged, or unresolved when the run-to-run spread exceeds the bound.

    worse: the new median is worse than the old by more than the bound.
    better: the new run beats the old one in at least nine tenths of all
    (new, old) pairs, and the medians differ by more than the old runs' own
    spread. Where the spread exceeds the bound, only a new side whose every
    run beats every old run reads better.
    """
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    mo, mn = statistics.median(old), statistics.median(new)
    if mo == 0.0:
        return "unchanged" if mn == 0.0 else "unresolved"
    worse_by = sign * (mn - mo) / abs(mo)
    wins = sum(sign * (n - o) < 0 for n in new for o in old) / (len(new) * len(old))
    if max(_spread(old), _spread(new)) > bound:
        return "better" if wins == 1.0 else "unresolved"
    if worse_by > bound:
        return "worse"
    if wins >= 0.9 and -worse_by > _spread(old):
        return "better"
    return "unchanged"


def compare(old_path: Path, new_path: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    old, new = load_records(old_path), load_records(new_path)

    def q(values: list[float]) -> str:
        if len(values) < 2:
            return f"{values[0]:.6g} [-] (n=1)"
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"

    print(f"{'workload':<13} {'metric':<44} {'old median [q1, q3]':<38} {'new median [q1, q3]':<38} {'change':>8}  verdict")
    for w in workloads.WORKLOADS:
        for trace in (False, True):
            a = [r for r in old if r["workload"] == w and r["trace"] == trace]
            b = [r for r in new if r["workload"] == w and r["trace"] == trace]
            if not a or not b:
                continue
            for name, (better, bound) in bounds.items():
                va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
                vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
                if not va or not vb:
                    continue
                mo = statistics.median(va)
                change = f"{(statistics.median(vb) - mo) / abs(mo):+.1%}" if mo else "n/a"
                print(f"{w:<13} {name:<44} {q(va):<38} {q(vb):<38} {change:>8}  {verdict(va, vb, better, bound)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the dosloop benchmark, or compare two result sets.")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed seconds per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--out", type=Path, help="also write the full records here as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"), help="result files or directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seed < 0 or not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "dosloop" / "__init__.py").is_file():
        print(f"error: program source {ROOT / 'src' / 'dosloop'} not found", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in records:
        print_record(r)
    for claim, ok in stress_checks(records):
        print(f"   {'ok  ' if ok else 'FAIL'} {claim}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"results": records}, indent=1) + "\n")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
