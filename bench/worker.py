"""Benchmark worker: one workload in one fresh, single-threaded interpreter.

    python3 bench/worker.py setup WORK_DIR
    python3 bench/worker.py jobs WORK_DIR --seconds S [--trace SPANS_PATH]

``setup`` times, from before ``import dosloop`` until every scenario of the
workload has been loaded once, then samples HostClock, and prints
``{"setup_s": ..., "ref_s": ...}``. Nothing heavier than the standard
library is imported before the clock starts.

``jobs`` runs the first job once untimed (lazy imports, first-call costs),
then whole timed passes over the job list until ``S`` seconds are spent,
and prints one JSON result line. A job is one in-process
``dosloop.cli.main([...])`` call with stdout and stderr captured; its time
is also given at the nominal host speed (see HostClock). With ``--trace``
the time is split: passes without wrappers first, then the same passes with
every public function wrapped (see tracing.py); spans are written to
SPANS_PATH.

Every job goes through ``check_job``. Its outputs (report text and a
digest of the trace CSV) must also equal those of its first run, so a
traced run that changed any output byte counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# Relative tolerance of analyze reports against their golden copies.
GOLDEN_REL_TOL = 1e-9
# Median time of one HostClock sample on the development host (2-vCPU VM,
# Python 3.11, numpy 2.4, scipy 1.17): reported times are at this host speed.
REF_NOMINAL_S = 0.004
# A job's host speed is the median reference sample of this many jobs centred
# on it: one sample is as noisy as the host, a window of a few jobs is not.
SCALE_WINDOW = 5
# Reference samples taken in each setup probe, after its clock stops.
SETUP_REF_SAMPLES = 9


@dataclass(frozen=True)
class Job:
    """One ``dosloop`` command on one generated scenario file."""

    id: str
    command: str  # "simulate" or "analyze"
    scenario: str  # file name inside the work directory
    expect: tuple[str, ...]  # accepted certificate families (simulate only)
    golden: str | None  # golden report under bench/golden (analyze only)


def load_jobs(work_dir: Path) -> list[Job]:
    doc = json.loads((work_dir / "manifest.json").read_text())
    return [Job(j["id"], j["command"], j["scenario"], tuple(j["expect"]), j["golden"]) for j in doc["jobs"]]


def import_program():
    """Import dosloop.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import dosloop.cli

    if Path(dosloop.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"dosloop imported from {dosloop.cli.__file__}, not from {SRC}")
    return dosloop.cli


def parse_report(text: str) -> dict[str, str]:
    """The ``name = value`` lines of a report; raises ValueError on any other line."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a report line: {line!r}")
        out[key] = value
    return out


def _as_number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def golden_mismatch(values: dict[str, str], golden: dict[str, str], rel: float = GOLDEN_REL_TOL) -> str | None:
    """First difference from the golden report: same keys in order, numbers within rel, text exact."""
    if list(values) != list(golden):
        return f"report keys differ from golden: {sorted(set(values) ^ set(golden)) or 'order'}"
    for key, want in golden.items():
        got = values[key]
        a, b = _as_number(got), _as_number(want)
        if a is None or b is None:
            if got != want:
                return f"{key} = {got}, golden {want}"
        elif not (a == b or abs(a - b) <= rel * abs(b)):
            return f"{key} = {got}, golden {want} (relative tolerance {rel:g})"
    return None


def check_job(job: Job, code: object, report: str, golden: str | None) -> str | None:
    """Why the job's output is wrong, or None when it is correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        values = parse_report(report)
    except ValueError as exc:
        return str(exc)
    for key, value in values.items():
        if key.endswith("_holds") and value != "true":
            return f"{key} = {value}"
    if job.command == "simulate":
        if values.get("diverged") != "false":
            return f"diverged = {values.get('diverged')}"
        if values.get("certificate") not in job.expect:
            return f"certificate = {values.get('certificate')}, expected one of {', '.join(job.expect)}"
        if "trace_rows" not in values:
            return "no trace_rows line"
    else:
        if values.get("feasible_all") != "true":
            return f"feasible_all = {values.get('feasible_all')}"
        if golden is not None:
            return golden_mismatch(values, parse_report(golden))
    return None


class HostClock:
    """Measures the host's current speed with a fixed reference kernel.

    On a shared host the same code runs tens of percent faster or slower from
    one minute to the next, so raw wall times of whole runs spread too widely
    to compare. A sample, taken right before each job, times a fixed kernel
    of 8x8 matrix exponentials and 2-norms. Of the kernels tried (this one,
    and Python-level mixes of float formatting, list and dict work and small
    numpy calls), it tracked the speed of both simulate and analyze jobs
    best. A time multiplied by REF_NOMINAL_S / sample is the time at the
    nominal host speed.
    """

    def __init__(self) -> None:
        import numpy as np
        from scipy.linalg import expm

        self._norm, self._expm = np.linalg.norm, expm
        self._m = np.linspace(-0.3, 0.3, 64).reshape(8, 8)
        for _ in range(3):
            self.sample()

    def sample(self) -> float:
        norm, expm, m = self._norm, self._expm, self._m
        t0 = time.perf_counter()
        for k in range(60):
            norm(expm(m * (1 + k)), 2)
        return time.perf_counter() - t0


@dataclass
class Outcome:
    seconds: float  # wall time
    rows: int
    failure: str | None
    outputs: tuple[str, str]  # report text, CSV digest
    ref_s: float = REF_NOMINAL_S  # HostClock sample taken right before the job
    scale: float = 1.0  # set by Runner.scales()

    @property
    def normalized(self) -> float:
        return self.seconds * self.scale


def run_job(main, job: Job, work_dir: Path, golden: str | None) -> Outcome:
    argv = [job.command, "--config", str(work_dir / job.scenario)]
    csv = work_dir / f"{job.id}.csv"
    if job.command == "simulate":
        argv += ["--out", str(csv)]
    out, err = io.StringIO(), io.StringIO()
    raised = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a raising job is a failed job, not a crashed benchmark
        code, raised = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    report = out.getvalue()
    failure = raised or check_job(job, code, report, golden)
    if failure and err.getvalue():
        failure += f" ({err.getvalue().strip()[:200]})"
    rows = 0
    digest = ""
    if failure is None:
        if job.command == "simulate":
            rows = int(parse_report(report)["trace_rows"])
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        else:
            rows = len(report.splitlines())
    return Outcome(seconds, rows, failure, (report, digest))


class Runner:
    """Runs passes over a job list and keeps every outcome."""

    def __init__(self, cli, jobs: list[Job], work_dir: Path) -> None:
        self.cli = cli  # main is looked up per job, so installed wrappers are seen
        self.jobs = jobs
        self.work_dir = work_dir
        self.goldens = {
            j.golden: (GOLDEN_DIR / f"{j.golden}.txt").read_text() for j in jobs if j.golden is not None
        }
        self.first_outputs: dict[str, tuple[str, str]] = {}
        self.clock = HostClock()
        self.attempted: list[Outcome] = []  # indexed like tracer job ids
        self.failures: list[str] = []

    def run(self, jobs: list[Job], tracer=None) -> list[Outcome]:
        outcomes = []
        for job in jobs:
            if tracer is not None:
                tracer.job_id = len(self.attempted)
            ref_s = self.clock.sample()
            o = run_job(self.cli.main, job, self.work_dir, self.goldens.get(job.golden))
            o.ref_s = ref_s
            self.attempted.append(o)
            if o.failure is None:
                if o.outputs != self.first_outputs.setdefault(job.id, o.outputs):
                    o.failure = "output differs from its first run"
            if o.failure is not None:
                self.failures.append(f"{job.id}: {o.failure}")
            outcomes.append(o)
        return outcomes

    def timed(self, seconds: float, tracer=None) -> tuple[list[Outcome], int]:
        """Whole passes while another one is expected to fit in `seconds` (at least one)."""
        outcomes: list[Outcome] = []
        passes = 0
        t0 = time.perf_counter()
        while passes == 0 or (time.perf_counter() - t0) * (passes + 1) / passes <= seconds:
            outcomes += self.run(self.jobs, tracer)
            passes += 1
        return outcomes, passes

    def scales(self) -> list[float]:
        """Set and return every attempted job's host-speed scale (window median of reference samples)."""
        refs = [o.ref_s for o in self.attempted]
        h = SCALE_WINDOW // 2
        for i, o in enumerate(self.attempted):
            o.scale = REF_NOMINAL_S / statistics.median(refs[max(0, i - h) : i + h + 1])
        return [o.scale for o in self.attempted]


def _figures(outcomes: list[Outcome], jobs_per_pass: int, seconds) -> dict[str, object]:
    by_job = [outcomes[k::jobs_per_pass] for k in range(jobs_per_pass)]
    medians = [statistics.median(seconds(o) for o in runs) for runs in by_job]
    pass_s = sum(medians)
    ms = [seconds(o) * 1e3 for o in outcomes]
    out: dict[str, object] = {
        "jobs_per_s": jobs_per_pass / pass_s,
        "rows_per_s": sum(runs[0].rows for runs in by_job) / pass_s,
        "job_ms_p50": statistics.median(ms),
        "job_median_ms": [m * 1e3 for m in medians],
    }
    if len(ms) >= 100:
        out["job_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    return out


def summarize(outcomes: list[Outcome], jobs_per_pass: int) -> dict[str, object]:
    """End-to-end figures of whole timed passes (failed jobs included in the time).

    Figures use host-normalized job times; the same figures from raw wall
    times are under "wall". Throughput uses each job's median time over the
    passes, so a burst of slowness that hits one pass does not move it.
    """
    out = _figures(outcomes, jobs_per_pass, lambda o: o.normalized)
    out["wall"] = _figures(outcomes, jobs_per_pass, lambda o: o.seconds)
    out["jobs"] = len(outcomes)
    return out


def metadata(cli) -> dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "dosloop": str(Path(cli.__file__).resolve().parent),
    }


def cmd_setup(work_dir: Path) -> dict[str, float]:
    """Set-up wall time, and the median of SETUP_REF_SAMPLES HostClock samples taken right after."""
    jobs = load_jobs(work_dir)
    t0 = time.perf_counter()
    cli = import_program()
    for job in jobs:
        cli.load_scenario(work_dir / job.scenario)
    setup_s = time.perf_counter() - t0
    clock = HostClock()
    return {"setup_s": setup_s, "ref_s": statistics.median(clock.sample() for _ in range(SETUP_REF_SAMPLES))}


def cmd_jobs(work_dir: Path, seconds: float, spans: Path | None) -> dict[str, object]:
    cli = import_program()
    jobs = load_jobs(work_dir)
    runner = Runner(cli, jobs, work_dir)
    runner.run(jobs[:1])
    result: dict[str, object] = {"meta": metadata(cli), "jobs_per_pass": len(jobs)}
    if spans is None:
        outcomes, passes = runner.timed(seconds)
        runner.scales()
        result.update(summarize(outcomes, len(jobs)), passes=passes)
        result["rows_per_pass"] = sum(o.rows for o in outcomes[: len(jobs)])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracing

        plain, _ = runner.timed(seconds / 2.0)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced, passes = runner.timed(seconds / 2.0, tracer)
        finally:
            restore()
        scales = runner.scales()
        tracer.save(spans, scales)
        layer = tracer.metrics(passes, scales)
        layer["trace.overhead_ratio"] = summarize(traced, len(jobs))["jobs_per_s"] / summarize(plain, len(jobs))["jobs_per_s"]
        result.update(layer=layer, passes=passes, jobs=len(traced), spans=len(tracer.name))
        result["rows_per_pass"] = sum(o.rows for o in plain[: len(jobs)])
    result.update(attempted=len(runner.attempted), failed=len(runner.failures), failures=runner.failures[:20])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "jobs"))
    parser.add_argument("work_dir", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=Path, default=None, help="write spans here and report per-layer metrics")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = cmd_setup(args.work_dir)
    else:
        if not (args.seconds > 0 and math.isfinite(args.seconds)):
            parser.error("--seconds must be positive")
        result = cmd_jobs(args.work_dir, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
