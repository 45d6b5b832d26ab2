"""The benchmark's own tests: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
HELD_OUT_SEED = 4242


@pytest.fixture
def work(request):
    path = run.WORK_ROOT / f"test-{request.node.name}".replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, work):
    workloads.generate(workload, SEED, work / "a")
    workloads.generate(workload, SEED, work / "b")
    assert _files(work / "a") == _files(work / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_gives_other_inputs_that_pass_every_check(workload, work):
    workloads.generate(workload, SEED, work / "a")
    workloads.generate(workload, HELD_OUT_SEED, work / "b")
    a, b = _files(work / "a"), _files(work / "b")
    assert a.keys() == b.keys()
    assert any(name.startswith("lqr") and a[name] != b[name] for name in a) or workload == "certify"
    assert a["manifest.json"] != b["manifest.json"]

    runner = worker.Runner(worker.import_program(), worker.load_jobs(work / "b"), work / "b")
    outcomes = runner.run(runner.jobs)
    assert runner.failures == []
    assert all(o.rows > 0 for o in outcomes)


def test_golden_check_catches_a_perturbed_report():
    golden = (worker.GOLDEN_DIR / "double_integrator.txt").read_text()
    values = worker.parse_report(golden)
    job = worker.Job("analyze-double_integrator", "analyze", "x.json", (), "double_integrator")
    assert worker.check_job(job, 0, golden, golden) is None

    alpha = float(values["alpha_sampled"])
    line = f"alpha_sampled = {values['alpha_sampled']}"
    within = golden.replace(line, f"alpha_sampled = {alpha * (1 + 1e-12)!r}")
    beyond = golden.replace(line, f"alpha_sampled = {alpha * (1 + 1e-6)!r}")
    assert worker.check_job(job, 0, within, golden) is None
    assert "alpha_sampled" in worker.check_job(job, 0, beyond, golden)
    assert worker.check_job(job, 0, golden.replace("delta2_source = computed", "delta2_source = config"), golden)
    assert worker.check_job(job, 0, golden.replace("feasible_all = true\n", ""), golden)


def test_check_job_fails_every_bad_output():
    job = worker.Job("j", "simulate", "x.json", ("sampled",), None)
    good = "trace_rows = 10\ndiverged = false\ncertificate = sampled\nges_holds = true\nupdate_rule_holds = true\n"
    assert worker.check_job(job, 0, good, None) is None
    assert worker.check_job(job, 3, good, None) == "exit code 3"
    assert worker.check_job(job, 0, good.replace("ges_holds = true", "ges_holds = false"), None)
    assert worker.check_job(job, 0, good.replace("diverged = false", "diverged = true"), None)
    assert worker.check_job(job, 0, good.replace("= sampled", "= uncertified"), None)


def test_a_raising_job_is_a_failed_job(work):
    job = worker.Job("j", "analyze", "x.json", (), None)

    def boom(argv):
        raise ValueError("bug")

    assert worker.run_job(boom, job, work, None).failure == "raised ValueError: bug"


def test_tracing_rebinds_every_name_and_keeps_outputs(work):
    workloads.generate("periodic_sim", SEED, work)
    jobs = [j for j in worker.load_jobs(work) if j.id.startswith("scalar")]
    runner = worker.Runner(worker.import_program(), jobs, work)
    runner.run(jobs)

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        import dosloop.sim

        assert tracing.untraced_bindings(tracer) == []
        runner.run(jobs, tracer)
        assert runner.failures == []  # traced CSV bytes and reports equal the untraced ones
        m = tracer.metrics(passes=1)
        assert m["cli.main.calls"] == len(jobs)
        assert m["sim.run.calls"] == len(jobs)
        assert m["triggers.predict_state.calls"] > 0
        assert m["sim.find_event_crossing.calls"] == 0
        assert 0.9 < m["trace.coverage"] <= 1.0

        traced_step = dosloop.sim.exact_hold_step
        dosloop.sim.exact_hold_step = traced_step.__wrapped__
        assert tracing.untraced_bindings(tracer) == ["dosloop.sim.exact_hold_step"]
    finally:
        restore()
    assert "dosloop.sim.exact_hold_step" in tracing.untraced_bindings(tracer)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    main, run_ = tracer.names.index("cli.main"), tracer.names.index("sim.run")
    step = tracer.names.index("plant.exact_hold_step")
    # main [0, 10] > run [1, 5] > step [2, 3]
    for name, parent, start, end in ((main, -1, 0.0, 10.0), (run_, 0, 1.0, 5.0), (step, 1, 2.0, 3.0)):
        tracer.name.append(name)
        tracer.parent.append(parent)
        tracer.job.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.value.append(0)
    m = tracer.metrics(passes=2)
    assert m["cli.main.self_s"] == 3.0
    assert m["sim.run.self_s"] == 1.5
    assert m["plant.exact_hold_step.self_s"] == 0.5
    assert m["trace.coverage"] == pytest.approx(0.4)


def test_compare_verdicts():
    old = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert run.verdict(old, [100.2, 99.8, 100.1, 100.0, 100.3], "higher", 0.1) == "unchanged"
    assert run.verdict(old, [80.0, 81.0, 79.0, 80.0, 80.5], "higher", 0.1) == "worse"
    assert run.verdict(old, [80.0, 81.0, 79.0, 80.0, 80.5], "lower", 0.1) == "better"
    assert run.verdict(old, [50.0, 150.0, 100.0, 60.0, 140.0], "higher", 0.1) == "unresolved"
    assert run.verdict(old, [100.0], "higher", 0.1) == "unresolved"
    assert run.verdict(old, [200.0], "higher", 0.1) == "better"
    # a median just past the old spread is not a gain unless nine tenths of the pairs agree
    assert run.verdict(old, [101.6, 98.0, 101.7, 101.5, 99.0], "higher", 0.1) == "unchanged"


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_specs()

    names = set(run.END_TO_END) | {m["name"] for m in spec["per_layer"]}
    for p in json.loads((BENCH / "predictions.json").read_text())["predictions"]:
        assert set(p["layer_metrics"]) <= names, p["name"]
        for claim in p["moves"] + p["no_change"]:
            assert claim["metric"] in run.END_TO_END, p["name"]
            assert set(claim["on"]) <= set(workloads.WORKLOADS), p["name"]


def test_one_run_prints_the_result_line(work):
    out = work / "result.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd + ["--out", str(out)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == set(run.END_TO_END)
    record = json.loads(out.read_text())["results"][0]
    assert record["meta"]["seed"] == 1 and record["meta"]["rows_per_pass"] > 0


def test_fails_without_the_program(work):
    shutil.copytree(BENCH, work / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    cmd = [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
