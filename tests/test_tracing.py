"""The benchmark's tracer (bench/tracing.py) wraps dosloop functions by name.

A renamed or moved span target fails here, in the package's own suite,
before it breaks the benchmark.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import dosloop.sim

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_benchmark_tracer_installs_on_every_span_target_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    original = dosloop.sim.find_event_crossing
    restore = tracing.install(tracer)  # raises when a binding of a wrapped function is left over
    try:
        assert len(tracer.originals) == len(tracing.SPANS)
        assert tracing.untraced_bindings(tracer) == []
        assert dosloop.sim.find_event_crossing.__wrapped__ is original
    finally:
        restore()
    assert dosloop.sim.find_event_crossing is original
    assert "dosloop.sim.run" in tracing.untraced_bindings(tracer)
