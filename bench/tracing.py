"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each ``dosloop`` module and
rebinds every name that refers to an original, in every ``dosloop`` module
and class namespace, so calls between modules (``sim.exact_hold_step``,
``triggers.mat_exp``, ``cli.run``, ...) go through the wrappers too. Each
call records a span: name, start, end, parent span and job id, kept in
flat arrays in memory and written out with ``Tracer.save`` when the run
ends. Self time is a span's duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


def _found(result: object) -> int:
    return int(result is not None)


# (span name, module, attribute path, value recorded from the return value)
SPANS: tuple[tuple[str, str, str, Callable[[object], int] | None], ...] = (
    ("linalg.mat_exp", "dosloop.linalg", "mat_exp", None),
    ("linalg.spectral_norm", "dosloop.linalg", "spectral_norm", None),
    ("linalg.solve_lyapunov", "dosloop.linalg", "solve_lyapunov", None),
    ("linalg.decay_envelope", "dosloop.linalg", "decay_envelope", None),
    ("linalg.growth_envelope", "dosloop.linalg", "growth_envelope", None),
    ("plant.LtiPlant", "dosloop.plant", "LtiPlant.__init__", None),
    ("plant.LtiPlant.propagator", "dosloop.plant", "LtiPlant.propagator", None),
    ("plant.exact_hold_step", "dosloop.plant", "exact_hold_step", None),
    ("triggers.riccati_delta2", "dosloop.triggers", "riccati_delta2", None),
    ("triggers.predict_state", "dosloop.triggers", "predict_state", None),
    ("triggers.next_update_event_time", "dosloop.triggers", "next_update_event_time", None),
    ("triggers.next_update_self_trigger", "dosloop.triggers", "next_update_self_trigger", None),
    ("sim.run", "dosloop.sim", "run", len),
    ("sim.find_event_crossing", "dosloop.sim", "find_event_crossing", _found),
    ("sim.Trace.to_csv", "dosloop.sim", "Trace.to_csv", None),
    ("sim.verify_ges", "dosloop.sim", "verify_ges", None),
    ("sim.check_update_rule", "dosloop.sim", "check_update_rule", None),
    ("sim.SimConfig", "dosloop.sim", "SimConfig.__init__", None),
    ("guarantees.ges_certificate_ideal", "dosloop.guarantees", "ges_certificate_ideal", None),
    ("guarantees.ges_certificate_sampled", "dosloop.guarantees", "ges_certificate_sampled", None),
    ("guarantees.ges_certificate_lyapunov", "dosloop.guarantees", "ges_certificate_lyapunov", None),
    ("guarantees.measure_robustness", "dosloop.guarantees", "measure_robustness", None),
    ("guarantees.xi_bar_measure", "dosloop.guarantees", "xi_bar_measure", None),
    ("guarantees.rho_star", "dosloop.guarantees", "rho_star", None),
    ("dos.is_jammed", "dosloop.dos", "is_jammed", None),
    ("dos.check_slow_average", "dosloop.dos", "check_slow_average", None),
    ("dos.gen_random_budgeted", "dosloop.dos", "gen_random_budgeted", None),
    ("dos.gen_periodic", "dosloop.dos", "gen_periodic", None),
    ("cli.main", "dosloop.cli", "main", None),
    ("cli.scenario_from_dict", "dosloop.cli", "scenario_from_dict", None),
    ("cli.certificates", "dosloop.cli", "certificates", None),
    ("cli.analysis_report", "dosloop.cli", "analysis_report", None),
)

# Spans that report only self time; every other span also reports calls.
_SELF_ONLY = {
    "sim.verify_ges",
    "sim.check_update_rule",
    "sim.SimConfig",
    "guarantees.ges_certificate_ideal",
    "guarantees.ges_certificate_sampled",
    "guarantees.ges_certificate_lyapunov",
    "guarantees.measure_robustness",
    "guarantees.xi_bar_measure",
    "dos.gen_random_budgeted",
    "dos.gen_periodic",
    "cli.scenario_from_dict",
    "cli.certificates",
    "cli.analysis_report",
}

# Derived ratios: (metric name, unit, better).
_DERIVED = (
    ("plant.LtiPlant.propagator.hit_ratio", "ratio", "higher"),
    ("sim.run.rows_per_s", "1/s", "higher"),
    ("sim.find_event_crossing.steps_per_call", "count", "lower"),
    ("sim.find_event_crossing.hit_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, *_ in SPANS:
        if span not in _SELF_ONLY:
            out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    return out + list(_DERIVED)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names = [span for span, *_ in SPANS]
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack: list[int] = []
        self.job_id = -1
        self.originals: list[Callable] = []

    def wrap(self, index: int, fn: Callable, measure: Callable[[object], int] | None) -> Callable:
        name, parent, job, start, end, value, stack = (
            self.name, self.parent, self.job, self.start, self.end, self.value, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            value.append(0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if measure is not None:
                value[i] = measure(result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path: Path, scales: list[float]) -> None:
        """Write the spans, their names and each job's host-speed scale as .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), scales=np.array(scales), **self.arrays())

    def metrics(self, passes: int, scales: list[float] | None = None) -> dict[str, float]:
        """Per-layer metrics, with calls and self time given per pass of the job list.

        scales[j] converts the wall times of job j to the nominal host speed
        (see worker.HostClock); without it times stay wall times.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        k = len(self.names)
        dur = a["end"] - a["start"]
        if scales is not None:
            dur = dur * np.asarray(scales)[a["job"]]
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_time, minlength=k)
        dur_by = np.bincount(name, weights=dur, minlength=k)
        value_by = np.bincount(name, weights=a["value"], minlength=k)
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        idx = {span: i for i, span in enumerate(self.names)}

        def ratio(num: float, den: float) -> float:
            return float(num / den) if den else 0.0

        def children(child: str, of: str) -> int:
            return int(np.count_nonzero((name == idx[child]) & (parent_name == idx[of])))

        out: dict[str, float] = {}
        for span, i in idx.items():
            if span not in _SELF_ONLY:
                out[f"{span}.calls"] = calls[i] / passes
            out[f"{span}.self_s"] = self_by[i] / passes
        prop, fec, run, main = (
            idx["plant.LtiPlant.propagator"], idx["sim.find_event_crossing"], idx["sim.run"], idx["cli.main"]
        )
        out["plant.LtiPlant.propagator.hit_ratio"] = (
            1.0 - ratio(children("linalg.mat_exp", "plant.LtiPlant.propagator"), calls[prop]) if calls[prop] else 0.0
        )
        out["sim.run.rows_per_s"] = ratio(value_by[run], dur_by[run])
        out["sim.find_event_crossing.steps_per_call"] = ratio(
            children("plant.exact_hold_step", "sim.find_event_crossing"), calls[fec]
        )
        out["sim.find_event_crossing.hit_ratio"] = ratio(value_by[fec], calls[fec])
        out["trace.coverage"] = 1.0 - ratio(self_by[main], dur_by[main])
        return out


def _namespaces() -> list[object]:
    """Every dosloop module and every class those modules define."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "dosloop" or n.startswith("dosloop.")]
    classes = {
        id(v): v
        for m in modules
        for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("dosloop")
    }
    return modules + list(classes.values())


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function and rebind all its names; return an undo function.

    Raises RuntimeError if any original is still bound afterwards.
    """
    import dosloop.cli  # noqa: F401  (loads every module of the package)

    undo: list[tuple[object, str, object]] = []
    for index, (_, module, path, measure) in enumerate(SPANS):
        owner: object = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = tracer.wrap(index, original, measure)
        for ns in _namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
                    undo.append((ns, key, original))
        tracer.originals.append(original)

    def restore() -> None:
        for ns, key, original in reversed(undo):
            setattr(ns, key, original)

    leftover = untraced_bindings(tracer)
    if leftover:
        restore()
        raise RuntimeError(f"untraced bindings remain: {', '.join(leftover)}")
    return restore


def untraced_bindings(tracer: Tracer) -> list[str]:
    """Names in dosloop namespaces still bound to a function that install() wrapped."""
    ids = {id(o) for o in tracer.originals}
    return [
        f"{getattr(ns, '__name__', ns)}.{key}"
        for ns in _namespaces()
        for key, value in vars(ns).items()
        if id(value) in ids
    ]
