"""Jamming (denial-of-service) interval sequences and their time budgets.

A DoS sequence is a finite ordered list of right-open intervals
[h_n, h_n + tau_n) during which transmission attempts fail. Budgets bound the
accumulated jammed time by kappa + t / tau_avg (slow-on-average constraint).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .linalg import FloatArray

_BUDGET_EPS = 1e-12
_HEADER_RE = re.compile(r"^#\s*kappa\s*=\s*(\S+)\s+tau\s*=\s*(\S+)\s*$")


class GenerationError(RuntimeError):
    """A DoS generator cannot satisfy its budget/duration constraints."""


@dataclass(frozen=True)
class DosSequence:
    """Ordered, non-overlapping jamming intervals (onset, duration).

    onsets, durations and ends are read-only arrays built from intervals
    on construction; equality and hashing use intervals alone.
    """

    intervals: tuple[tuple[float, float], ...] = ()
    onsets: FloatArray = field(init=False, repr=False, compare=False)
    durations: FloatArray = field(init=False, repr=False, compare=False)
    ends: FloatArray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clean = []
        prev_end = -math.inf
        for k, pair in enumerate(self.intervals):
            h, d = float(pair[0]), float(pair[1])
            if not (math.isfinite(h) and math.isfinite(d)):
                raise ValueError(f"interval {k} must be finite, got {pair}")
            if h < 0.0:
                raise ValueError(f"interval {k} onset must be >= 0, got {h}")
            if d <= 0.0:
                raise ValueError(f"interval {k} duration must be > 0, got {d}")
            if h < prev_end:
                raise ValueError(f"interval {k} overlaps its predecessor (onset {h} < previous end {prev_end})")
            clean.append((h, d))
            prev_end = h + d
        object.__setattr__(self, "intervals", tuple(clean))
        h_arr = np.array([p[0] for p in clean], dtype=float)
        d_arr = np.array([p[1] for p in clean], dtype=float)
        for name, arr in (("onsets", h_arr), ("durations", d_arr), ("ends", h_arr + d_arr)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class DosBudget:
    """Slow-on-average budget: jammed time on [0, t] at most kappa + t / tau_avg."""

    kappa: float
    tau_avg: float

    def __post_init__(self) -> None:
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not (self.tau_avg > 1.0 and math.isfinite(self.tau_avg)):
            raise ValueError(f"tau_avg must be > 1, got {self.tau_avg}")

    def bound(self, t: float) -> float:
        return self.kappa + t / self.tau_avg


def is_jammed(seq: DosSequence, t: float) -> bool:
    """True when t lies in some [h_n, h_n + tau_n) (closed left, open right)."""
    idx = int(np.searchsorted(seq.onsets, t, side="right")) - 1
    return idx >= 0 and t < float(seq.ends[idx])


def _window_time(seq: DosSequence, t: float | FloatArray, lengths: FloatArray) -> FloatArray:
    """Jammed time on [0, t], t a float or an array, with interval k taken as [h_k, h_k + lengths[k]).

    The latest interval with onset strictly before t counts up to t, every
    earlier one whole, summed in interval order (one cumulative sum).
    """
    if not len(seq):
        return np.zeros(np.shape(t))
    n = np.searchsorted(seq.onsets, t, side="left") - 1
    k = np.maximum(n, 0)
    before = np.concatenate(([0.0], np.cumsum(lengths)))[k]
    return np.where(n >= 0, before + np.minimum(lengths[k], t - seq.onsets[k]), 0.0)


def xi_measure(seq: DosSequence, t: float) -> float:
    """Total jammed time accumulated on [0, t]."""
    return float(_window_time(seq, t, seq.durations))


def _within_budget(xi: float | FloatArray, bound: float | FloatArray) -> bool | np.ndarray:
    """Whether jammed time xi keeps to the budget: xi - bound <= _BUDGET_EPS bound, free of the unit of time."""
    return xi - bound <= _BUDGET_EPS * bound


@dataclass(frozen=True)
class Verdict:
    """Result of a check: whether it holds, the time of its first failure, and its worst value.

    first_violation is None when the check holds. What worst measures is
    given by each check: check_slow_average here, and the trace checks of
    dosloop.sim, where a check with no row to check has worst 0.0 and a row
    whose checked value is NaN fails every check.
    """

    holds: bool
    first_violation: float | None
    worst: float


def check_slow_average(seq: DosSequence, budget: DosBudget, horizon: float) -> Verdict:
    """Check xi(t) <= kappa + t / tau_avg at every breakpoint up to the horizon.

    The jammed-time measure is piecewise linear, so scanning interval onsets,
    interval ends (clipped to the horizon) and the horizon itself covers the
    extrema; first_violation is the earliest failing breakpoint, and worst
    the largest excess xi(t) - kappa - t / tau_avg over the breakpoints; a
    breakpoint fails past a slack relative to the bound (_within_budget).
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    t = np.unique(np.concatenate((seq.onsets[seq.onsets <= horizon], np.minimum(seq.ends, horizon), [horizon])))
    bound = budget.bound(t)
    xi = _window_time(seq, t, seq.durations)
    bad = np.flatnonzero(~_within_budget(xi, bound))
    first_bad = float(t[bad[0]]) if bad.size else None
    return Verdict(holds=first_bad is None, first_violation=first_bad, worst=float((xi - bound).max()))


def check_horizon(horizon: float) -> None:
    """Raise ValueError unless the run horizon is positive and finite (jam generators and runs need one)."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


def gen_periodic(onset: float, period: float, duty: float, horizon: float) -> DosSequence:
    """Periodic jamming: intervals of length duty*period every period, onsets < horizon.

    Satisfies the slow-average constraint with kappa = duty * period and
    tau_avg = 1 / duty (see periodic_budget).
    """
    if not period > 0.0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0.0 < duty < 1.0:
        raise ValueError(f"duty must lie in (0, 1), got {duty}")
    if onset < 0.0:
        raise ValueError(f"onset must be >= 0, got {onset}")
    check_horizon(horizon)
    d = duty * period
    out = []
    k = 0
    while onset + k * period < horizon:
        out.append((onset + k * period, d))
        k += 1
    return DosSequence(tuple(out))


def periodic_budget(period: float, duty: float) -> DosBudget:
    """Tightest budget satisfied by gen_periodic output: (duty * period, 1 / duty)."""
    return DosBudget(kappa=duty * period, tau_avg=1.0 / duty)


def gen_random_budgeted(
    budget: DosBudget,
    min_duration: float,
    seed: int,
    horizon: float,
    min_gap: float = 0.0,
) -> DosSequence:
    """Seeded random jamming that always satisfies the budget.

    Onset gaps are exponential, durations uniform in [min_duration,
    2*min_duration]. Any candidate that would break the budget at its own end
    is pushed to the earliest feasible onset, its end on the budget line up
    to rounding that the relative slack absorbs. Raises GenerationError
    when not even one minimum-length interval can start before the horizon.
    """
    if not min_duration > 0.0:
        raise ValueError(f"min_duration must be positive, got {min_duration}")
    if min_gap < 0.0:
        raise ValueError(f"min_gap must be >= 0, got {min_gap}")
    check_horizon(horizon)
    earliest_end = budget.tau_avg * (min_duration - budget.kappa)
    if earliest_end - min_duration >= horizon:
        raise GenerationError(
            f"min_duration {min_duration} infeasible: first interval could not "
            f"start before the horizon under budget (kappa={budget.kappa}, tau={budget.tau_avg})"
        )
    rng = np.random.default_rng(seed)
    mean_dur = 1.5 * min_duration
    gap_scale = max(mean_dur * (budget.tau_avg - 1.0), 0.25 * min_duration)
    cursor = 0.0
    jammed = 0.0
    out: list[tuple[float, float]] = []
    while True:
        h = cursor + min_gap + float(rng.exponential(gap_scale))
        d = min_duration * (1.0 + float(rng.uniform()))
        # earliest onset keeping xi(h + d) <= kappa + (h + d) / tau_avg
        h_feasible = budget.tau_avg * (jammed + d - budget.kappa) - d
        h = max(h, h_feasible)
        if h >= horizon:
            break
        out.append((h, d))
        jammed += d
        cursor = h + d
    return DosSequence(tuple(out))


def gen_greedy_adversary(
    budget: DosBudget,
    min_duration: float,
    attempt_times: Iterable[float],
) -> DosSequence:
    """Greedy attack: minimum-length intervals over as many attempts as the budget allows.

    Attempts are visited in time order; each still-uncovered attempt gets an
    interval starting right on it if the budget permits, otherwise it is
    skipped. May return an empty sequence when the budget is exhausted from
    the start.
    """
    if not min_duration > 0.0:
        raise ValueError(f"min_duration must be positive, got {min_duration}")
    times = sorted({float(t) for t in attempt_times})
    if any(t < 0.0 or not math.isfinite(t) for t in times):
        raise ValueError("attempt times must be finite and >= 0")
    out: list[tuple[float, float]] = []
    covered_end = -math.inf
    jammed = 0.0
    for t in times:
        if t < covered_end:
            continue
        end = t + min_duration
        if _within_budget(jammed + min_duration, budget.bound(end)):
            out.append((t, min_duration))
            jammed += min_duration
            covered_end = end
    return DosSequence(tuple(out))


def dumps(seq: DosSequence, budget: DosBudget | None = None) -> str:
    """Serialize: one "onset duration" pair per line, optional budget header."""
    lines = []
    if budget is not None:
        lines.append(f"# kappa={budget.kappa!r} tau={budget.tau_avg!r}")
    for h, d in seq.intervals:
        lines.append(f"{h!r} {d!r}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> tuple[DosSequence, DosBudget | None]:
    """Parse the text format written by dumps; unknown comment lines are ignored."""
    budget: DosBudget | None = None
    pairs: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                budget = DosBudget(kappa=float(m.group(1)), tau_avg=float(m.group(2)))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'onset duration', got {raw!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return DosSequence(tuple(pairs)), budget


def save(path: str | Path, seq: DosSequence, budget: DosBudget | None = None) -> None:
    Path(path).write_text(dumps(seq, budget))


def load(path: str | Path) -> tuple[DosSequence, DosBudget | None]:
    return loads(Path(path).read_text())
