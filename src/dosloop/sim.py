"""Event-driven closed-loop simulator with exact segment integration.

The loop advances from stop to stop (next record tick, next jam breakpoint,
next transmission attempt, horizon), integrating the held-input dynamics
exactly over each segment. Attempt instants follow the configured scheduling
logic; a successful attempt swaps the held sample and resets the transmission
error. Traces carry regular samples plus dedicated rows at attempts (pre- and
post-jump at the same timestamp) and jam breakpoints.

Between two such events the loop state z = [x; x_held] follows z <- M z with
M = [[T, H], [0, I]] from LtiPlant.propagator (mat_exp, not cached), so k
equal steps are the first k powers of M. LtiPlant.power_table builds those
powers by doubling from the one propagator and keeps the record step's table,
one per input mode. run() steps every stretch of full record ticks
before the next event as one product of that table with z, up to
POWER_TABLE_ROWS ticks per block, with vectorised norms and divergence
guard. Every other step is a single step of a one-off length, by
LtiPlant.step: off-tick steps to an attempt, a jam breakpoint or the first
tick after one. Those steps are short, so they sum the plant's Taylor table
rather than take a fresh matrix exponential each. Vectors are validated
once, by SimConfig, not per step.

The event logics integrate each segment once: while they wait for
||e|| to reach sigma ||x||, run() watches the states it computes (_Watch),
clearing each cell between two of them by a proved bound and handing a
cell the bound cannot clear to find_event_crossing's safe steps. Both use
one Lipschitz bound from the exact derivative ||A x + B K x_held|| and one
rounding slack. Rows a block stepped past the crossing are dropped.

Trace rows are written into growable numpy column arrays, a row or a block
at a time. They are the run's only record: the verdicts read attempts,
onsets and divergence from the columns. The run loop keeps its state (t,
x, x_held, the failed flag, t_held) in locals and builds a LoopState only
for a scheduler. It takes its jam state from its cursor over the sorted
jam breakpoints, not from a search per stop, and computes the input
K x_held only when the held sample changes. Row norms never under-estimate
(linalg._norm, _row_norms): a block's rows take theirs from one _row_norms
pass, and every other row from _norm, once per stop; the two may differ in
the last bit, so a row keeps the one its path gives. Trace.to_csv writes
the exact '%.17g' text of every float with a bulk numpy kernel
(dosloop._g17), in blocks of about 7k cells.

Runs are bit-reproducible: no randomness, no wall-clock dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dos import DosBudget, DosSequence, check_slow_average, is_jammed
from .guarantees import SamplingRobustness, _window_reach
from .linalg import FloatArray, _norm, _row_norms, as_vector
from .plant import POWER_TABLE_ROWS, InputMode, LoopState, LtiPlant
from .plant import exact_hold_step  # noqa: F401  (bench/test_bench.py rebinds dosloop.sim.exact_hold_step)
from .triggers import (
    LogicKind,
    awaits_crossing,
    TriggerConfig,
    next_update_event_time,
    next_update_pure_time,
    next_update_self_trigger,
    validate_trigger_for_plant,
)

_GES_SLACK = 1e-6
_RULE_SLACK = 1e-6
_ONSET_SLACK = 1e-9
_LYAPUNOV_SLACK = 1e-6
# Trace rows formatted per write in Trace.to_csv: at most _CSV_BLOCK_ROWS,
# and no more rows than fill _CSV_BLOCK_CELLS float cells, which bounds the
# formatting kernel's temporaries whatever the plant's size. Its fixed cost
# per call stops mattering at about 7k cells: 4,096 took 7-14% longer.
_CSV_BLOCK_ROWS = 1024
_CSV_BLOCK_CELLS = 7168
# The jammed,attempt,success cells and the line end, one NUL-padded 8-byte
# word per 4 jammed + 2 attempt + success.
_CSV_FLAG_WORDS = np.frombuffer(
    b"".join(f"{j},{a},{s}\r\n\0".encode() for j in (0, 1) for a in (0, 1) for s in (0, 1)), dtype=np.uint64
)
# Fewest record ticks in the first block stepped while watching for a
# crossing; each later block doubles, up to POWER_TABLE_ROWS.
_SCAN_BLOCK_MIN = 16
# Relative rounding slack of the crossing bounds (see find_event_crossing, _Watch).
_CROSSING_SLACK = 1e-12
_STAT_KEYS = (
    "blocks_stepped",
    "rows_emitted",
    "crossing_searches",
    "cells_scanned",
    "root_trials",
    "taylor_steps",
    "expm_steps",
)


def _new_stats() -> dict[str, int]:
    """Zeroed run counters; see Trace."""
    return {key: 0 for key in _STAT_KEYS}


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything one run needs; validated on construction.

    record_step must not exceed delta1/4 so traces resolve the fast retry
    cadence, and the jam sequence must satisfy the declared budget over the
    run horizon. delta2 admissibility against the plant is enforced for the
    finite-rate logics; IDEAL_EVENT never reads delta2.
    """

    plant: LtiPlant
    logic: LogicKind
    trigger: TriggerConfig
    dos: DosSequence
    budget: DosBudget
    x0: FloatArray
    horizon: float
    record_step: float
    crossing_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not isinstance(self.logic, LogicKind):
            raise ValueError(f"logic must be a LogicKind, got {self.logic!r}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (self.record_step > 0.0 and math.isfinite(self.record_step)):
            raise ValueError(f"record_step must be positive, got {self.record_step}")
        if self.record_step > self.trigger.delta1 / 4.0 * (1.0 + 1e-12):
            raise ValueError(
                f"record_step {self.record_step} must be <= delta1/4 = {self.trigger.delta1 / 4.0}"
            )
        if not (self.crossing_tol > 0.0 and math.isfinite(self.crossing_tol)):
            raise ValueError(f"crossing_tol must be positive, got {self.crossing_tol}")
        object.__setattr__(self, "x0", as_vector(self.x0, self.plant.n, "x0"))
        verdict = check_slow_average(self.dos, self.budget, self.horizon)
        if not verdict.ok:
            raise ValueError(
                f"jam sequence violates its budget at t={verdict.violation_time:.6g} "
                f"(excess {verdict.worst_excess:.3e})"
            )
        if self.logic is not LogicKind.IDEAL_EVENT:
            validate_trigger_for_plant(self.trigger, self.plant)


@dataclass(eq=False)
class Trace:
    """Array-of-rows recording of one run (see run() for the row conventions).

    The columns are the run's only record. Attempt times are
    t[attempt == 1] and their outcomes success[attempt == 1]; each jam
    onset the run reached has a row at its time; a diverged run's last row is
    the state that tripped the guard, at t[-1].

    stats holds plain integer counters of the run: blocks_stepped (blocks of
    record ticks stepped as one product), rows_emitted, cells_scanned
    (cells between computed states tested by _Watch's bound, those stepped
    past a crossing included), crossing_searches (find_event_crossing calls,
    one per cell the bound could not clear), root_trials (their safe steps,
    under the same bound), and taylor_steps and expm_steps (single steps
    from the plant's Taylor table and, past its reach, by mat_exp; safe
    steps stay within it).
    """

    t: FloatArray
    x: FloatArray
    u: FloatArray
    e_norm: FloatArray
    x_norm: FloatArray
    jammed: np.ndarray
    attempt: np.ndarray
    success: np.ndarray
    diverged: bool
    crossing_tol: float
    stats: dict[str, int] = field(default_factory=_new_stats)

    def __len__(self) -> int:
        return self.t.shape[0]

    def to_csv(self, path: str | Path) -> None:
        """Write rows as CSV: t,x1..xn,u1..um,e_norm,x_norm,jammed,attempt,success.

        Floats carry 17 significant digits (%.17g) so values round-trip
        exactly; flags are 0/1. Lines end in CRLF, as csv.writer's do.
        Attempt rows come in pre/post pairs at the same timestamp on success;
        the pre row carries the attempt and success flags.

        The bytes are those of '%.17g' % x for every float, computed in bulk
        by dosloop._g17.csv_cells: 17 correctly rounded digits from an
        error-free double-double product with a proved error below 2^-46 of
        a unit in the last digit (none for 1e-6 <= |x| < 1e17), so only
        values within 1e-6 of a rounding tie elsewhere, NaN, +-inf and |x|
        outside [1e-250, 1e250] are formatted one by one with '%.17g' % x.
        Rows are formatted and written in blocks of at most _CSV_BLOCK_ROWS
        rows and _CSV_BLOCK_CELLS floats, each one NUL-padded word matrix
        whose NUL bytes are dropped, so memory stays flat however long the
        trace is. The block is sized for throughput: the kernel's per-call
        cost is spread over about 7k cells, and its temporaries, about 150
        bytes a cell, stay near 1 MB. The input u changes only at updates
        and jam edges, so each run of rows with bit-identical u (-0.0 and
        NaN keep their own text) has its u cells formatted once, and the
        flag cells come from a table of their 8 spellings.
        """
        from ._g17 import csv_cells  # on first use: commands that write no trace never load it

        n = self.x.shape[1]
        m = self.u.shape[1]
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"u{j + 1}" for j in range(m)]
            + ["e_norm", "x_norm", "jammed", "attempt", "success"]
        )
        width = n + m + 3  # float cells per row
        block = max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_CELLS // width))
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for lo in range(0, len(self), block):
                b = slice(lo, lo + block)
                u = self.u[b]
                rows = len(u)
                bits = u.view(np.int64)
                new_run = np.ones(rows, dtype=bool)
                new_run[1:] = np.any(bits[1:] != bits[:-1], axis=1)
                own = np.column_stack((self.t[b], self.x[b], self.e_norm[b], self.x_norm[b]))
                cells = csv_cells(np.concatenate((own.ravel(), u[new_run].ravel())))
                own_cells = cells[:, : own.size].T.reshape(rows, n + 3, 4)
                u_cells = cells[:, own.size :].T.reshape(-1, m, 4)
                words = np.empty((rows, 4 * width + 1), dtype=np.uint64)
                line = words[:, :-1].reshape(rows, width, 4)
                line[:, : n + 1] = own_cells[:, : n + 1]
                line[:, n + 1 : n + 1 + m] = u_cells[np.cumsum(new_run) - 1]
                line[:, n + 1 + m :] = own_cells[:, n + 1 :]
                words[:, -1] = _CSV_FLAG_WORDS.take(self.jammed[b] * 4 + self.attempt[b] * 2 + self.success[b])
                fh.write(words.tobytes().translate(None, b"\0"))


def _slope_factor(plant: LtiPlant, sigma: float, h: float, zero_input: bool) -> float:
    """(1 + sigma) theta exp(rho h) (1 + _CROSSING_SLACK): times ||x'|| at a point, it bounds |g'| for the next h.

    inf for h past the plant's Taylor reach, where the rounding argument
    (see find_event_crossing) does not hold.
    """
    if h > plant.taylor_reach(zero_input):
        return math.inf
    env = plant.growth
    return (1.0 + sigma) * env.theta * math.exp(env.rho * h) * (1.0 + _CROSSING_SLACK)


def find_event_crossing(
    plant: LtiPlant,
    state: LoopState,
    sigma: float,
    t_from: float,
    t_max: float,
    crossing_tol: float = 1e-9,
    *,
    zero_input: bool = False,
    stats: dict[str, int] | None = None,
) -> float | None:
    """First t in (t_from, t_max] where ||e(t)|| reaches sigma ||x(t)||, by proved safe steps.

    state holds the loop values at t_from with ||e|| < sigma ||x|| or e = 0
    (a start past the threshold by more than the rounding slack raises
    ValueError). Returns the first step point where g = ||x_held - x|| -
    sigma ||x|| >= 0, or None (always for x = x_held = 0, which stays put).

    Proof: between updates x'' = A x', so ||x'(t + r)|| <= theta exp(rho r)
    ||x'(t)|| by the growth envelope, and |g'| <= (1 + sigma) ||x'||. From a
    point with g < 0, L = (1 + sigma) theta exp(rho h) ||A x + B K x_held||
    (_slope_factor; no B K term with the input zeroed) bounds |g'| for the
    next h, so g < 0 for the next -g/L. Steps of min(max(-g/L,
    crossing_tol), h, rest of the window), h = min(window, 1/rho,
    LtiPlant.taylor_reach), pass no point with g >= 0 except within a step
    of crossing_tol: the first crossing lies in (t - crossing_tol, t] or is
    an excursion that starts and ends within one such step. Rounding: -g is
    shrunk by eta = _CROSSING_SLACK (1 + sigma) (||x|| + ||x_held||) and L
    grown by 1 + _CROSSING_SLACK. eta covers the norms, the steps (a Taylor
    sum within 2.2e-17 of ||[x; x_held]|| plus rounding) and the derivative,
    computed to within about n eps ||M||_F (||x|| + ||x_held||), M the
    augmented matrix: h ||M||_F <= 1 and theta exp(rho h) <= e keep its
    share of L h below n e eps (1 + sigma) (||x|| + ||x_held||), under eta
    for n up to 1,600.

    One LtiPlant.stepper, summing its Taylor table, serves each stretch of
    h, so each step is one dot product. Near a tangency (g within L
    crossing_tol of zero) steps shrink to crossing_tol, up to window /
    crossing_tol of them. Counts go to stats when it is given. The steps
    are _Watch.safe_steps: run() arms one watch per success, and each of its
    searches reuses the watch's ||x_held||, B K x_held and slope factor.
    """
    if not crossing_tol > 0.0:
        raise ValueError(f"crossing_tol must be positive, got {crossing_tol}")
    watch = _Watch(plant, sigma, crossing_tol, _new_stats() if stats is None else stats)
    watch.arm(state.x_held)
    return watch.safe_steps(t_from, state.x, t_max, zero_input)


class _Watch:
    """Watches the states run() computes for the first crossing of ||e|| = sigma ||x||.

    Armed after a success (triggers.awaits_crossing). A cell [a, b] between
    consecutive states is clear when g_a < 0, g_b < 0 and
    g_a + g_b + L h + eta < 0 (h = b - a): L = _slope_factor(h)
    ||A x_a + B K x_held|| (no B K with the input zeroed), the Lipschitz
    constant that find_event_crossing steps by, taken at every cell start
    by one product per block or per single step, gives g <= (g_a + g_b +
    L h) / 2 < 0 on the cell (Piyavskii 1972; Shubert 1972). The rounding
    argument is the search's, eta = _CROSSING_SLACK (1 + sigma) (||x_a|| +
    ||x_b|| + ||x_held||) also covering the stepping error of the states
    (below 1e-12 of max(||x||, ||x_held||) in the suite's checks); no cell
    past the Taylor reach is cleared. A cell the bound cannot clear goes to
    safe_steps, find_event_crossing's search, which shares the armed
    ||x_held|| and B K x_held and the slope factor of the last step length;
    a state with g >= 0 bounds the crossing. Blocks stepped while watching
    hold at most size ticks: the last watch's tick count (at least
    _SCAN_BLOCK_MIN), doubling per block.
    """

    def __init__(self, plant: LtiPlant, sigma: float, crossing_tol: float, stats: dict[str, int]) -> None:
        self.plant = plant
        self.sigma = sigma
        self.tol = crossing_tol
        self.stats = stats
        self.active = False
        self.last = 0  # record ticks the last watch stepped, up to its crossing
        self._lip = (math.nan, False, math.nan)  # (h, zero input, _slope_factor) last taken

    def arm(self, x_held: FloatArray) -> None:
        """Start watching from the state x_held itself (e = 0), just after a success."""
        self.active = True
        self.x_held = x_held
        self.held = _norm(x_held)
        self.bkw = self.plant.bk @ x_held
        self.g, self.n = -self.sigma * self.held, self.held  # g and ||x|| of the current state
        self.size = max(_SCAN_BLOCK_MIN, self.last)
        self.ticks = 0  # record ticks stepped since arming

    def _slope(self, h: float, zi: bool) -> float:
        """_slope_factor(h), taken once per run of equal step lengths."""
        if self._lip[:2] != (h, zi):
            self._lip = (h, zi, _slope_factor(self.plant, self.sigma, h, zi))
        return self._lip[2]

    def _derivative(self, x: FloatArray, zi: bool) -> FloatArray:
        """x' = A x + B K x_held (A x with the input zeroed) of a state, or of each row of a block."""
        ax = x @ self.plant.A.T
        return ax if zi else ax + self.bkw

    def _clear(self, g_a, g_b, n_a, n_b, d_a, h: float, zi: bool):
        """Whether the bound clears each cell of length h (floats or arrays of cells); d_a = ||x'|| at its start."""
        rise = self._slope(h, zi) * h * d_a
        eta = _CROSSING_SLACK * (1.0 + self.sigma) * (n_a + n_b + self.held)
        return (g_a < 0.0) & (g_b < 0.0) & (g_a + g_b + rise + eta < 0.0)

    def safe_steps(self, t_from: float, x: FloatArray, t_max: float, zi: bool) -> float | None:
        """find_event_crossing from x at t_from, with the armed held sample."""
        window = t_max - t_from
        if window <= 0.0:
            return None
        plant, sigma, xh, held = self.plant, self.sigma, self.x_held, self.held
        x_n = _norm(x)
        if x_n == 0.0 and held == 0.0:
            return None
        g = _norm(xh - x) - sigma * x_n
        if g > _CROSSING_SLACK * (1.0 + sigma) * (x_n + held):
            raise ValueError("state already violates the update-rule threshold at t_from")
        stats = self.stats
        stats["crossing_searches"] += 1
        rho = plant.growth.rho
        h = min(window, 1.0 / rho if rho > 0.0 else math.inf, plant.taylor_reach(zi))
        lip = self._slope(h, zi)
        bkw = 0.0 if zi else self.bkw
        advance = plant.stepper(x, xh, zi, stats)
        base = t = 0.0  # offsets from t_from of the stepper's start and of x
        while g < 0.0 and t < window:
            slope = lip * _norm(plant.A @ x + bkw)
            safe = (-g - _CROSSING_SLACK * (1.0 + sigma) * (x_n + held)) / slope if slope > 0.0 else math.inf
            # written so that a NaN bound (an overflowing state) takes the shortest step
            s = min(safe if safe > self.tol else self.tol, h, window - t)
            if t + s - base > h:
                advance = plant.stepper(x, xh, zi, stats)
                base = t
            t = window if s == window - t else t + s
            x = advance(t - base)
            stats["root_trials"] += 1
            x_n = _norm(x)
            g = _norm(xh - x) - sigma * x_n
        if not g >= 0.0:
            return None
        return t_max if t == window else t_from + t

    def _search(self, t_a: float, x_a: FloatArray, t_b: float, g_b: float, zi: bool) -> float | None:
        """The crossing in a cell the bound could not clear, no later than t_b if g_b >= 0; one ends the watch."""
        hit = self.safe_steps(t_a, x_a, t_b, zi)
        if hit is None and g_b >= 0.0:
            hit = t_b
        self.active = hit is None
        return hit

    def block(
        self, t: float, x: FloatArray, ts: FloatArray, X: FloatArray, e_norm: FloatArray, x_norm: FloatArray, zi: bool
    ) -> tuple[int, float] | None:
        """(i, crossing time) of the first cell with a crossing, from x at t through X at ts; it ends at X[i]."""
        self.stats["cells_scanned"] += len(ts)
        g = e_norm - self.sigma * x_norm
        g_a = np.concatenate(((self.g,), g[:-1]))
        n_a = np.concatenate(((self.n,), x_norm[:-1]))
        d_a = _row_norms(self._derivative(np.concatenate((x[None], X[:-1])), zi))
        for i in np.flatnonzero(~self._clear(g_a, g, n_a, x_norm, d_a, ts[0] - t, zi)).tolist():
            hit = self._search(float(ts[i - 1]) if i else t, X[i - 1] if i else x, float(ts[i]), g[i], zi)
            if hit is not None:
                self.last = self.ticks + i + 1
                return i, hit
        self.g, self.n = float(g[-1]), float(x_norm[-1])
        self.ticks += len(ts)
        self.size = min(2 * self.size, POWER_TABLE_ROWS)
        return None

    def step(self, t: float, x: FloatArray, stop: float, x_new: FloatArray, zi: bool) -> float | None:
        """The crossing in the cell of one single step from x at t to x_new at stop, or None."""
        self.stats["cells_scanned"] += 1
        self.ticks += 1
        n_b = _norm(x_new)
        g_b = _norm(self.x_held - x_new) - self.sigma * n_b
        d_a = _norm(self._derivative(x, zi))
        hit = None if self._clear(self.g, g_b, self.n, n_b, d_a, stop - t, zi) else self._search(t, x, stop, g_b, zi)
        self.g, self.n = g_b, n_b
        return hit


class _Rows:
    """Trace columns in growable numpy arrays, filled one row or one block at a time."""

    _COLUMNS = ("t", "x", "u", "e_norm", "x_norm", "jammed", "attempt", "success")

    def __init__(self, n: int, m: int) -> None:
        cap = 1024
        self.size = 0
        self.t = np.zeros(cap)
        self.x = np.zeros((cap, n))
        self.u = np.zeros((cap, m))
        self.e_norm = np.zeros(cap)
        self.x_norm = np.zeros(cap)
        self.jammed = np.zeros(cap, dtype=np.int8)
        self.attempt = np.zeros(cap, dtype=np.int8)
        self.success = np.zeros(cap, dtype=np.int8)

    def _reserve(self, k: int) -> int:
        """Make room for k more rows (doubling the capacity); returns the index of the first."""
        i = self.size
        if i + k > len(self.t):
            cap = max(i + k, 2 * len(self.t))
            for name in self._COLUMNS:
                old = getattr(self, name)
                new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
                new[:i] = old[:i]
                setattr(self, name, new)
        self.size = i + k
        return i

    def row(
        self, t: float, x: FloatArray, u: FloatArray, e_norm: float, x_norm: float, jam: bool, att: int, suc: int
    ) -> None:
        """One row; a flag that is 0 keeps its zero fill (no row is written twice)."""
        i = self._reserve(1)
        self.t[i] = t
        self.x[i] = x
        self.u[i] = u
        self.e_norm[i] = e_norm
        self.x_norm[i] = x_norm
        if jam:
            self.jammed[i] = 1
        if att:
            self.attempt[i] = 1
            self.success[i] = suc

    def block(
        self, t: FloatArray, x: FloatArray, u: FloatArray, e_norm: FloatArray, x_norm: FloatArray, jam: bool
    ) -> None:
        """Rows without attempt flags (those columns keep their zero fill)."""
        i = self._reserve(len(t))
        rows = slice(i, self.size)
        self.t[rows] = t
        self.x[rows] = x
        self.u[rows] = u
        self.e_norm[rows] = e_norm
        self.x_norm[rows] = x_norm
        self.jammed[rows] = jam

    def columns(self) -> dict[str, np.ndarray]:
        """The filled rows of every column, copied out of the spare capacity."""
        return {name: getattr(self, name)[: self.size].copy() for name in self._COLUMNS}


def _ticks_before(k: int, rs: float, t_stop: float) -> int:
    """How many record ticks k rs, (k + 1) rs, ... lie strictly before t_stop, at most POWER_TABLE_ROWS."""
    c = min(POWER_TABLE_ROWS, max(0, math.ceil(t_stop / rs) - k))
    while c > 0 and (k + c - 1) * rs >= t_stop:
        c -= 1
    while c < POWER_TABLE_ROWS and (k + c) * rs < t_stop:
        c += 1
    return c


# A state that overflows turns into inf/NaN entries; the divergence guard
# reports that as divergence, so the floating-point warnings are redundant.
@np.errstate(over="ignore", invalid="ignore")
def run(config: SimConfig) -> Trace:
    """Simulate one run and record its trace.

    Row conventions: regular samples every record_step; a row at every jam
    breakpoint; at every attempt a row flagged attempt=1 with success=0/1
    (values just before the update), followed on success by an unflagged row
    at the same t with the new held sample (transmission error zero). The
    final row sits at the horizon unless the divergence guard (||x|| > 1e12
    ||x0||, or not finite) stopped the run early, at the time of the last row,
    which holds the state that tripped it; a jam breakpoint at that time was
    not handled. Nothing depends on the units of x: from 2^-k x0 the run has
    the same t, flags and stats, and x, u and the norms exactly 2^-k times
    the originals, while every value stays a normal float.

    Record ticks that fall strictly before the next attempt, jam breakpoint
    and the horizon are stepped as one block: one product of the record
    step's power table with [x; x_held], up to POWER_TABLE_ROWS ticks at a
    time. Its rows take their norms from _row_norms, and its divergence
    guard is the largest of them (NaN included); only a block that trips it
    is searched for the first row past the bound. While an event logic
    waits for a crossing (triggers.awaits_crossing), its next attempt is
    the crossing that _Watch finds on the computed states, in blocks of at
    most its size, and inf until then.

    Every other stop is written by single rows. The loop carries t, x,
    x_held, the failed flag and t_held in locals, and builds a LoopState
    only for a scheduler. All rows at one stop share its state, so ||x|| and
    ||x_held - x|| are taken once there, by _norm; a stop reached by a
    single step reuses the ||x|| of its divergence guard. The post-jump row
    of a success shares ||x|| with its pre-jump row, and its transmission
    error is exactly zero.
    """
    plant = config.plant
    trig = config.trigger
    dos = config.dos
    horizon = config.horizon
    rs = config.record_step
    n, m = plant.n, plant.m
    K = plant.K
    zero_mode = plant.input_mode is InputMode.ZERO_DURING_DOS

    # jam breakpoints (time, is onset), sorted: intervals cannot overlap, and
    # where one ends as the next starts, the onset sorts (and is consumed) last
    bps = sorted([(h, True) for h, _ in dos.intervals] + [(h + d, False) for h, d in dos.intervals])
    bp_i = 0
    jammed = False  # on [t, next breakpoint): whether the last breakpoint consumed was an onset

    rows = _Rows(n, m)
    stats = _new_stats()

    u_zero = np.zeros(m)
    # K x_held, recomputed only when the held sample changes; no state vector
    # is mutated in place, so rows may share them
    u_held = K @ np.zeros(n)

    watch = _Watch(plant, trig.sigma, config.crossing_tol, stats)

    def schedule(st: LoopState) -> float:
        if config.logic is LogicKind.PURE_TIME:
            return next_update_pure_time(st, trig)
        if config.logic is LogicKind.SELF_TRIGGER:
            return next_update_self_trigger(st, plant, trig)
        # a waiting event logic attempts at the crossing the watch finds
        watch.active = False
        if awaits_crossing(st, config.logic):
            watch.arm(st.x_held)
        if config.logic is LogicKind.EVENT_TIME:
            return next_update_event_time(st, trig)
        # IDEAL_EVENT: retry "continuously" while jammed, i.e. succeed at the interval's end,
        # the next breakpoint on the cursor; otherwise wait for the next crossing.
        return bps[bp_i][0] if st.last_attempt_failed else math.inf

    # the loop state, and ||x|| by _norm once taken for this x (None until then)
    t, x, xh = 0.0, config.x0.copy(), np.zeros(n)
    failed, t_held = False, 0.0
    x_n = None
    next_attempt = 0.0
    on_tick = True  # t sits on a record tick
    diverged = False
    x_max = min(1e12 * _norm(x), np.finfo(float).max)  # the divergence guard; capped, so inf trips it

    while True:
        if t >= horizon - 1e-15:
            break
        k_tick = math.floor(t / rs + 1e-9) + 1
        t_rec = k_tick * rs
        if t_rec <= t:
            t_rec += rs
        t_bp = bps[bp_i][0] if bp_i < len(bps) else math.inf
        stop = min(horizon, next_attempt, t_rec, t_bp)

        count = _ticks_before(k_tick, rs, min(horizon, next_attempt, t_bp)) if on_tick and stop == t_rec else 0
        if count:
            zi = zero_mode and jammed
            if watch.active:
                count = min(count, watch.size)
            z = x if zi else np.concatenate((x, xh))
            X = (plant.power_table(rs, count, zi)[:count].reshape(-1, z.size) @ z).reshape(count, n)
            ts = np.arange(k_tick, k_tick + count) * rs
            # one pass for both: each row's sum is the same in a stack as alone
            norms = _row_norms(np.concatenate((X, xh - X)))
            x_norm, e_norm = norms[:count], norms[count:]
            stats["blocks_stepped"] += 1
            # written so that a NaN row (inf - inf after overflow) also trips the guard
            tripped = not x_norm.max() <= x_max
            keep = int(np.flatnonzero(~(x_norm <= x_max))[0]) if tripped else count
            hit = None
            if watch.active:
                cells = slice(0, keep + 1)
                hit = watch.block(t, x, ts[cells], X[cells], e_norm[cells], x_norm[cells], zi)
            if hit is not None:
                keep, next_attempt = hit
            rows.block(ts[:keep], X[:keep], u_zero if zi else u_held, e_norm[:keep], x_norm[:keep], jammed)
            if hit is None and tripped:
                t_div, x_div = float(ts[keep]), X[keep]
                jam = is_jammed(dos, t_div)
                u = u_zero if zero_mode and jam else u_held
                rows.row(t_div, x_div, u, _norm(xh - x_div), _norm(x_div), jam, 0, 0)
                diverged = True
                break
            if keep:
                t, x, x_n = float(ts[keep - 1]), X[keep - 1], None
            continue

        if stop > t:
            zi = zero_mode and jammed
            # a full tick steps by exactly rs, as the row blocks do
            dt = rs if on_tick and stop == t_rec else stop - t
            x_new = plant.step(x, xh, dt, zi, stats)
            if watch.active:
                hit = watch.step(t, x, stop, x_new, zi)
                if hit is not None:
                    next_attempt = hit
                    if hit < stop:
                        continue  # step again, to the crossing
            t, x, x_n = stop, x_new, _norm(x_new)
            # written so that a NaN state (inf - inf after overflow) also trips the guard
            if not x_n <= x_max:
                jam = is_jammed(dos, stop)
                rows.row(stop, x, u_zero if zero_mode and jam else u_held, _norm(xh - x), x_n, jam, 0, 0)
                diverged = True
                break
        else:
            t = stop
        on_tick = stop == t_rec

        at_bp = stop == t_bp
        if at_bp:
            while bp_i < len(bps) and bps[bp_i][0] == stop:
                jammed = bps[bp_i][1]
                bp_i += 1
        if x_n is None:
            x_n = _norm(x)
        e_n = _norm(xh - x)
        u = u_zero if zero_mode and jammed else u_held
        if at_bp:
            rows.row(stop, x, u, e_n, x_n, jammed, 0, 0)
        if stop == next_attempt and stop < horizon:
            rows.row(stop, x, u, e_n, x_n, jammed, 1, 0 if jammed else 1)
            failed = jammed
            if not jammed:
                xh, t_held = x.copy(), stop
                u_held = K @ xh
                rows.row(stop, x, u_held, 0.0, x_n, jammed, 0, 0)
            next_attempt = schedule(LoopState(stop, x, xh, failed, t_held))
        elif not at_bp:
            rows.row(stop, x, u, e_n, x_n, jammed, 0, 0)

    stats["rows_emitted"] = rows.size
    return Trace(**rows.columns(), diverged=diverged, crossing_tol=config.crossing_tol, stats=stats)


def _ratio(num: FloatArray, den: FloatArray) -> FloatArray:
    """num / den elementwise, with 0 where num is 0 (also 0 / 0) and inf where only den is: no floor, so no scale."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num == 0.0, 0.0, num / den)


@dataclass(frozen=True)
class GesVerdict:
    """Result of checking a trace against alpha exp(-beta t) ||x(0)||."""

    holds: bool
    first_violation: float | None
    worst_margin: float


def verify_ges(trace: Trace, alpha: float, beta: float) -> GesVerdict:
    """Check ||x(t)|| <= alpha exp(-beta t) ||x(0)|| (slack 1 + 1e-6) on every row.

    A row whose norm is not finite (a diverged run) counts as a violation.
    """
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    x0n = float(trace.x_norm[0])
    bound = alpha * np.exp(-beta * trace.t) * x0n
    ratio = _ratio(trace.x_norm, bound)
    bad = np.nonzero(~(ratio <= 1.0 + _GES_SLACK))[0]
    return GesVerdict(
        holds=bad.size == 0,
        first_violation=float(trace.t[bad[0]]) if bad.size else None,
        worst_margin=float(ratio.max()) if len(trace) else 0.0,
    )


@dataclass(frozen=True)
class RuleVerdict:
    """Result of checking the update rule outside inflated jam windows."""

    holds: bool
    first_violation: float | None
    worst_ratio: float


def check_update_rule(
    trace: Trace,
    sigma: float,
    seq: DosSequence,
    robustness: SamplingRobustness,
) -> RuleVerdict:
    """Check ||e(t)|| <= sigma ||x(t)|| wherever transmissions were possible.

    Rows inside any inflated jam window [h_n, h_n + tau_n + gap_n), widened by
    the crossing tolerance at both edges, are exempt, as are pre-jump rows of
    successful attempts (their timestamp legally carries the post-jump value).
    The windows are tested in one pass: inflated windows may overlap, so a
    row is exempt when the latest window starting at or before it (the
    onsets are sorted) has a running maximum of window ends past it.
    """
    exempt = (trace.attempt == 1) & (trace.success == 1)
    if len(seq):
        edge = trace.crossing_tol
        # rounding is monotonic: adding edge after the running maximum of
        # end + gap gives the floats that adding it before would
        reach = _window_reach(seq, robustness) + edge
        last = np.searchsorted(seq.onsets - edge, trace.t, side="right") - 1
        exempt |= (last >= 0) & (trace.t < reach[np.maximum(last, 0)])
    atol = 1e-12 * float(trace.x_norm[0])
    limit = sigma * trace.x_norm * (1.0 + _RULE_SLACK) + atol
    bad = np.nonzero(~exempt & (trace.e_norm > limit))[0]
    ratios = _ratio(trace.e_norm, trace.x_norm)
    worst = float(ratios[~exempt].max()) if np.any(~exempt) else 0.0
    return RuleVerdict(
        holds=bad.size == 0,
        first_violation=float(trace.t[bad[0]]) if bad.size else None,
        worst_ratio=worst,
    )


def check_onset_amplification(trace: Trace, sigma: float, seq: DosSequence) -> tuple[bool, float]:
    """At the onset of every jamming period the run reached, ||x_held|| <= (1 + sigma) ||x||.

    seq is the run's jam sequence. An interval that starts where the one
    before it ends (end_k == h_{k+1}) continues that jamming period: no
    transmission was possible between them, so its onset is not checked.
    An onset's x is that of the first row at its time (run() writes a row
    at every jam breakpoint), and its held sample is the x of the last
    successful attempt row before that one (the pre-jump row carries the
    new held sample), or zero before the first success. A diverged run
    stopped before it handled a breakpoint at its last row's time, so an
    onset there is not checked.

    Allowance: the bound follows from the update rule, which the event
    logics keep only up to a crossing they find up to crossing_tol late, so
    it holds at some s in [h - crossing_tol, h], where ||x(s)|| <= ||x(h)|| +
    crossing_tol max ||x'||. As check_update_rule widens its windows by
    crossing_tol, the bound here is widened to (1 + sigma) (||x|| +
    2 crossing_tol v), where v, the mean speed of x over the cell from the
    row before the onset row, stands in for ||x'||; the factor 2 covers its
    change over that short cell. On top, a relative slack of 1e-9.

    Returns (ok, worst ratio of ||x_held|| to (1 + sigma) ||x||).
    """
    t_end = trace.t[-1]
    fresh = np.ones(len(seq), dtype=bool)
    fresh[1:] = seq.onsets[1:] != seq.ends[:-1]
    reached = seq.onsets < t_end if trace.diverged else seq.onsets <= t_end
    rows = np.searchsorted(trace.t, seq.onsets[fresh & reached])
    succ = trace.success == 1
    # the held norm after each success row, and zero before the first
    lhs = np.concatenate(([0.0], trace.x_norm[succ]))[np.searchsorted(np.flatnonzero(succ), rows)]
    rhs = (1.0 + sigma) * trace.x_norm[rows]
    prev = np.maximum(rows - 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = np.where(rows > 0, _row_norms(trace.x[rows] - trace.x[prev]) / (trace.t[rows] - trace.t[prev]), 0.0)
    ratios = _ratio(lhs, rhs)
    allowed = rhs + (1.0 + sigma) * 2.0 * trace.crossing_tol * speed
    return not np.any(lhs > allowed * (1.0 + _ONSET_SLACK)), float(ratios.max(initial=0.0))


def check_lyapunov_decay(
    trace: Trace,
    P: FloatArray,
    omega1: float,
    segments: list[tuple[float, float]],
) -> tuple[bool, float]:
    """Check V(x(t)) <= exp(-omega1 (t - s)) V(x(s)) (slack 1 + 1e-6) on each jam-free segment [s, e].

    Returns (ok, worst ratio against the bound).
    """
    V = np.einsum("ij,jk,ik->i", trace.x, P, trace.x)
    worst = 0.0
    ok = True
    for s, e in segments:
        idx = np.nonzero((trace.t >= s) & (trace.t <= e))[0]
        if idx.size < 2:
            continue
        t_ref = float(trace.t[idx[0]])
        v_ref = float(V[idx[0]])
        bound = v_ref * np.exp(-omega1 * (trace.t[idx] - t_ref))
        ratio = _ratio(V[idx], bound)
        worst = max(worst, float(ratio.max()))
        if float(ratio.max()) > 1.0 + _LYAPUNOV_SLACK:
            ok = False
    return ok, worst
