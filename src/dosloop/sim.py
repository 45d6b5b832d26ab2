"""Event-driven closed-loop simulator with exact segment integration.

The loop advances from stop to stop (next record tick, next jam breakpoint,
next transmission attempt, horizon), integrating the held-input dynamics
exactly over each segment. Attempt instants follow the configured scheduling
logic; a successful attempt swaps the held sample and resets the transmission
error. Traces carry regular samples plus dedicated rows at attempts (pre- and
post-jump at the same timestamp) and jam breakpoints.

Between two such events the loop state z = [x; w] follows z' = M z with
M = [[A, B K], [0, 0]], w the applied sample: x_held, or zero while jammed
under InputMode.ZERO_DURING_DOS. run() steps each segment as Taylor
stretches, in two phases. Phase 1 is a loop over the stops that change the
state or the applied sample (an attempt, a jam breakpoint, the end of a
stretch, the horizon): at each it decides and steps, and nothing else. It
forms LtiPlant.taylor_coeffs once, and the next stop's state is one
LtiPlant.step with them. A stretch holds at most _STRETCH_ROWS rows and no
offset past LtiPlant.taylor_reach; where no tick and no stop lies within
the reach, it ends at the reach with no row, so every state is one step
within the reach. Every row joins a pending chunk as indices and flags: the
record ticks strictly between two stops as their stretch, a stop's rows
with its state. Phase 2 writes each chunk in bulk: one batched product of
the offsets' powers with the stretches' coefficients (LtiPlant.stretch),
at most _CHUNK_ROWS padded rows, and one _row_norms pass for the norms of
every row. The divergence guard tests each stop state once, right after
it is stepped. Vectors are validated once, by SimConfig, not per step.

The update policy lives in triggers.next_attempt, which run() calls once
after every attempt. While an event logic waits for ||e|| to reach
sigma ||x|| (next_attempt returns inf after a success from a nonzero
state), run() hands each stretch's coefficients to find_event_crossing
before any row of it exists; the search decides the crossing on the
stretch's own Taylor polynomial, cut to the degree its rounding bound
allows, by Bernstein subdivision and Halley refinement, and a crossing
becomes the stretch's stop. The rows are filled as on any other stretch.

Trace rows are written into growable numpy column arrays, a chunk at a
time. They are the run's only record: the verdicts read attempts, onsets
and divergence from the columns. The run loop keeps its state (t, x,
x_held, t_held, the next attempt) in locals. It takes its jam state from
its cursor over the sorted jam breakpoints, not from a search per stop,
and computes the input K x_held only when the held sample changes. Row
norms are neither under-estimated nor lost to overflow (linalg._row_norms),
and every row, a tick's or a stop's, takes its ||x|| and ||x_held - x||
from its chunk's one _row_norms pass, but a post-jump row, which shares
its pre-jump row's ||x|| and has a transmission error of exactly zero.
Trace.to_csv writes the exact '%.17g' text of every float with a bulk
numpy kernel (dosloop._g17), in blocks of about 7k cells.

Runs are bit-identical for one version on one host: no randomness, no
wall-clock dependence, and no row depends on how its chunk was cut
(_SLOT_ALIGN). Another host can differ in the last bits, since numpy's
OpenBLAS picks its kernels for the CPU: a different kernel
(OPENBLAS_CORETYPE) was measured to change the trace bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._bernstein import DEGREE, first_root, to_bernstein
from .dos import DosBudget, DosSequence, Verdict, check_horizon, check_slow_average
from .guarantees import SamplingRobustness, _window_reach
from .linalg import _UNIT_ROUNDOFF, TAYLOR_DEGREE, FloatArray, _norm, _row_norms, as_vector
from .plant import InputMode, LtiPlant
from .plant import exact_hold_step  # noqa: F401  (bench/test_bench.py rebinds dosloop.sim.exact_hold_step)
from .triggers import LogicKind, TriggerConfig, next_attempt, validate_trigger_for_plant

_GES_SLACK = 1e-6
_RULE_SLACK = 1e-6
_ONSET_SLACK = 1e-9
_LYAPUNOV_SLACK = 1e-6
# The default crossing_tol of SimConfig, find_event_crossing and a scenario's sim section.
_CROSSING_TOL = 1e-9
# Float cells formatted per write in Trace.to_csv (whole rows, at least
# one), which bounds the formatting kernel's temporaries whatever the
# plant's size. Its fixed cost per call stops mattering at about 7k cells:
# 4,096 took 7-14% longer.
_CSV_BLOCK_CELLS = 7168
# The jammed,attempt,success cells and the line end, one NUL-padded 8-byte
# word per 4 jammed + 2 attempt + success.
_CSV_FLAG_WORDS = np.frombuffer(
    b"".join(f"{j},{a},{s}\r\n\0".encode() for j in (0, 1) for a in (0, 1) for s in (0, 1)), dtype=np.uint64
)
# The most rows one Taylor stretch of run() holds, so its arrays do not
# grow with the horizon.
_STRETCH_ROWS = 256
# The most padded rows one bulk product of run() holds (stretches times
# the slots of the widest), which bounds its temporaries whatever the
# horizon: 1.2 MB at n = 8. At least _STRETCH_ROWS, so that every stretch
# fits. On periodic runs at n = 8, 1,024 and 2,048 took 2-15% longer, and
# 8,192 no less.
_CHUNK_ROWS = 4096
# Slots per stretch in a bulk product are padded to a multiple of this: with
# OpenBLAS's kernels a row of a product takes the same bits in any product
# whose row count is a multiple of 4 (measured on its SkylakeX kernels for
# n = 1-8, and for any count from 2 at n >= 4), so no row depends on the
# stretches that share its chunk.
_SLOT_ALIGN = 4
# g = ||e||^2 - sigma^2 ||x||^2 on one stretch, x = sum_k s^k c_k and
# e = x_held - x, is sum_(r,q) w_rq u^(o_r + o_q) W_r . W_q over the rows
# W = [x_held - x; c_0 .. c_18] times s_end^(r-1): e is row 0 minus rows
# 2.., x rows 1.., o_r = max(r - 1, 0). _G_INDEX holds o_r + o_q, and
# _G_HELD and _G_STATE each entry's weight in ||e||^2 and in ||x||^2.
_G_ROW = np.arange(TAYLOR_DEGREE + 2)
_G_ORDER = np.maximum(_G_ROW - 1, 0)
_G_INDEX = np.add.outer(_G_ORDER, _G_ORDER).ravel()
_G_SIGN = np.where(_G_ROW == 0, 1.0, -1.0) * (_G_ROW != 1)
_G_HELD = np.outer(_G_SIGN, _G_SIGN).ravel()
_G_STATE = np.outer(_G_ROW > 0, _G_ROW > 0).ravel().astype(float)
_STAT_KEYS = (
    "blocks_stepped",
    "rows_emitted",
    "crossing_searches",
    "cells_scanned",
    "hull_tests",
    "root_trials",
)


def _new_stats() -> dict[str, int]:
    """Zeroed run counters; see Trace."""
    return {key: 0 for key in _STAT_KEYS}


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything one run needs; validated on construction.

    record_step must not exceed delta1/4 so traces resolve the fast retry
    cadence, crossing_tol must lie below record_step so that a crossing is
    found within one record cell of its time, and the jam sequence must
    satisfy the declared budget over the run horizon. delta2 admissibility
    against the plant is enforced for the finite-rate logics; IDEAL_EVENT
    never reads delta2.
    """

    plant: LtiPlant
    logic: LogicKind
    trigger: TriggerConfig
    dos: DosSequence
    budget: DosBudget
    x0: FloatArray
    horizon: float
    record_step: float
    crossing_tol: float = _CROSSING_TOL

    def __post_init__(self) -> None:
        if not isinstance(self.logic, LogicKind):
            raise ValueError(f"logic must be a LogicKind, got {self.logic!r}")
        check_horizon(self.horizon)
        if not (self.record_step > 0.0 and math.isfinite(self.record_step)):
            raise ValueError(f"record_step must be positive, got {self.record_step}")
        if self.record_step > self.trigger.delta1 / 4.0 * (1.0 + 1e-12):
            raise ValueError(
                f"record_step {self.record_step} must be <= delta1/4 = {self.trigger.delta1 / 4.0}"
            )
        if not (self.crossing_tol > 0.0 and math.isfinite(self.crossing_tol)):
            raise ValueError(f"crossing_tol must be positive, got {self.crossing_tol}")
        if self.crossing_tol >= self.record_step:
            raise ValueError(f"crossing_tol {self.crossing_tol} must be < record_step {self.record_step}")
        x0 = as_vector(self.x0, self.plant.n, "x0").copy()
        x0.flags.writeable = False  # the run starts from it as is
        object.__setattr__(self, "x0", x0)
        verdict = check_slow_average(self.dos, self.budget, self.horizon)
        if not verdict.holds:
            raise ValueError(
                f"jam sequence violates its budget at t={verdict.first_violation:.6g} "
                f"(excess {verdict.worst:.3e})"
            )
        if self.logic is not LogicKind.IDEAL_EVENT:
            validate_trigger_for_plant(self.trigger, self.plant)


@dataclass(eq=False)
class Trace:
    """Array-of-rows recording of one run (see run() for the row conventions).

    The columns are the run's only record. Attempt times are
    t[attempt == 1] and their outcomes success[attempt == 1]; each jam
    onset the run reached has a row at its time; a diverged run's last row is
    the stop state that tripped the guard, at t[-1].

    stats holds plain integer counters of the run: blocks_stepped (Taylor
    stretches: the rows and the end state stepped from one set of
    coefficients; every state, a crossing's too, is one step from its
    stretch's coefficients), rows_emitted, crossing_searches
    (find_event_crossing calls: one per stretch while an event logic waits
    for a crossing, before any row of it exists), cells_scanned (the rows
    those stretches hold, up to and including their end: the crossing,
    where the search found one), hull_tests (intervals whose Bernstein
    coefficients a search tested) and root_trials (values of g taken while
    refining a crossing).
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
        Rows are formatted and written in blocks of as many whole rows as fit
        _CSV_BLOCK_CELLS floats (at least one), each one NUL-padded word
        matrix whose NUL bytes are dropped, so memory stays flat however long
        the trace is. The block is sized for throughput: the kernel's per-call
        cost is spread over about 7k cells, and its temporaries, about 150
        bytes a cell, stay near 1 MB. The input u changes only at updates and
        jam edges, so each run of rows with bit-identical u (-0.0 and NaN keep
        their own text) has its u cells formatted once, and the flag cells
        come from a table of their 8 spellings.
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
        block = max(1, _CSV_BLOCK_CELLS // width)
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
                own_cells = cells[: own.size].reshape(rows, n + 3, 4)
                u_cells = cells[own.size :].reshape(-1, m, 4)
                words = np.empty((rows, 4 * width + 1), dtype=np.uint64)
                line = words[:, :-1].reshape(rows, width, 4)
                line[:, : n + 1] = own_cells[:, : n + 1]
                line[:, n + 1 : n + 1 + m] = u_cells[np.cumsum(new_run) - 1]
                line[:, n + 1 + m :] = own_cells[:, n + 1 :]
                words[:, -1] = _CSV_FLAG_WORDS.take(self.jammed[b] * 4 + self.attempt[b] * 2 + self.success[b])
                fh.write(words.tobytes().translate(None, b"\0"))


@functools.lru_cache(maxsize=16)
def _g_weights(sigma: float) -> FloatArray:
    """Each Gram entry's weight in g, _G_HELD - sigma^2 _G_STATE: formed once per sigma, read-only."""
    w = _G_HELD - sigma * sigma * _G_STATE
    w.flags.writeable = False
    return w


def _g_form(coeffs: FloatArray, x_held: FloatArray, sigma: float, s_end: float):
    """(a, b, eta): g of one stretch in u = s / s_end in [0, 1] at degree d; None if the coefficients are not finite.

    a holds the power and b the Bernstein coefficients (on [0, 1]) of
    g = ||x_held - x||^2 - sigma^2 ||x||^2, x = sum_k (u s_end)^k c_k,
    c = coeffs, times 2^-2e, e the binary exponent of the largest entry of
    c and of x_held - c_0: scaled, every entry lies below 1, so no square
    overflows, and the scaling is exact. d <= DEGREE is the smallest degree
    whose tail, the sum of |a_k| over k > d, lies within the rounding bound
    of all of g; a and b stop at d, and eta bounds their rounding and the
    tail (see find_event_crossing).
    """
    rows = np.concatenate(((x_held - coeffs[0])[None], coeffs))
    peak = float(np.abs(rows).max())
    if not 0.0 < peak < math.inf:
        return None
    rows = np.ldexp(rows, -math.frexp(peak)[1])  # exact for any e; the float 2^-e overflows from e = -1024
    mag = np.abs(rows)
    f = np.full(TAYLOR_DEGREE + 2, s_end)
    f[:2] = 1.0
    f = np.multiply.accumulate(f)  # s_end^(r-1) for row r >= 1, multiplied up one by one, and 1 for row 0
    W = rows * f[:, None]
    a = np.bincount(_G_INDEX, (W @ W.T).ravel() * _g_weights(sigma), DEGREE + 1)
    v = f @ mag  # the column sums of |W|
    n = len(x_held)
    us = _UNIT_ROUNDOFF * (1.0 + sigma * sigma) * float(v @ v)
    eta = (2 * n + 160) * us + 2.0**-1000
    tails = np.abs(a[:0:-1]).cumsum()  # tails[j] = sum of |a_k| over k >= DEGREE - j >= 1
    cut = int(tails.searchsorted(eta, "right"))  # the tails within eta: drop a_k for k > DEGREE - cut
    if cut:
        eta += float(tails[cut - 1]) + (n + 82) * us
        a = a[: DEGREE + 1 - cut]
    return a, to_bernstein(a), eta


@np.errstate(over="ignore", invalid="ignore")
def find_event_crossing(
    plant: LtiPlant,
    x: FloatArray,
    x_held: FloatArray,
    sigma: float,
    t_from: float,
    t_max: float,
    crossing_tol: float = _CROSSING_TOL,
    *,
    applied: FloatArray | None = None,
    stats: dict[str, int] | None = None,
    coeffs: FloatArray | None = None,
) -> float | None:
    """First t in [t_from, t_max] where ||e(t)|| reaches sigma ||x(t)||, decided on the Taylor polynomials.

    x and x_held hold the loop at t_from; a start at or past the threshold
    (g >= 0 there, below) returns t_from. x follows
    x' = A x + B K w, w = applied: x_held by default, zeros while a zeroed
    input is jammed. With g = ||x_held - x||^2 - sigma^2 ||x||^2, returns a
    t (t_max as given, at the end) where g evaluates >= 0, before which g < 0
    up to the bound eta below, except on excursions shorter than
    crossing_tol or within rounding of zero (g < 2 eta); or None, also for
    x = x_held = 0, which stays put, and for coefficients that overflow.

    Method. The window is cut into stretches of at most
    LtiPlant.taylor_reach, the first from x (coeffs, when given, must be
    its LtiPlant.taylor_coeffs), each next from one LtiPlant.step. On a
    stretch of length h, x = sum_k s^k c_k with s = u s_end, u in [0, 1],
    s_end = h / taylor_reach <= 1, so g is a polynomial of degree 36 in u,
    which _g_form cuts to the smallest degree d whose tail lies within the
    rounding bound (below): d = 4 on the shipped double integrator, whose
    x is quadratic in t, and 2 to 15 on the benchmark's seed-7 event_sim
    jobs. Its Bernstein coefficients of degree d bound it (Lane and
    Riesenfeld, BIT 21, 1981; Farouki and Rajan, CAGD 4, 1987): on an
    interval where all of them lie below -eta, g < 0. Other intervals are
    split in two, left first, and one whose coefficients are negative up
    to an index and positive after it holds one root (Descartes' rule of
    signs), bracketed to crossing_tol on the power form by safeguarded
    Halley steps, each bracket end moved on the sign of g alone
    (dosloop._bernstein.first_root); a crossing_tol below 2^-50 h
    resolves no further.

    Rounding (u = 2^-53, gamma_k = k u / (1 - k u), n the state's size;
    all of g times 2^-2e). Let W be the rows [x_held - x; c_0 .. c_18]
    times 2^-e s_end^(r-1), v the column sums of |W|, S = (1 + sigma^2) v.v.
    The coefficient a_m of u^m sums w_rq W_r . W_q over an antidiagonal
    with |w_rq| <= 1 + sigma^2, so S bounds the |terms| of all of them
    together. The difference and the powers (multiplied up one by one) put
    W within gamma_18 of its exact value, the Gram products add gamma_n,
    and the weight, its product and the antidiagonal sums (at most 40
    terms) gamma_42: each a_m is off by at most gamma_(n+80) times its
    antidiagonal's |terms|, all of a together by gamma_(n+80) S. At
    degree d <= 36 the Bernstein weights C(i, m) / C(d, m) lie in [0, 1],
    each rounded once, and their product adds gamma_(d+2) S, so each
    Bernstein coefficient is within gamma_(n+d+83) S of those of the exact
    a_0 .. a_d; Horner's rule of degree d at u in [0, 1] adds gamma_2d S
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 5.1), so each value used while refining is within
    gamma_(n+2d+81) S. The series left out of each state
    (2.2e-17 ||[x; w]||, linalg._taylor_terms) moves g by at most
    0.81 n u S. With S's own rounding all of it stays below
    eta_36 = (2 n + 160) u S for n up to 1,000, plus 2^-1000 for entries
    and products below 2^-1022, whose errors are absolute. The cut: d is the
    smallest degree whose computed tail T = sum_(m>d) |a_m| is at most
    eta_36. On [0, 1] the exact tail sum_(m>d) a_m u^m is at most T plus
    the dropped coefficients' rounding, within gamma_(n+80) S, so
    eta = eta_36 + T + (n + 82) u S bounds the distance from g of every
    Bernstein coefficient and value the search uses ((n + 81) u covers
    gamma_(n+80), and the last u S the rounding of T, at most gamma_36 T,
    and of the sum); with nothing cut (d = 36), eta = eta_36. A split at
    1/2 makes each coefficient a convex combination of its parent's with
    exact weights: it adds gamma_(d+1) times the parent's largest
    |coefficient| to the bound. The coefficients' own rounding (the Taylor
    table times [x; w]) is the stepping error that the rows share, within
    1e-12 of max(||x||, ||x_held||) (tests/test_plant.py).

    Near a tangency the intervals not cleared shrink to where g lies within
    eta plus the hull's gap, O(width^2), of zero, so the hull tests grow
    like log(1 / distance to the threshold). Counts go to stats when it is
    given: crossing_searches, hull_tests (intervals tested) and root_trials
    (values of g while refining). run() calls it once per stretch while it
    waits for a crossing, before any row of the stretch exists, with that
    stretch's coefficients over a window within the reach: one stretch.
    """
    if not crossing_tol > 0.0:
        raise ValueError(f"crossing_tol must be positive, got {crossing_tol}")
    window = t_max - t_from
    if window <= 0.0:
        return None
    if stats is None:
        stats = _new_stats()
    stats["crossing_searches"] += 1
    w = x_held if applied is None else applied
    reach = plant.taylor_reach
    base = 0.0  # offset from t_from of x
    while True:
        last = window - base <= reach
        h = window - base if last else reach
        if coeffs is None:
            coeffs = plant.taylor_coeffs(x, w)
        form = _g_form(coeffs, x_held, sigma, h / reach)
        if form is None:
            return None
        a, b, eta = form
        # u resolves no finer than a few ulps of 1, so a finer tolerance could never close
        u = first_root(a, b, eta, max(crossing_tol / h, 2.0**-50), stats)
        if u is not None:
            return t_max if last and u == 1.0 else t_from + (base + u * h)
        base += h
        if last or base >= window:
            return None
        x, coeffs = plant.step(x, w, h, coeffs), None


class _Rows:
    """Trace columns in growable numpy arrays, written in bulk: the rows of one chunk at a time (_flush).

    Only the first size rows are the trace; rows past a size cut back are
    never read.
    """

    _COLUMNS = ("t", "x", "u", "e_norm", "x_norm", "jammed", "attempt", "success")

    def __init__(self, n: int, m: int, cap: int) -> None:
        self.size = 0
        self.t, self.x, self.u = np.zeros(cap), np.zeros((cap, n)), np.zeros((cap, m))
        self.e_norm, self.x_norm = np.zeros(cap), np.zeros(cap)
        self.jammed, self.attempt, self.success = (np.zeros(cap, dtype=np.int8) for _ in range(3))

    def grow(self, size: int) -> None:
        """Make room for size rows in all, doubling the capacity."""
        if size > len(self.t):
            cap = max(size, 2 * len(self.t))
            for name in self._COLUMNS:
                old = getattr(self, name)
                new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
                new[: self.size] = old[: self.size]
                setattr(self, name, new)

    def columns(self) -> dict[str, np.ndarray]:
        """The first size rows of every column, copied out of the spare capacity."""
        return {name: getattr(self, name)[: self.size].copy() for name in self._COLUMNS}


def _ticks_before(k: int, rs: float, t_stop: float) -> int:
    """How many record ticks k rs, (k + 1) rs, ... lie strictly before t_stop, at most _STRETCH_ROWS."""
    c = min(_STRETCH_ROWS, max(0, math.ceil(t_stop / rs) - k))
    while c > 0 and (k + c - 1) * rs >= t_stop:
        c -= 1
    while c < _STRETCH_ROWS and (k + c) * rs < t_stop:
        c += 1
    return c


def _ticks_within(k: int, c: int, rs: float, t: float, reach: float) -> int:
    """How many of the c record ticks k rs, (k + 1) rs, ... lie at an offset (k + i) rs - t of at most reach."""
    j = min(c, max(0, math.floor((t + reach) / rs) - k + 1))
    while j > 0 and (k + j - 1) * rs - t > reach:
        j -= 1
    while j < c and (k + j) * rs - t <= reach:
        j += 1
    return j


def _flush(plant: LtiPlant, rows: _Rows, chunk: tuple, size: int, rs: float, zero_mode: bool) -> None:
    """Write the pending chunk, rows rows.size to size - 1, in bulk.

    chunk is (ticks, stops, helds, inputs): stretches, each (first row,
    first tick, ticks, start t, coeffs, epoch, jammed); rows at stops, each
    (row, t, x, epoch, 4 jammed + 2 attempt + success), a success's
    post-jump row after it, of the next epoch and from the same norms; the
    held samples and their inputs K x_held, indexed by epoch. One
    LtiPlant.stretch product takes every tick's state, slots padded to a
    multiple of _SLOT_ALIGN with offsets of one Taylor reach (a zero offset
    would take pow's slow path), and one _row_norms pass every row's norms.
    """
    ticks, stops, helds, inputs = chunk
    X, epoch, jam, at = [], [], [], []
    rows.grow(size)
    if ticks:
        first, k0, count, t0, coeffs, ep, jammed = zip(*ticks)
        c = np.array(count)
        slot = np.arange(-(-max(count) // _SLOT_ALIGN) * _SLOT_ALIGN)
        real = slot < c[:, None]
        ts = (np.array(k0)[:, None] + slot) * rs
        X.append(plant.stretch(np.array(coeffs), np.where(real, ts - np.array(t0)[:, None], plant.taylor_reach))[real])
        epoch.append(np.repeat(ep, c))
        jam.append(np.repeat(jammed, c))
        ends = np.cumsum(c)
        at.append(np.repeat(np.array(first) - ends + c, c) + np.arange(ends[-1]))
        rows.t[at[0]] = ts[real]
    if stops:
        i, t, x, ep, flags = zip(*stops)
        f, i, ep = np.array(flags, dtype=np.int8), np.array(i), np.array(ep)
        X.append(np.array(x))
        epoch.append(ep)
        jam.append(f >> 2)
        at.append(i)
        rows.t[i], rows.attempt[i], rows.success[i] = t, f >> 1 & 1, f & 1
        post, post_ep = i[f == 3] + 1, ep[f == 3] + 1
    X, epoch, jam, at = np.concatenate(X), np.concatenate(epoch), np.concatenate(jam), np.concatenate(at)
    U = np.array(inputs)[epoch]
    if zero_mode:
        U[jam == 1] = 0.0
    norms = _row_norms(np.concatenate((X, np.array(helds)[epoch] - X)))
    rows.x[at], rows.u[at], rows.jammed[at] = X, U, jam
    rows.x_norm[at], rows.e_norm[at] = norms[: len(X)], norms[len(X) :]
    if stops:  # the post-jump rows: their pre-jump rows' t, x and norm, no flags, and an error of exactly zero
        rows.t[post], rows.x[post], rows.x_norm[post] = rows.t[post - 1], rows.x[post - 1], rows.x_norm[post - 1]
        rows.u[post], rows.e_norm[post], rows.jammed[post], rows.attempt[post], rows.success[post] = (
            np.array(inputs)[post_ep], 0.0, 0, 0, 0)
    del ticks[:], stops[:], helds[:-1], inputs[:-1]  # the current held sample is the next chunk's epoch 0
    rows.size = size


# A state that overflows turns into inf/NaN entries; the divergence guard
# reports that as divergence, so the floating-point warnings are redundant.
@np.errstate(over="ignore", invalid="ignore")
def run(config: SimConfig) -> Trace:
    """Simulate one run and record its trace.

    Row conventions: regular samples every record_step; a row at every jam
    breakpoint; at every attempt a row flagged attempt=1 with success=0/1
    (values just before the update), followed on success by an unflagged row
    at the same t with the new held sample (transmission error zero). The
    final row sits at the horizon unless the divergence guard stopped the
    run early. The guard tests each stop state once, right after it is
    stepped, against x_max = 1e12 ||x0|| (capped at the largest float, so
    that inf trips it); the first with ||x|| > x_max, or not finite, is the
    last row, without attempt flags, and a jam breakpoint at its time was
    not handled. The ticks between stops are not tested: each lies within
    one stretch, an offset of at most LtiPlant.taylor_reach (so
    ||e^(M s)|| <= e), of a stop state and a held sample that both passed
    the guard, so every row has ||x|| <= 2e x_max, up to rounding. Nothing
    depends on the units of x: from 2^-k x0 the run has the same t, flags
    and stats, and x, u and the norms exactly 2^-k times the originals,
    while every value stays a normal float.

    Stretches. From every stop, the record ticks strictly before the next
    event (the next attempt, jam breakpoint or the horizon) and the event
    itself are one Taylor stretch: the offsets' powers times
    LtiPlant.taylor_coeffs of [x; w], w the applied sample (x_held, or zero
    while jammed under InputMode.ZERO_DURING_DOS). A stretch ends early, at
    a tick, after _STRETCH_ROWS rows or at the last offset within
    LtiPlant.taylor_reach. Where the first offset lies past the reach, the
    stretch is quiet: it ends at t + reach, rounded down so that its step
    stays within the reach, and holds no row; its end is a stop whose state
    the guard tests, and it writes a row there only if the state trips the
    guard. So every state is one LtiPlant.step of at most the reach, and no
    run takes a matrix exponential.

    Phase 1, the stops (attempts, jam breakpoints, stretch ends, the
    horizon): the loop keeps in locals only what the next decision reads
    and at each stop decides and steps, its state one LtiPlant.step with
    its stretch's coefficients, tested against the guard, so that no
    state past it reaches next_attempt or find_event_crossing. Every row
    joins the pending chunk, a stop's as indices and flags with its state,
    the ticks as their stretch. Phase 2: a chunk is written (_flush) when
    full and at the end; the stats are the loop's counters at its last
    stop.

    Waiting for a crossing. After every attempt, triggers.next_attempt gives
    the next one; while an event logic waits for a crossing it is inf, and
    before any row of a stretch exists the loop calls find_event_crossing,
    by its module name, once over [t, the stretch's end] with the
    stretch's coefficients. A crossing it finds is the next attempt and the
    stretch's stop: the ticks strictly before it join the chunk like any
    others, and its state is one LtiPlant.step from the same coefficients.
    A start at or past the threshold (the search returns t) is a crossing
    a search before missed: the attempt is at t, this stop, and where t is
    the tick the stretch before ended at, the attempt's rows take that
    tick's row's place.

    The post-jump row of a success shares ||x|| with its pre-jump row, and
    its transmission error is exactly zero.
    """
    plant, trig, dos, horizon, rs = config.plant, config.trigger, config.dos, config.horizon, config.record_step
    n, m = plant.n, plant.m
    K = plant.K
    zero_mode = plant.input_mode is InputMode.ZERO_DURING_DOS
    reach = plant.taylor_reach

    # jam breakpoints (time, is onset), sorted: intervals cannot overlap, and
    # where one ends as the next starts, the onset sorts (and is consumed) last
    bps = sorted([(h, True) for h, _ in dos.intervals] + [(h + d, False) for h, d in dos.intervals])
    bp_i = 0
    jammed = False  # on [t, next breakpoint): whether the last breakpoint consumed was an onset

    # room for the record ticks and a few stops, as a power of two (as doubling gives) of at most 2^17 rows
    rows = _Rows(n, m, 1 << min(17, int(min(horizon / rs, 2.0**17) + 1024).bit_length()))
    # the pending chunk (see _flush), ep the current held sample's epoch,
    # width the padded slots of its widest stretch, size the rows written
    # and pending. No state vector is mutated in place, so rows share them.
    ticks, stops, helds, inputs = chunk = [], [], [np.zeros(n)], [K @ np.zeros(n)]
    width, size, ep = 0, 0, 0
    stats = _new_stats()
    w_zero = np.zeros(n)  # the applied sample while jammed under ZERO_DURING_DOS

    # waiting for a crossing: armed after a success from a nonzero state
    sigma, tol = trig.sigma, config.crossing_tol
    armed = decide = False  # decide: an attempt at t waits for next_attempt

    t, x, xh, t_held = 0.0, config.x0, helds[0], 0.0
    t_next = 0.0  # the next attempt
    more = False  # whether the last stretch ended at a tick, t, whose row is the last
    x_max = min(1e12 * _norm(x), float(np.finfo(float).max))  # the divergence guard
    diverged = False

    while t < horizon:
        if len(stops) >= _CHUNK_ROWS:
            _flush(plant, rows, chunk, size, rs, zero_mode)
            width, ep = 0, 0
        if decide:
            jam_end = bps[bp_i][0] if jammed else math.inf  # while jammed, the next breakpoint ends the interval
            t_next = next_attempt(config.logic, trig, plant, t, xh, t_held, jammed, jam_end)
            armed, decide = t_next == math.inf and bool(xh.any()), False
        t_bp = bps[bp_i][0] if bp_i < len(bps) else math.inf
        stop = min(horizon, t_next, t_bp)

        if stop > t:
            w = w_zero if zero_mode and jammed else xh
            k = math.floor(t / rs + 1e-9) + 1
            if k * rs <= t:
                k += 1
            c = _ticks_before(k, rs, stop)
            to_stop = c < _STRETCH_ROWS  # whether the stretch may reach the stop
            count = c + to_stop  # its offsets: the ticks, then the stop
            if (stop if to_stop else (k + c - 1) * rs) - t > reach:
                count, to_stop = _ticks_within(k, c, rs, t, reach), False
            # with no tick and no stop within the reach, a quiet stretch, with no row, to t + reach rounded down
            t_end = (stop if to_stop else (k + count - 1) * rs) if count else t + reach
            if t_end - t > reach:
                t_end = math.nextafter(t_end, t)
            coeffs = plant.taylor_coeffs(x, w)
            stats["blocks_stepped"] += 1
            if armed:
                hit = find_event_crossing(plant, x, xh, sigma, t, t_end, tol, applied=w, stats=stats, coeffs=coeffs)
                if hit is not None:  # the crossing is the stretch's stop, and the next attempt
                    if hit == t and more:  # the row of the tick the last stretch ended at becomes the attempt's
                        size, rows.size = size - 1, rows.size - (not stops)  # written already, or pending
                        del stops[-1:]
                    count, to_stop, t_end, t_next, armed = _ticks_before(k, rs, hit) + 1, True, hit, hit, False
                stats["cells_scanned"] += count
            more = count > 0 and not to_stop  # the stretch ends at a tick, where the next one starts
            if count > 1:  # ticks before its end: they join the chunk as one stretch
                slots = -(-(count - 1) // _SLOT_ALIGN) * _SLOT_ALIGN
                if ticks and (len(ticks) + 1) * max(width, slots) > _CHUNK_ROWS:
                    _flush(plant, rows, chunk, size, rs, zero_mode)
                    width, ep = 0, 0
                width = max(width, slots)
                ticks.append((size, k, count - 1, t, coeffs, ep, jammed))
                size += count - 1
            x = plant.step(x, w, t_end - t, coeffs)
            t = stop = t_end
            diverged = not _norm(x) <= x_max  # written so that a NaN state (inf - inf) trips it too
            if not (count or diverged):
                continue
        else:
            t = stop

        at_bp = stop == t_bp
        if at_bp:
            while bp_i < len(bps) and bps[bp_i][0] == stop:
                jammed = bps[bp_i][1]
                bp_i += 1
        decide = stop == t_next and stop < horizon and not diverged
        if at_bp or not decide:  # a breakpoint's row, a tick's where a stretch ended early, the horizon's, the guard's
            stops.append((size, stop, x, ep, 4 * jammed))
            size += 1
        if diverged:
            break
        if decide:  # the attempt's row, and on success the post-jump row with the new held sample
            stops.append((size, stop, x, ep, 6 if jammed else 3))
            size += 1 if jammed else 2
            if not jammed:
                xh, t_held, ep = x, stop, ep + 1
                helds.append(x)
                inputs.append(K.dot(x))

    if ticks or stops:
        _flush(plant, rows, chunk, size, rs, zero_mode)
    stats["rows_emitted"] = rows.size
    return Trace(**rows.columns(), diverged=diverged, crossing_tol=config.crossing_tol, stats=stats)


def _ratio(num: FloatArray, den: FloatArray) -> FloatArray:
    """num / den elementwise, with 0 where num is 0 (also 0 / 0) and inf where only den is: no floor, so no scale."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num == 0.0, 0.0, num / den)


def _verdict(t: FloatArray, ratios: FloatArray, bound: FloatArray | float, value=None) -> Verdict:
    """The verdict on the checked rows at times t: a row fails unless its value <= bound, so NaN fails.

    value defaults to ratios; worst is the largest ratio (NaN if any is NaN).
    """
    bad = np.flatnonzero(~((ratios if value is None else value) <= bound))
    return Verdict(
        holds=bad.size == 0,
        first_violation=float(t[bad[0]]) if bad.size else None,
        worst=float(ratios.max(initial=0.0)),
    )


def verify_ges(trace: Trace, alpha: float, beta: float) -> Verdict:
    """Check ||x(t)|| <= alpha exp(-beta t) ||x(0)|| (slack 1 + 1e-6) on every row.

    A row whose norm is not finite (a diverged run) counts as a violation.
    worst is the largest ratio of ||x(t)|| to alpha exp(-beta t) ||x(0)||.
    """
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    bound = alpha * np.exp(-beta * trace.t) * float(trace.x_norm[0])
    return _verdict(trace.t, _ratio(trace.x_norm, bound), 1.0 + _GES_SLACK)


def check_update_rule(
    trace: Trace,
    sigma: float,
    seq: DosSequence,
    robustness: SamplingRobustness,
) -> Verdict:
    """Check ||e(t)|| <= sigma ||x(t)|| wherever transmissions were possible.

    Rows inside any inflated jam window [h_n, h_n + tau_n + gap_n), widened by
    the crossing tolerance at both edges, are exempt, as are pre-jump rows of
    successful attempts (their timestamp legally carries the post-jump value).
    The windows are tested in one pass: inflated windows may overlap, so a
    row is exempt when the latest window starting at or before it (the
    onsets are sorted) has a running maximum of window ends past it.

    worst is the largest ||e|| / ||x|| on the rows that are not exempt.
    """
    exempt = (trace.attempt == 1) & (trace.success == 1)
    if len(seq):
        edge = trace.crossing_tol
        # rounding is monotonic: adding edge after the running maximum of
        # end + gap gives the floats that adding it before would
        reach = _window_reach(seq, robustness) + edge
        last = np.searchsorted(seq.onsets - edge, trace.t, side="right") - 1
        exempt |= (last >= 0) & (trace.t < reach[np.maximum(last, 0)])
    keep = ~exempt
    e_n, x_n = trace.e_norm[keep], trace.x_norm[keep]
    limit = sigma * x_n * (1.0 + _RULE_SLACK) + 1e-12 * float(trace.x_norm[0])
    return _verdict(trace.t[keep], _ratio(e_n, x_n), limit, e_n)


def check_onset_amplification(trace: Trace, sigma: float, seq: DosSequence) -> Verdict:
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

    worst is the largest ||x_held|| / ((1 + sigma) ||x||) over the checked
    onsets, and first_violation the first onset that fails.

    simulate does not run this check: its allowance rests on an estimate of
    ||x'||, not on a proof, and the bound follows from the update rule,
    which simulate checks.
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
    allowed = rhs + (1.0 + sigma) * 2.0 * trace.crossing_tol * speed
    return _verdict(trace.t[rows], _ratio(lhs, rhs), allowed * (1.0 + _ONSET_SLACK), lhs)


def check_lyapunov_decay(
    trace: Trace,
    P: FloatArray,
    omega1: float,
    segments: list[tuple[float, float]],
) -> Verdict:
    """Check V(x(t)) <= exp(-omega1 (t - s)) V(x(s)) (slack 1 + 1e-6) on each jam-free segment [s, e].

    V is formed from the rows times 2^-e, e the binary exponent of ||x(0)||:
    the ratio is homogeneous in x, and the scaling is exact, so V stays a
    normal float whatever the units of x (unscaled, it underflows from about
    2^-511 x0 and overflows from about 2^511 x0).

    worst is the largest ratio of V(x(t)) to its decay bound over the
    segments' rows. A segment with fewer than two rows is not checked.

    simulate does not run this check: it needs P and omega1 of the Lyapunov
    route, and it applies only to IDEAL_EVENT runs, whose updates resume the
    instant jamming stops.
    """
    X = np.ldexp(trace.x, -math.frexp(float(trace.x_norm[0]))[1])
    V = np.einsum("ij,jk,ik->i", X, P, X)
    ts, ratios = [np.empty(0)], [np.empty(0)]
    for s, e in segments:
        idx = np.flatnonzero((trace.t >= s) & (trace.t <= e))
        if idx.size >= 2:
            ts.append(trace.t[idx])
            ratios.append(_ratio(V[idx], V[idx[0]] * np.exp(-omega1 * (trace.t[idx] - trace.t[idx[0]]))))
    return _verdict(np.concatenate(ts), np.concatenate(ratios), 1.0 + _LYAPUNOV_SLACK)
