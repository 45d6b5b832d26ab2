"""Independent reference computations the tests compare the package against.

Everything here is deliberately written by a different route than the library
code: closed forms where the library integrates, integration where the library
uses a closed form or matrix exponentials, an eigenvalue solve where the
library calls an SVD, grid counting where the library uses interval
arithmetic, sampled exponentials where the library proves an envelope,
scipy's Pade or mpmath's 40-digit exponentials where the library sums a
Taylor series in doubles, one format per row where the library formats runs
of rows at once. Keep it that way; the value of these oracles is that they
share no code path with what they check.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg


def rk4_hold_trajectory(
    A: np.ndarray,
    B: np.ndarray,
    K: np.ndarray,
    x0: np.ndarray,
    x_held: np.ndarray,
    dt_total: float,
    steps: int = 2000,
    zero_input: bool = False,
) -> np.ndarray:
    """Fixed-step RK4 for x' = A x + B K x_held (x_held frozen)."""
    u = np.zeros(A.shape[0]) if zero_input else B @ (K @ x_held)

    def f(x: np.ndarray) -> np.ndarray:
        return A @ x + u

    h = dt_total / steps
    x = np.array(x0, dtype=float)
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _riccati_rk4(p: float, h: float, c: float, a: float, steps: int = 1) -> float:
    """`steps` classical RK4 steps of length h for phi' = c + (c+a) phi + a phi^2."""

    def f(v: float) -> float:
        return c + (c + a) * v + a * v * v

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def rk4_riccati_crossing(c: float, a: float, sigma: float, local_tol: float = 1e-13) -> float:
    """First time phi reaches sigma for phi' = c + (c+a) phi + a phi^2, phi(0) = 0, by integration.

    Adaptive RK4 with step doubling (local error estimate |half - full| / 15
    held under local_tol), then bisection inside the step that crosses sigma,
    re-integrating from that step's start with 32 substeps per trial. The
    library uses the closed form; this never takes a logarithm.
    """
    t, p = 0.0, 0.0
    h = min(0.05 * sigma / c, 0.1 / (c + a))
    while True:
        full = _riccati_rk4(p, h, c, a)
        half = _riccati_rk4(p, 0.5 * h, c, a, steps=2)
        err = abs(half - full) / 15.0
        tol = local_tol * max(1.0, abs(half))
        if err <= tol:
            if half >= sigma:
                lo, hi = 0.0, h
                while hi - lo > max(1e-15, 1e-11 * (t + hi)):
                    mid = 0.5 * (lo + hi)
                    if _riccati_rk4(p, mid / 32, c, a, steps=32) < sigma:
                        lo = mid
                    else:
                        hi = mid
                return t + hi
            t += h
            p = half
        h *= min(4.0, max(0.2, 0.9 * (tol / err) ** 0.2 if err > 0.0 else 4.0))


def gram_spectral_norm(M: np.ndarray) -> float:
    """Largest singular value as the square root of the top eigenvalue of M^T M (no SVD)."""
    M = np.asarray(M, dtype=float)
    return math.sqrt(max(float(np.linalg.eigvalsh(M.T @ M)[-1]), 0.0))


def exp_norm(M: np.ndarray, t: float) -> float:
    """||exp(M t)||_2 from one scipy expm call on the single matrix M t."""
    return float(np.linalg.norm(scipy_expm(M, t), 2))


def mp_expm(M: np.ndarray, t: float, dps: int = 40) -> np.ndarray:
    """exp(M t) in dps-digit arithmetic by mpmath, rounded to doubles.

    M t is formed exactly (two doubles multiply exactly at 40 digits), so the
    reference does not share the rounding of the library's argument either.
    About 0.3 s for a 16 x 16 matrix, 0.05 s for 8 x 8.
    """
    with mpmath.workdps(dps):
        return np.array(_mp_expm(M, t).tolist(), dtype=float)


def _mp_expm(M: np.ndarray, t: float) -> mpmath.matrix:
    """exp(M t) at the working precision, M t formed exactly."""
    X = mpmath.matrix(np.asarray(M, dtype=float).tolist()) * mpmath.mpf(float(t))
    return mpmath.expm(X)


# Fraction bits of the fixed-point integers mp_expm_orbit powers in.
_ORBIT_BITS = 200


def mp_expm_orbit(M: np.ndarray, t: float, Z: np.ndarray, count: int, dps: int = 40) -> np.ndarray:
    """exp(M t)^j Z for j = 1..count, shape (count,) + Z.shape, rounded to doubles.

    exp(M t) is mp_expm's dps-digit exponential, not rounded to doubles: it
    and Z (entries of magnitude at least 2^-140, so that they convert
    exactly) are fixed to integer multiples of 2^-_ORBIT_BITS, and the
    powers are applied to Z in integer arithmetic, each product truncated
    back to that grid. Its error is the exponential's, about 10^-dps
    relative, and count grid steps, far below a double's rounding.
    """
    with mpmath.workdps(dps):
        E = _mp_expm(M, t)
        fixed = np.array(
            [[int(mpmath.nint(mpmath.ldexp(E[i, j], _ORBIT_BITS))) for j in range(E.cols)] for i in range(E.rows)],
            dtype=object,
        )
    cur = np.array([int(math.ldexp(v, _ORBIT_BITS)) for v in np.asarray(Z, dtype=float).ravel()], dtype=object)
    cur = cur.reshape(np.shape(Z))
    out = np.empty((count,) + np.shape(Z))
    for j in range(count):
        cur = fixed.dot(cur) >> _ORBIT_BITS
        out[j] = np.ldexp(np.array([float(v) for v in cur.ravel()]).reshape(np.shape(Z)), -_ORBIT_BITS)
    return out


def envelope_grid(t_hi: float, points: int = 200) -> np.ndarray:
    """t = 0 and points - 1 log-spaced times from t_hi * 1e-6 up to t_hi."""
    return np.concatenate(([0.0], np.geomspace(t_hi * 1e-6, t_hi, points - 1)))


def first_envelope_violation(M: np.ndarray, coeff: float, rate: float, grid: np.ndarray) -> int | None:
    """Index of the first grid point with ||exp(M t)|| > coeff exp(rate t) (1 + 1e-9), or None.

    A plain loop, one expm and one 2-norm per point, stopping at the first
    failure; the library samples no exponential and proves its envelopes.
    """
    for i, t in enumerate(grid):
        if exp_norm(M, t) > coeff * math.exp(rate * t) * (1.0 + 1e-9):
            return i
    return None


def quadratic_rate_threshold(
    lam: float, omega2: float, sigma: float, theta: float, bk_norm: float
) -> float:
    """Positive root of zeta^2 + (lam - omega2 (1 + sigma + theta)) zeta - omega2 theta1 = 0.

    Setting omega2 [(1 + sigma) + theta + theta1 / zeta] = lam + zeta and
    multiplying by zeta gives this quadratic; its positive root is where the
    jam-interval coefficient equals exactly 1.
    """
    theta1 = theta * (1.0 + sigma) * bk_norm
    b = lam - omega2 * (1.0 + sigma + theta)
    c = -omega2 * theta1
    disc = b * b - 4.0 * c
    root = 0.5 * (-b + math.sqrt(disc))
    return root


def grid_jam_measure(intervals: list[tuple[float, float]], t: float, cells: int = 200_000) -> float:
    """Lebesgue measure of jammed time on [0, t] by midpoint counting."""
    if t <= 0.0:
        return 0.0
    edges = np.linspace(0.0, t, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    covered = np.zeros(cells, dtype=bool)
    for h, d in intervals:
        covered |= (mids >= h) & (mids < h + d)
    return float(np.sum(covered)) * (t / cells)


def scalar_lyapunov_constants(sigma: float) -> dict[str, float]:
    """Hand-evaluated quadratic-certificate constants for A=1, B=1, K=-2, Q=2.

    Phi = -1, so P = 1; gamma1 = 2, gamma2 = |K B P + P B K| = 4,
    omega1 = (2 - 4 sigma) / 1, omega2 = 4 (2 + sigma) / 1.
    """
    gamma1 = 2.0
    gamma2 = 4.0
    omega1 = gamma1 - gamma2 * sigma
    omega2 = gamma2 * (2.0 + sigma)
    return {
        "gamma1": gamma1,
        "gamma2": gamma2,
        "omega1": omega1,
        "omega2": omega2,
        "tau_min": (omega1 + omega2) / omega1,
    }


def componentwise_exp_diag(diag: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """exp(At) x0 for diagonal A, computed scalar by scalar."""
    return np.exp(np.asarray(diag) * t) * np.asarray(x0)


def rk4_first_crossing(
    A: np.ndarray,
    B: np.ndarray,
    K: np.ndarray,
    x0: np.ndarray,
    x_held: np.ndarray,
    sigma: float,
    t_max: float,
    cells: int = 2000,
    steps: int = 8,
    tol: float = 1e-13,
    zero_input: bool = False,
) -> float | None:
    """First t in (0, t_max] where ||x_held - x(t)|| reaches sigma ||x(t)||, or None.

    Marches rk4_hold_trajectory across a uniform grid of `cells` cells, stops
    at the first cell whose end has g = ||x_held - x|| - sigma ||x|| >= 0,
    and bisects inside it, re-integrating from the cell start for every
    midpoint. No matrix exponential is involved.
    """

    def g(x: np.ndarray) -> float:
        return float(np.linalg.norm(x_held - x)) - sigma * float(np.linalg.norm(x))

    h = t_max / cells
    x = np.array(x0, dtype=float)
    for k in range(cells):
        x_next = rk4_hold_trajectory(A, B, K, x, x_held, h, steps=steps, zero_input=zero_input)
        if g(x_next) >= 0.0:
            lo, hi = 0.0, h
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                xm = rk4_hold_trajectory(A, B, K, x, x_held, mid, steps=steps, zero_input=zero_input)
                if g(xm) < 0.0:
                    lo = mid
                else:
                    hi = mid
            return k * h + hi
        x = x_next
    return None


def scipy_expm(M: np.ndarray, t: float) -> np.ndarray:
    """exp(M t) by scipy's Pade scaling and squaring."""
    return scipy.linalg.expm(np.asarray(M, dtype=float) * t)


def expm_hold_step(
    A: np.ndarray,
    BK: np.ndarray,
    x: np.ndarray,
    x_held: np.ndarray,
    dt: float,
    zero_input: bool = False,
    exp=scipy_expm,
) -> np.ndarray:
    """x after dt of x' = A x + B K x_held (x' = A x when zero_input), x_held frozen.

    One exponential exp(M, dt) (scipy's, or mp_expm) of the augmented matrix
    M = [[A, B K], [0, 0]] applied to [x; x_held]; the library sums a Taylor
    table for such steps.
    """
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    if not zero_input:
        aug[:n, n:] = BK
    return (exp(aug, dt) @ np.concatenate((x, x_held)))[:n]


def restep_rows(trace, A: np.ndarray, B: np.ndarray, K: np.ndarray, zero_during_dos: bool = False) -> float:
    """Largest deviation of a trace row from its predecessor re-stepped by one expm.

    Walks the rows in order and tracks the held sample (the state of the
    last successful attempt row, zero before the first). Each row is
    compared with scipy.linalg.expm of the augmented matrix [[A, B K], [0, 0]]
    (of A alone when zero_during_dos and the earlier row is jammed) over the
    gap between the two timestamps, applied to [x_prev; x_held]; rows at one
    timestamp must carry the same state. The deviation is relative to
    max(||x_i||, ||x_held||). The library steps every row of a stretch from
    one set of Taylor coefficients; this takes one exponential per row pair.
    """
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    aug[:n, n:] = B @ K
    exps: dict[tuple[float, bool], np.ndarray] = {}
    held = np.zeros(n)
    worst = 0.0
    for i in range(1, len(trace)):
        prev = trace.x[i - 1]
        if trace.attempt[i - 1] and trace.success[i - 1]:
            held = prev
        dt = float(trace.t[i] - trace.t[i - 1])
        zeroed = bool(zero_during_dos and trace.jammed[i - 1])
        if dt == 0.0:
            want = prev
        else:
            key = (dt, zeroed)
            if key not in exps:
                exps[key] = scipy.linalg.expm((A if zeroed else aug) * dt)
            want = exps[key] @ (prev if zeroed else np.concatenate((prev, held)))
            want = want[:n]
        scale = max(float(np.linalg.norm(trace.x[i])), float(np.linalg.norm(held)))
        worst = max(worst, float(np.linalg.norm(trace.x[i] - want)) / scale)
    return worst


def update_rule_by_loop(trace, sigma: float, seq, robustness) -> tuple[bool, float | None, float]:
    """(holds, first_violation, worst_ratio) of the update-rule check, one mask pass per jam interval.

    O(rows x intervals): every inflated window [h_k - tol, h_k + d_k + gap_k
    + tol) masks all rows in turn. The library finds each row's window by a
    binary search over the window starts and a running maximum of their ends.
    """
    gaps = list(robustness.delta_per_interval) or [robustness.delta_star] * len(seq)
    edge = trace.crossing_tol
    exempt = np.zeros(len(trace), dtype=bool)
    for k in range(len(seq)):
        s = float(seq.onsets[k]) - edge
        e = float(seq.ends[k]) + gaps[k] + edge
        exempt |= (trace.t >= s) & (trace.t < e)
    exempt |= (trace.attempt == 1) & (trace.success == 1)
    limit = sigma * trace.x_norm * (1.0 + 1e-6) + 1e-12 * float(trace.x_norm[0])
    bad = np.nonzero(~exempt & (trace.e_norm > limit))[0]
    # e / x with no floor: 0 where both are 0, inf where only x is
    ratios = np.array([e / x if x != 0.0 else (math.inf if e > 0.0 else 0.0) for e, x in zip(trace.e_norm, trace.x_norm)])
    worst = float(ratios[~exempt].max()) if np.any(~exempt) else 0.0
    return bad.size == 0, float(trace.t[bad[0]]) if bad.size else None, worst


def robustness_by_loop(times, seq) -> tuple[float, float, tuple[float, ...]]:
    """(delta_star, tau_star, per-interval gaps) of measure_robustness, one Python loop over the attempts.

    Sorts the times, then takes each consecutive pair in turn: the interval
    holding the pair's first time (the last onset at or before it, if the
    time is before that interval's end) keeps the larger of its gap so far
    and this one. The library does the same with one binary search, one
    difference and one scattered maximum over whole arrays.
    """
    times = sorted(float(t) for t in times)
    per = [0.0] * len(seq)
    for k in range(len(times) - 1):
        t = times[k]
        idx = int(np.searchsorted(seq.onsets, t, side="right")) - 1
        if idx >= 0 and t < seq.ends[idx]:
            gap = times[k + 1] - t
            if gap > per[idx]:
                per[idx] = gap
    tau_star = float(np.min(seq.durations)) if len(seq) else math.inf
    return max(per, default=0.0), tau_star, tuple(per)


def onset_amplification_by_walk(trace, sigma: float, seq) -> tuple[bool, float, list[tuple[float, float, float]]]:
    """(ok, worst, [(onset, ||x_held||, ||x||)]) of check_onset_amplification, walking the rows in order.

    Carries the held sample along the rows (the state of the last successful
    attempt row, zero before the first) and reads it, with the state, at the
    first row of each onset the run handled: every onset up to the last row,
    except one at the last row of a diverged run, which stopped there before
    handling it, and one whose interval starts where the interval before it
    ends. Norms come from np.linalg.norm of the rows' x, not from the x_norm
    column; the library reads the columns with two binary searches. The
    bound at an onset is widened by (1 + sigma) 2 crossing_tol times the
    speed of x from the row before, as the library's docstring states.
    """
    end = float(trace.t[-1])
    ends = {h + d for h, d in seq.intervals}
    pending = [h for h in seq.onsets.tolist() if (h < end or (h == end and not trace.diverged)) and h not in ends]
    held = 0.0
    seen = []
    allowed = []
    for i in range(len(trace)):
        if pending and trace.t[i] == pending[0]:
            x = float(np.linalg.norm(trace.x[i]))
            seen.append((pending.pop(0), held, x))
            speed = float(np.linalg.norm(trace.x[i] - trace.x[i - 1])) / (trace.t[i] - trace.t[i - 1]) if i else 0.0
            allowed.append((1.0 + sigma) * (x + 2.0 * trace.crossing_tol * speed))
        if trace.attempt[i] and trace.success[i]:
            held = float(np.linalg.norm(trace.x[i]))
    assert not pending, f"no row at onsets {pending}"
    ok, worst = True, 0.0
    for (_, lhs, x), limit in zip(seen, allowed):
        rhs = (1.0 + sigma) * x
        if lhs > limit * (1.0 + 1e-9):
            ok = False
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)
        elif lhs > 0.0:
            ok, worst = False, math.inf
    return ok, worst, seen


def csv_by_row(trace) -> bytes:
    """Trace.to_csv's bytes, formatting every row with one format string, u cells included.

    The library formats the u cells once per run of bit-identical rows and
    takes the flag cells from a table; here every cell of every row goes
    through %.17g or %d.
    """
    n, m = trace.x.shape[1], trace.u.shape[1]
    header = (
        ["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{j + 1}" for j in range(m)]
        + ["e_norm", "x_norm", "jammed", "attempt", "success"]
    )
    line = "%.17g," * (n + m + 3) + "%d,%d,%d\r\n"
    floats = np.column_stack((trace.t, trace.x, trace.u, trace.e_norm, trace.x_norm)).tolist()
    flags = np.column_stack((trace.jammed, trace.attempt, trace.success)).tolist()
    text = ",".join(header) + "\r\n" + "".join([line % (*f, *g) for f, g in zip(floats, flags)])
    return text.encode()


def jammed_time_by_loop(intervals: list[tuple[float, float]], t: float, gaps: list[float] | None = None) -> float:
    """Xi(t), or with per-interval gaps the inflated Xi-bar(t), by one Python loop over the intervals.

    Interval k counts as d_k (d_k + gaps[k] with gaps): whole when a later
    onset lies strictly before t, up to t when its own onset is the latest
    such. The lengths are summed one by one, in interval order; the library
    evaluates all points at once through one cumulative sum.
    """
    lengths = [d if gaps is None else d + gaps[k] for k, (_, d) in enumerate(intervals)]
    before = [k for k, (h, _) in enumerate(intervals) if h < t]
    if not before:
        return 0.0
    total = 0.0
    for k in range(before[-1]):
        total += lengths[k]
    return total + min(lengths[before[-1]], t - intervals[before[-1]][0])


def slow_average_by_loop(
    intervals: list[tuple[float, float]], kappa: float, tau: float, horizon: float
) -> tuple[bool, float | None, float]:
    """(ok, violation_time, worst_excess) of check_slow_average, one breakpoint at a time.

    The breakpoints (onsets up to the horizon, ends clipped to it, the
    horizon) are visited in order, carrying the sum of the whole intervals
    so far; a breakpoint fails when Xi(t) - (kappa + t / tau) exceeds 1e-12
    max(1, kappa + t / tau).
    """
    points = {h for h, _ in intervals if h <= horizon} | {min(h + d, horizon) for h, d in intervals} | {horizon}
    worst, first_bad = -math.inf, None
    total, n = 0.0, -1  # n: the latest interval with onset strictly before t; total: the ones before it
    for t in sorted(points):
        while n + 1 < len(intervals) and intervals[n + 1][0] < t:
            if n >= 0:
                total += intervals[n][1]
            n += 1
        xi = 0.0 if n < 0 else total + min(intervals[n][1], t - intervals[n][0])
        bound = kappa + t / tau
        worst = max(worst, xi - bound)
        if first_bad is None and xi - bound > 1e-12 * max(1.0, bound):
            first_bad = t
    return first_bad is None, first_bad, worst
