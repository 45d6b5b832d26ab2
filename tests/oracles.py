"""Independent reference computations the tests compare the package against.

Everything here is deliberately written by a different route than the library
code: closed forms where the library integrates, dense fixed-step integration
where the library uses matrix exponentials, grid counting where the library
uses interval arithmetic. Keep it that way; the value of these oracles is
that they share no code path with what they check.
"""

from __future__ import annotations

import math

import numpy as np


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


def analytic_riccati_crossing(c: float, a: float, sigma: float) -> float:
    """Closed-form first time phi reaches sigma for phi' = c + (c+a) phi + a phi^2.

    The quadratic factors as (1 + phi)(c + a phi), so separation of variables
    gives t = ln[c (sigma + 1) / (a sigma + c)] / (c - a) for c != a,
    t = sigma / (a (1 + sigma)) for c == a, and t = ln(1 + sigma) / c when a = 0.
    """
    if a == 0.0:
        return math.log(1.0 + sigma) / c
    if c == a:
        return sigma / (a * (1.0 + sigma))
    return math.log(c * (sigma + 1.0) / (a * sigma + c)) / (c - a)


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


def picard_gronwall(
    omega1: float,
    omega2: float,
    ell0: float,
    impulses: list[tuple[float, float]],
    t_end: float,
    grid_step: float = 1e-3,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> float:
    """Solve xi(t) = omega1 + int_{ell0}^t omega2 xi + sum_{ell0<ell_k<t} d_k xi(ell_k).

    Picard iteration on a uniform grid with a left-Riemann integral, so the
    returned value slightly *under*-estimates the true solution of the
    equality (the integrand is nondecreasing). impulses carries constant
    (ell_k, d_k) pairs. Returns xi(t_end).
    """
    n = max(2, int(math.ceil((t_end - ell0) / grid_step)) + 1)
    ts = np.linspace(ell0, t_end, n)
    h = ts[1] - ts[0]
    imp_idx = []
    for ell, d in impulses:
        if ell0 < ell < t_end:
            imp_idx.append((int(np.searchsorted(ts, ell, side="right") - 1), d))
    xi = np.full(n, omega1)
    for _ in range(max_iter):
        integral = np.concatenate(([0.0], np.cumsum(xi[:-1]) * h))
        new = omega1 + omega2 * integral
        for k, d in imp_idx:
            mask = ts > ts[k]
            new[mask] += d * xi[k]
        if np.max(np.abs(new - xi)) < tol:
            xi = new
            break
        xi = new
    return float(xi[-1])


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
