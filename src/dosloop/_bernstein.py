"""The first root of a polynomial on [0, 1], by Bernstein subdivision with a rounding bound.

The polynomials are those of sim.find_event_crossing: g = ||e||^2 -
sigma^2 ||x||^2 on one Taylor stretch, in u in [0, 1], cut to the degree d
<= DEGREE that its rounding bound allows (sim._g_form); every function here
reads d from the length of its coefficients, and Bernstein bases of any
degree serve alike (Farouki and Rajan, CAGD 4, 1987). In Bernstein form on
an interval the coefficients bound the polynomial there (the convex hull
property; Lane and Riesenfeld, BIT 21, 1981), so coefficients all below
-err prove it negative, err bounding their rounding. first_root splits the
intervals it cannot clear in two, left first, until one holds exactly one
sign change, and brackets that root to a tolerance on the power form by
safeguarded Halley steps (_refine), each taking g, g' and g'' from one
Horner pass (_horner). Each split is one product with exact weights
(_halves), so its rounding adds to err a known amount.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import _UNIT_ROUNDOFF, TAYLOR_DEGREE, FloatArray

DEGREE = 2 * TAYLOR_DEGREE
# For each degree d <= DEGREE, from the one table of C(i, j), built the first
# time a polynomial of degree d needs them (_weights): power to Bernstein form
# on [0, 1], b_i = sum_m C(i, m) / C(d, m) a_m, and the halves of a de
# Casteljau split at 1/2, left_i = sum_j C(i, j) 2^-i b_j and its mirror:
# weights in [0, 1], the halves' exact and summing to 1.
_COMB = np.array([[math.comb(i, j) for j in range(DEGREE + 1)] for i in range(DEGREE + 1)], dtype=float)
_LEFT_HALF = _COMB / 2.0 ** np.arange(DEGREE + 1)[:, None]


@functools.cache
def _weights(d: int) -> tuple[FloatArray, FloatArray]:
    """The weights of degree d above: power to Bernstein form, and the two halves stacked."""
    d1 = d + 1
    return _COMB[:d1, :d1] / _COMB[d, :d1], np.vstack((_LEFT_HALF[:d1, :d1], _LEFT_HALF[d::-1, d::-1]))


def to_bernstein(a: FloatArray) -> FloatArray:
    """Bernstein coefficients on [0, 1] of the power coefficients a: each weight rounded once, in [0, 1]."""
    return _weights(len(a) - 1)[0] @ a


def _horner(a_rev: list[float], u: float) -> tuple[float, float, float]:
    """(p, p', p'' / 2) at u of the polynomial p with power coefficients a_rev (highest first), by one Horner pass.

    p's own recurrence is Horner's rule, which the other two do not touch:
    at degree d and u in [0, 1] it is within gamma_2d sum |a| of p(u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, section 5.1).
    """
    v = d1 = d2 = 0.0
    for c in a_rev:
        d2 = d2 * u + d1
        d1 = d1 * u + v
        v = v * u + c
    return v, d1, d2


def _halves(b: FloatArray) -> tuple[FloatArray, FloatArray, float]:
    """Bernstein coefficients of the two halves of b's interval, and a bound on the rounding the split adds.

    Each new coefficient is a convex combination of b with exact weights,
    one product of at most d + 1 terms, d = len(b) - 1: within
    gamma_(d+1) max |b| < (d + 4) u max |b|.
    """
    d = len(b) - 1
    h = _weights(d)[1] @ b
    h[d + 1] = h[d]  # both are the value at the midpoint: one value
    return h[: d + 1], h[d + 1 :], (d + 4) * _UNIT_ROUNDOFF * float(np.abs(b).max())


def _refine(a_rev: list[float], lo: float, hi: float, start: float, tol: float, stats) -> float:
    """hi once hi - lo <= tol, from g(lo) < 0 <= g(hi) with one root between them, first trying start.

    Each next trial is a Halley step, q - 2 g g' / (2 g'^2 - g g'') (g' and
    g'' only choose it; the bracket moves on the sign of g alone), kept
    tol / 2 inside the bracket. A step shorter than tol / 2 moves tol / 2,
    to the root's far side, so that both ends close in; one that leaves the
    bracket, is longer than half the step before or has no finite value
    goes to the midpoint, and so does the trial after a tol / 2 move that
    left the bracket open: where rounding hides g's sign over far more than
    tol, as near a multiple root, the trials halve the bracket instead of
    creeping tol / 2 at a time.
    """
    q, step = start, math.inf
    while hi - lo > tol:
        q = min(max(q, lo + 0.5 * tol), hi - 0.5 * tol)
        stats["root_trials"] += 1
        g, d1, d2 = _horner(a_rev, q)
        if g < 0.0:
            lo = q
        else:
            hi = q
        den = d1 * d1 - g * d2  # (2 g'^2 - g g'') / 2, with d2 = g'' / 2
        nxt = q - g * d1 / den if den else 0.5 * (lo + hi)
        if step and abs(nxt - q) < 0.5 * tol:
            nxt, step = (q + 0.5 * tol if g < 0.0 else q - 0.5 * tol), 0.0
        else:
            if not (lo < nxt < hi and 0.5 * tol <= abs(nxt - q) <= 0.5 * step):
                nxt = 0.5 * (lo + hi)
            step = abs(nxt - q)
        q = nxt
    return hi


def first_root(a: FloatArray, b: FloatArray, err: float, tol: float, stats: dict[str, int]) -> float | None:
    """The first u in [0, 1] where g reaches 0, up to tol; None if there is none.

    a and b are g's power and Bernstein coefficients on [0, 1], of one degree
    d = len(a) - 1, and err bounds how far each of b, and Horner's sum of a
    at any u in [0, 1], lies from the exact g (their rounding and the tail
    that the cut to degree d left out). An interval is passed over when
    its coefficients prove g < 0, when g < 2 err throughout and < 0 at both
    ends (a crossing only within rounding), or when it is no longer than
    tol and g < 0 at its right end (an excursion above zero shorter than
    tol, if any); one no longer than tol with g >= 0 at its right end
    returns that end. Counts go to stats["hull_tests"] and
    stats["root_trials"].
    """
    a_rev = a[::-1].tolist()
    todo = [(0.0, 1.0, b, err)]
    while todo:
        lo, hi, b, err = todo.pop()
        stats["hull_tests"] += 1
        top = float(b.max())
        if top < -err:
            continue
        bl = b.tolist()
        if bl[0] >= 0.0:
            return lo
        if top < err and bl[-1] < 0.0:
            continue
        if hi - lo <= tol:
            if bl[-1] >= 0.0:
                return hi
            continue
        # negative up to k and positive after it: one sign change, so one root (Descartes' rule of signs)
        k = next(i for i, c in enumerate(bl) if c >= -err)
        if bl[-1] > err and all(c > err for c in bl[k + 1 :]):
            j = k if bl[k] >= 0.0 else k + 1  # the control polygon's root lies in its jth leg
            start = lo + (hi - lo) * (j - bl[j] / (bl[j] - bl[j - 1])) / (len(bl) - 1)
            return _refine(a_rev, lo, hi, start, tol, stats)
        mid = 0.5 * (lo + hi)
        left, right, grow = _halves(b)
        todo.append((mid, hi, right, err + grow))
        todo.append((lo, mid, left, err + grow))
    return None
