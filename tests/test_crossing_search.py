"""The crossing search on a stretch's Taylor polynomial: its rounding bound, and its work near a tangency."""

from __future__ import annotations

import functools
import math
from itertools import product

import mpmath
import numpy as np
import pytest

import dosloop._bernstein
import dosloop.sim
from dosloop import InputMode, LogicKind, LtiPlant, SimConfig, find_event_crossing, run
from dosloop._bernstein import DEGREE
from dosloop.sim import _new_stats
from conftest import budgeted_jam, feasible_sigma, hunt_plant, random_stabilized_plant, standard_trigger
from oracles import expm_hold_step


def _exact_g(coeffs: np.ndarray, x_held: np.ndarray, sigma: float, s_end: float) -> tuple[list, mpmath.mpf]:
    """The power coefficients in u of the whole g of one stretch, of degree DEGREE, and its rounding bound eta_36.

    In 50-digit arithmetic from the same coefficients, scaled by the same
    2^-2e as the search's (sim._g_form), e the binary exponent of the
    largest entry of coeffs and of x_held - coeffs[0]: the squares of each
    coordinate's polynomials in e and x, summed. eta_36 = (2 n + 160) u S
    is the bound of find_event_crossing's docstring on the rounding of g at
    any degree, before a cut adds its tail.
    """
    mp = mpmath.mp
    peak = float(np.abs(np.concatenate(((x_held - coeffs[0])[None], coeffs))).max())
    scale = mp.ldexp(1, -math.frexp(peak)[1])
    s, sig2 = mp.mpf(s_end), mp.mpf(sigma) ** 2
    powers = [scale * s**k for k in range(len(coeffs))]
    a = [mp.mpf(0)] * (DEGREE + 1)
    S = mp.mpf(0)
    for held, column in zip(x_held.tolist(), coeffs.T.tolist(), strict=True):
        x = [mp.mpf(c) * p for c, p in zip(column, powers, strict=True)]
        e = [(mp.mpf(held) - mp.mpf(column[0])) * scale] + [-c for c in x[1:]]
        S += (abs(e[0]) + mpmath.fsum(abs(c) for c in x)) ** 2
        for j in range(len(x)):
            a[2 * j] += e[j] * e[j] - sig2 * x[j] * x[j]
            for k in range(j + 1, len(x)):
                a[j + k] += 2 * (e[j] * e[k] - sig2 * x[j] * x[k])
    return a, (2 * len(x_held) + 160) * mp.ldexp(1, -53) * (1 + sig2) * S


@functools.lru_cache(maxsize=None)
def _bernstein_weights(d: int) -> list:
    """C(i, m) / C(d, m) for m <= i <= d, in 50-digit arithmetic."""
    return [[mpmath.mpf(math.comb(i, m)) / math.comb(d, m) for m in range(i + 1)] for i in range(d + 1)]


def _exact_bernstein(a: list) -> list:
    """Bernstein coefficients on [0, 1] of the power coefficients a, of degree len(a) - 1, with exact weights."""
    rows = _bernstein_weights(len(a) - 1)
    return [mpmath.fsum(w * c for w, c in zip(row, a[: len(row)], strict=True)) for row in rows]


def _exact_halves(b: list) -> tuple[list, list]:
    """de Casteljau's split of Bernstein coefficients at 1/2, in 50-digit arithmetic."""
    left, right, level = [b[0]], [b[-1]], b
    while len(level) > 1:
        level = [(p + q) / 2 for p, q in zip(level, level[1:])]
        left.append(level[0])
        right.append(level[-1])
    return left, right[::-1]


def test_the_rounding_bound_covers_every_coefficient_and_value_the_search_uses(monkeypatch):
    # Every Bernstein coefficient the search tests, at any depth of
    # subdivision, lies within the bound it is tested against (eta plus
    # what the splits above it added), and every value of g it takes while
    # refining a root lies within eta, of the 50-digit values of the whole
    # degree-36 g from the same coefficients. A coefficient of the degree-d
    # form is read against the exact a_0 .. a_d's, plus the exact tail
    # sum_(m>d) |a_m| that bounds the rest of g on [0, 1]; and eta must
    # hold eta_36 (the rounding bound at any degree) plus that tail, which
    # fails if the cut's tail is left out of eta. Seeded non-normal and
    # fast-rotating plants, n = 1-8, both input modes, windows of one
    # stretch (a twentieth of the Taylor reach to all of it) and of three,
    # sigma just above and just below the peak of ||e|| / ||x|| over the
    # window (a near tangency, which needs splits, and a crossing).
    with mpmath.workdps(50):
        exact = {}  # exact coefficients, their bound and g's exact tail, by the bytes of the computed ones
        checked = {"forms": [], "halves": [], "values": [], "tails": []}  # worst error / bound of each
        degrees = []
        g_form, halves, horner = dosloop.sim._g_form, dosloop._bernstein._halves, dosloop._bernstein._horner

        def check(kind: str, computed: np.ndarray, want: list, bound: float, tail) -> None:
            worst = max(abs(got - w) for got, w in zip(computed.tolist(), want, strict=True))
            checked[kind].append(float((worst + tail) / bound))

        def recording_g_form(coeffs, x_held, sigma, s_end):
            a, b, eta = g_form(coeffs, x_held, sigma, s_end)
            a_exact, eta_36 = _exact_g(coeffs, x_held, sigma, s_end)
            d = len(a) - 1
            degrees.append(d)
            tail = mpmath.fsum(abs(c) for c in a_exact[d + 1 :])
            checked["tails"].append(float((eta_36 + tail) / eta))
            exact[b.tobytes()] = _exact_bernstein(a_exact[: d + 1]), eta, tail
            exact[a[::-1].tobytes()] = a_exact, eta
            check("forms", b, exact[b.tobytes()][0], eta, tail)
            return a, b, eta

        def recording_halves(b):
            left, right, grow = halves(b)
            want, err, tail = exact[b.tobytes()]
            for part, part_want in zip((left, right), _exact_halves(want), strict=True):
                exact[part.tobytes()] = part_want, err + grow, tail
                check("halves", part, part_want, err + grow, tail)
            return left, right, grow

        def recording_horner(a_rev, u):
            values = horner(a_rev, u)
            a_exact, eta = exact[np.array(a_rev).tobytes()]
            checked["values"].append(float(abs(values[0] - mpmath.polyval(a_exact[::-1], u)) / eta))
            return values

        monkeypatch.setattr(dosloop.sim, "_g_form", recording_g_form)
        monkeypatch.setattr(dosloop._bernstein, "_halves", recording_halves)
        monkeypatch.setattr(dosloop._bernstein, "_horner", recording_horner)
        rng = np.random.default_rng(2611)
        hits = 0
        for kind, n, mode in product(("non_normal", "rotating"), range(1, 9), InputMode):
            base = hunt_plant(rng, n, kind)
            plant = LtiPlant(A=base.A, B=base.B, K=base.K, input_mode=mode)
            x = rng.normal(size=n)
            held = x if rng.random() < 0.5 else x + 0.3 * feasible_sigma(plant) * rng.normal(size=n) * np.linalg.norm(x)
            w = np.zeros(n) if mode is InputMode.ZERO_DURING_DOS else held
            # one stretch of up to the reach and, on the rotating plants, a window of three
            spans = (float(rng.uniform(0.05, 1.0)), 3.0) if kind == "rotating" else (float(rng.uniform(0.05, 1.0)),)
            for window in (plant.taylor_reach * span for span in spans):
                X = np.array([plant.step(x, w, float(dt)) for dt in np.linspace(0.0, window, 501)])
                peak = float((np.linalg.norm(held - X, axis=1) / np.linalg.norm(X, axis=1)).max())
                for gap in (1e-6, -1e-6):
                    sigma = peak * (1.0 + gap)
                    if np.linalg.norm(held - x) < sigma * np.linalg.norm(x):
                        hit = find_event_crossing(plant, x, held, sigma, 0.0, window, 1e-9 * window, applied=w)
                        hits += hit is not None
        counts = {kind: len(ratios) for kind, ratios in checked.items()}
        assert hits >= 30 and min(counts.values()) >= 80, (hits, counts)
        # the forms are cut, to degrees far apart
        assert max(degrees) - min(degrees) >= 10 and max(degrees) < DEGREE, sorted(set(degrees))
        worst = {kind: max(ratios) for kind, ratios in checked.items()}
        print("degrees", sorted(set(degrees)), "worst error / bound:",
              ", ".join(f"{kind} {w:.3g} over {counts[kind]}" for kind, w in worst.items()))
        assert max(worst.values()) <= 1.0, worst


# Item 2's reproducer: x' = A x with A = [[-0.05, 2], [-2, -0.05]] (B = I,
# K = 0) from x = x_held = e1. ||e||^2 / ||x||^2 = f(t) = exp(0.1 t) -
# 2 exp(0.05 t) cos(2 t) + 1 peaks near t = 1.5968 at about 2.0824^2.
_ROTATING = LtiPlant(A=np.array([[-0.05, 2.0], [-2.0, -0.05]]), B=np.eye(2), K=np.zeros((2, 2)))
_E1 = np.array([1.0, 0.0])


def _rotating_peak() -> tuple[float, float]:
    """(t, sqrt(f(t))) at the peak of ||e|| / ||x||, from f' = 0 in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, c = mpmath.mpf("0.05"), mpmath.mpf(2)
        f = lambda t: mpmath.exp(2 * a * t) - 2 * mpmath.exp(a * t) * mpmath.cos(c * t) + 1
        t = mpmath.findroot(lambda t: mpmath.diff(f, t), mpmath.mpf("1.5968"))
        return float(t), float(mpmath.sqrt(f(t)))


@pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7, 1e-9])
def test_a_near_tangency_takes_few_hull_tests_per_window(gap):
    # sigma below the peak by the relative gap: the window [0, 3] (nine
    # Taylor stretches) holds a crossing just before the peak, where g
    # barely rises above zero. The safe steps of the Lipschitz search took
    # 990, 6,955 and 39,183 steps at gaps of 1e-3, 1e-5 and 1e-7; the hull
    # tests stay below 200, and the crossing meets the search's contract
    # under an expm oracle.
    t_peak, peak = _rotating_peak()
    sigma = peak * (1.0 - gap)
    stats = _new_stats()
    t = find_event_crossing(_ROTATING, _E1, _E1, sigma, 0.0, 3.0, 1e-9, stats=stats)
    assert stats["hull_tests"] <= 200, stats
    assert t is not None and t < t_peak

    def g(s):
        xs = expm_hold_step(_ROTATING.A, _ROTATING.bk, _E1, _E1, s)
        return np.linalg.norm(_E1 - xs) - sigma * np.linalg.norm(xs)

    assert g(t) >= -1e-13 and g(t - 1e-9) < 1e-13, (g(t), g(t - 1e-9))


@pytest.mark.parametrize("gap", [1e-5, 1e-7, 1e-9, 1e-11])
def test_a_near_tangency_takes_few_hull_tests_per_record_cell(gap):
    # sigma above the peak by the relative gap, over the shipped double
    # integrator's record cell (0.00087) centred on the peak: no crossing.
    # The safe steps took 257, 20,443 and 262,625 steps at gaps of 1e-5,
    # 1e-7 and 1e-9; the hull tests stay at 10 or fewer.
    t_peak, peak = _rotating_peak()
    cell = 0.00087
    t_a = t_peak - 0.5 * cell
    x_a = expm_hold_step(_ROTATING.A, _ROTATING.bk, _E1, _E1, t_a)
    stats = _new_stats()
    assert find_event_crossing(_ROTATING, x_a, _E1, peak * (1.0 + gap), t_a, t_a + cell, 1e-9, stats=stats) is None
    assert stats["hull_tests"] <= 10, stats


def _first_crossing(plant, x_s, sigma, h, end):
    """The first s in (0, end] where ||x_s - x(s)|| reaches sigma ||x(s)|| from x(0) = x_s, or None.

    x(s) is one scipy exponential of the held-input flow from x_s
    (oracles.expm_hold_step) at every point of a grid of step h > 0, and the
    first cell whose end has g >= 0 is bisected to the last bit.
    """

    def g(s):
        xs = expm_hold_step(plant.A, plant.bk, x_s, x_s, s)
        return np.linalg.norm(x_s - xs) - sigma * np.linalg.norm(xs)

    lo, hi = 0.0, 0.0
    while hi < end:
        lo, hi = hi, min(hi + h, end)
        if g(hi) >= 0.0:
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    return hi
                lo, hi = (lo, mid) if g(mid) >= 0.0 else (mid, hi)
    return None


@pytest.mark.parametrize("mode", list(InputMode))
@pytest.mark.parametrize("logic", [LogicKind.EVENT_TIME, LogicKind.IDEAL_EVENT])
def test_each_attempt_lies_within_crossing_tol_after_its_own_crossing(logic, mode):
    # Attempt times are chained: each crossing is measured from the state
    # held at the attempt before, so a search that lands elsewhere within
    # crossing_tol moves every later attempt, and only a check of each
    # attempt against its own crossing can pin the search's contract. Each
    # attempt that waited for a crossing (the one after a success from a
    # nonzero state) is replayed from that success's held state and time
    # by an expm oracle, and must lie in [t*, t* + crossing_tol] of the
    # oracle's first crossing t* (up to 1e-12 of rounding in t). Windows in
    # which a jam switches a zeroed input off are skipped: the flow changes
    # there.
    rng = np.random.default_rng(2700 + len(logic.value) + len(mode.value))
    checked = 0
    for k in range(4):
        base = random_stabilized_plant(rng)
        plant = LtiPlant(A=base.A, B=base.B, K=base.K, input_mode=mode)
        sigma = feasible_sigma(plant)
        trig = standard_trigger(plant, sigma)
        horizon = 30.0 * trig.delta2
        seq, budget, _ = budgeted_jam(k + 11, trig, tau_avg=5.0, horizon=horizon)
        cfg = SimConfig(plant=plant, logic=logic, trigger=trig, dos=seq, budget=budget,
                        x0=rng.normal(size=plant.n), horizon=horizon, record_step=trig.delta1 / 4.0)
        trace = run(cfg)
        tol = trace.crossing_tol
        edges = np.concatenate((seq.onsets, seq.ends))
        attempts = np.flatnonzero(trace.attempt == 1)
        for i, j in zip(attempts, attempts[1:]):
            t_s, t_a, x_s = float(trace.t[i]), float(trace.t[j]), trace.x[i]
            if not (trace.success[i] and x_s.any()):
                continue
            if mode is InputMode.ZERO_DURING_DOS and np.any((t_s < edges) & (edges < t_a)):
                continue
            want = _first_crossing(plant, x_s, sigma, cfg.record_step / 4.0, t_a - t_s + 2.0 * tol)
            assert want is not None, (k, t_s, t_a)
            assert -1e-12 <= (t_a - t_s) - want <= tol + 1e-12, (k, t_s, t_a - t_s - want)
            checked += 1
    assert checked >= 30


def _refine_case(rng: np.random.Generator, d: int, near: bool) -> np.ndarray:
    """Power coefficients (lowest first) of a degree-d polynomial with one simple root r in (0, 1), rising there.

    The other factors keep their sign on [0, 1]: real roots outside it,
    and complex pairs (u - s)^2 + eps^2. With near, the first pair sits
    close to the real line (eps from 1e-8 to 1e-1) and to r (s within 1e-9
    to 1e-1 of it), a near-double root where Halley's denominator
    g'^2 - g g'' / 2 passes through zero.
    """
    r = float(rng.uniform(0.05, 0.95))
    a = np.array([-r, 1.0])
    left = d - 1
    while left >= 2 and (near or rng.random() < 0.5):
        s = r + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-9, -1) if near else float(rng.uniform(0.0, 1.0))
        eps = 10.0 ** rng.uniform(-8, -1) if near else float(rng.uniform(0.05, 1.0))
        a = np.convolve(a, [s * s + eps * eps, -2.0 * s, 1.0])
        left, near = left - 2, False
    for _ in range(left):
        t = float(rng.uniform(0.1, 3.0))
        a = np.convolve(a, [t, 1.0] if rng.random() < 0.5 else [1.0 + t, -1.0])  # u + t or 1 + t - u
    return a * 10.0 ** rng.uniform(-20, 0)


def test_the_refinement_keeps_its_bracket_within_a_trial_cap(monkeypatch):
    # For every degree 1-36, seeded polynomials with one simple root in the
    # bracket, half of them beside a near-double root: _refine's hi and the
    # last trial with g < 0 (or the bracket's start) lie within tol, with
    # g(lo) < 0 <= g(hi) in 50-digit arithmetic up to Horner's bound
    # gamma_2d sum |a_k| u^k, and the trials stay within two per halving
    # of the bracket down to tol, plus 6. The cap is measured, not proved:
    # a Halley step is at most half the step before it, each midpoint
    # halves the bracket, and a tol / 2 move that leaves the bracket open
    # is followed by a midpoint; over 43,000 seeded refinements like these
    # the most was two per halving plus 3. The triple root at 1/2 is in
    # the set because g evaluates to 0 over far more than tol around it,
    # where tol / 2 moves alone would creep: tens of thousands of trials
    # at tol = 2^-50.
    trials: list[tuple[float, float, float]] = []  # (u, g, Halley's denominator) of each trial
    horner = dosloop._bernstein._horner

    def recording_horner(a_rev, u):
        g, d1, d2 = horner(a_rev, u)
        trials.append((u, g, d1 * d1 - g * d2))
        return g, d1, d2

    monkeypatch.setattr(dosloop._bernstein, "_horner", recording_horner)
    rng = np.random.default_rng(3101)
    checked = turned = 0
    worst = -math.inf
    cases = [
        (d, near, _refine_case(rng, d, near)) for d in range(1, DEGREE + 1) for near in (False, True) for _ in range(3)
    ]
    cases += [(3, True, np.array([-0.125, 0.75, -1.5, 1.0]))]  # (u - 1/2)^3
    with mpmath.workdps(50):
        for d, near, a in cases:
            assert len(a) == d + 1
            exact = [mpmath.mpf(c) for c in a[::-1]]

            def horner_bound(u: float):
                gamma = 2 * d * mpmath.ldexp(1, -53) / (1 - 2 * d * mpmath.ldexp(1, -53))
                return gamma * mpmath.polyval([abs(c) for c in exact], u)

            lo, hi = float(rng.uniform(0.0, 0.05)), float(rng.uniform(0.95, 1.0))
            if not mpmath.polyval(exact, lo) < 0 <= mpmath.polyval(exact, hi):
                continue
            for tol in (1e-6, 1e-9, 2.0**-50):
                trials.clear()
                stats = {"root_trials": 0}
                got = dosloop._bernstein._refine(a[::-1].tolist(), lo, hi, float(rng.uniform(lo, hi)), tol, stats)
                assert stats["root_trials"] == len(trials)
                assert got == min([hi] + [u for u, g, _ in trials if g >= 0.0])
                last = max([lo] + [u for u, g, _ in trials if g < 0.0])
                assert 0.0 < got - last <= tol, (d, near, tol, last, got)
                assert mpmath.polyval(exact, last) < horner_bound(last), (d, near, tol, last)
                assert mpmath.polyval(exact, got) >= -horner_bound(got), (d, near, tol, got)
                halvings = math.ceil(math.log2((hi - lo) / tol))
                worst = max(worst, len(trials) - 2 * halvings)
                assert len(trials) <= 2 * halvings + 6, (d, near, tol, len(trials), halvings)
                turned += near and any(den <= 0.0 for _, _, den in trials)
                checked += 1
    print(f"{checked} refinements, most trials over two per halving: {worst}; {turned} met Halley's denominator <= 0")
    assert checked >= 180 and turned >= 20, (checked, turned)
