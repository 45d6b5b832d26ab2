"""Jam sequences, budgets, generators, and the text serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosloop import (
    DosBudget,
    DosSequence,
    GenerationError,
    check_slow_average,
    gen_greedy_adversary,
    gen_periodic,
    gen_random_budgeted,
    is_jammed,
    periodic_budget,
    xi_measure,
)
from dosloop import SamplingRobustness, xi_bar_measure
from dosloop import dos as dos_io
from oracles import grid_jam_measure, jammed_time_by_loop, slow_average_by_loop

SEQ = DosSequence(((1.0, 0.5), (3.0, 1.0), (5.5, 0.25)))


def test_sequence_validation():
    DosSequence(())
    with pytest.raises(ValueError):
        DosSequence(((1.0, 0.0),))  # zero duration
    with pytest.raises(ValueError):
        DosSequence(((-0.5, 1.0),))  # negative onset
    with pytest.raises(ValueError):
        DosSequence(((0.0, 2.0), (1.0, 1.0)))  # overlap
    with pytest.raises(ValueError):
        DosSequence(((3.0, 0.5), (1.0, 0.5)))  # out of order
    # touching intervals are allowed: [0,1) then [1,2)
    DosSequence(((0.0, 1.0), (1.0, 1.0)))


def test_sequence_arrays_are_read_only():
    for arr in (SEQ.onsets, SEQ.durations, SEQ.ends):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # equality and hashing still go by the intervals alone
    same = DosSequence(SEQ.intervals)
    assert same == SEQ and hash(same) == hash(SEQ) and same != DosSequence(SEQ.intervals[:2])


def test_is_jammed_boundaries():
    assert is_jammed(SEQ, 1.0)  # closed on the left
    assert is_jammed(SEQ, 1.49)
    assert not is_jammed(SEQ, 1.5)  # open on the right
    assert not is_jammed(SEQ, 0.99)
    assert not is_jammed(SEQ, 2.0)
    assert is_jammed(SEQ, 3.9)
    assert not is_jammed(SEQ, 4.0)  # 4.0 is the right-open end of [3.0, 4.0)


def test_xi_measure_hand_values():
    assert xi_measure(SEQ, 0.5) == 0.0
    assert xi_measure(SEQ, 1.25) == pytest.approx(0.25)
    assert xi_measure(SEQ, 2.5) == pytest.approx(0.5)
    assert xi_measure(SEQ, 10.0) == pytest.approx(1.75)


def test_xi_measure_matches_grid_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        cursor = 0.0
        pairs = []
        for _ in range(int(rng.integers(1, 8))):
            cursor += float(rng.uniform(0.0, 1.5))
            d = float(rng.uniform(0.05, 0.8))
            pairs.append((cursor, d))
            cursor += d
        seq = DosSequence(tuple(pairs))
        for t in rng.uniform(0.1, cursor + 1.0, size=5):
            want = grid_jam_measure(pairs, float(t))
            assert abs(xi_measure(seq, float(t)) - want) <= 2e-4 * max(1.0, t)


def _seeded_pairs(rng, count, touching=False):
    """count intervals of 0.05-0.8 after gaps of 0-1.5 (no gaps when touching): each onset the float end of the last."""
    pairs, cursor = [], 0.0
    for _ in range(count):
        cursor += 0.0 if touching else float(rng.uniform(0.0, 1.5))
        d = float(rng.uniform(0.05, 0.8))
        pairs.append((cursor, d))
        cursor += d
    return pairs


def _jam_oracle_cases():
    """(intervals, horizon) on which the library's cumulative sum meets the loops of oracles.py."""
    rng = np.random.default_rng(1311)
    inside = _seeded_pairs(rng, 9)
    past = _seeded_pairs(rng, 12)
    periodic = gen_periodic(onset=0.3, period=1.0, duty=0.25, horizon=10_000.0).intervals
    return [
        pytest.param([], 5.0, id="empty"),
        pytest.param(_seeded_pairs(rng, 10, touching=True), 6.0, id="touching"),
        pytest.param(inside, inside[5][0] + 0.5 * inside[5][1], id="horizon_inside_an_interval"),
        pytest.param(past, past[6][0] - 0.1, id="onsets_past_the_horizon"),
        pytest.param(list(periodic), periodic[-1][0] + 0.1, id="periodic_10000"),
    ]


@pytest.mark.parametrize("intervals,horizon", _jam_oracle_cases())
def test_jammed_time_sums_match_the_loops_bit_for_bit(intervals, horizon):
    rng = np.random.default_rng(len(intervals))
    seq = DosSequence(tuple(intervals))
    edges = [0.0, horizon] + [b for h, d in intervals[:40] for b in (h, h + d)]
    points = edges + [np.nextafter(b, s) for b in edges for s in (-np.inf, np.inf)]
    points += rng.uniform(0.0, horizon + 1.0, size=20).tolist()
    per = rng.uniform(0.0, 0.3, size=len(intervals)).tolist()
    uniform = SamplingRobustness(delta_star=0.2, tau_star=1.0)
    measured = SamplingRobustness(delta_star=max(per, default=0.0), tau_star=1.0, delta_per_interval=tuple(per))
    for t in map(float, points):
        assert xi_measure(seq, t) == jammed_time_by_loop(intervals, t), t
        assert xi_bar_measure(seq, uniform, t) == jammed_time_by_loop(intervals, t, [0.2] * len(intervals)), t
        assert xi_bar_measure(seq, measured, t) == jammed_time_by_loop(intervals, t, per), t
    verdicts = set()
    # budgets from loose to violated, the periodic sequence's own tight (0.25, 4) among them
    for kappa in (0.0, 0.25, 0.25 * (1 - 1e-9), 2.0):
        for tau in (1.5, 4.0, 4.0 * (1 + 1e-9), 50.0):
            for h in (horizon, 0.5 * horizon):
                chk = check_slow_average(seq, DosBudget(kappa=kappa, tau_avg=tau), h)
                assert (chk.holds, chk.first_violation, chk.worst) == slow_average_by_loop(intervals, kappa, tau, h)
                verdicts.add(chk.holds)
    assert verdicts == ({True} if not intervals else {True, False})


def test_budget_validation_and_bound():
    b = DosBudget(kappa=0.5, tau_avg=4.0)
    assert b.bound(8.0) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        DosBudget(kappa=-0.1, tau_avg=4.0)
    with pytest.raises(ValueError):
        DosBudget(kappa=0.1, tau_avg=1.0)  # tau_avg must exceed 1


def test_check_slow_average_accepts_and_rejects():
    seq = DosSequence(((0.0, 1.0),))
    ok = check_slow_average(seq, DosBudget(kappa=1.0, tau_avg=2.0), horizon=10.0)
    assert ok.holds and ok.first_violation is None
    bad = check_slow_average(seq, DosBudget(kappa=0.25, tau_avg=2.0), horizon=10.0)
    assert not bad.holds
    # xi(t) = t on the first interval crosses 0.25 + t/2 at t = 0.5; the
    # earliest *breakpoint* with a violation is the interval end
    assert bad.first_violation == pytest.approx(1.0)
    assert bad.worst > 0.0


def test_check_slow_average_only_counts_up_to_horizon():
    seq = DosSequence(((0.0, 5.0),))
    assert check_slow_average(seq, DosBudget(kappa=1.0, tau_avg=2.0), horizon=2.0).holds
    assert not check_slow_average(seq, DosBudget(kappa=1.0, tau_avg=2.0), horizon=5.0).holds


def test_gen_periodic():
    seq = gen_periodic(onset=0.5, period=2.0, duty=0.25, horizon=6.0)
    assert seq.intervals == ((0.5, 0.5), (2.5, 0.5), (4.5, 0.5))
    budget = periodic_budget(2.0, 0.25)
    assert budget.kappa == pytest.approx(0.5)
    assert budget.tau_avg == pytest.approx(4.0)
    assert check_slow_average(seq, budget, 6.0).holds
    # onsets strictly below the horizon
    seq2 = gen_periodic(onset=0.0, period=1.0, duty=0.5, horizon=3.0)
    assert len(seq2) == 3


def test_gen_random_budgeted_is_deterministic_and_compliant():
    budget = DosBudget(kappa=0.4, tau_avg=5.0)
    a = gen_random_budgeted(budget, min_duration=0.05, seed=42, horizon=20.0)
    b = gen_random_budgeted(budget, min_duration=0.05, seed=42, horizon=20.0)
    assert a.intervals == b.intervals
    c = gen_random_budgeted(budget, min_duration=0.05, seed=43, horizon=20.0)
    assert a.intervals != c.intervals
    assert check_slow_average(a, budget, 20.0).holds
    assert len(a) > 0
    assert float(np.min(a.durations)) >= 0.05
    assert all(h < 20.0 for h in a.onsets)


def test_gen_random_budgeted_respects_min_gap():
    budget = DosBudget(kappa=0.4, tau_avg=4.0)
    seq = gen_random_budgeted(budget, min_duration=0.05, seed=1, horizon=30.0, min_gap=0.2)
    for k in range(1, len(seq)):
        assert seq.onsets[k] - seq.ends[k - 1] >= 0.2 - 1e-12


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_generators_need_a_finite_horizon(horizon):
    # an infinite horizon would never end their loops
    with pytest.raises(ValueError, match="finite"):
        gen_periodic(onset=0.0, period=1.5, duty=0.1, horizon=horizon)
    with pytest.raises(ValueError, match="finite"):
        gen_random_budgeted(DosBudget(kappa=0.5, tau_avg=10.0), min_duration=0.1, seed=0, horizon=horizon)


def test_gen_random_budgeted_infeasible():
    # fitting even one 2-second interval needs t ~ tau (minus kappa credit),
    # far beyond this horizon
    with pytest.raises(GenerationError):
        gen_random_budgeted(DosBudget(kappa=0.0, tau_avg=10.0), min_duration=2.0, seed=0, horizon=5.0)


def test_gen_greedy_adversary_covers_early_attempts():
    budget = DosBudget(kappa=0.3, tau_avg=4.0)
    attempts = [0.1, 0.5, 1.0, 2.0, 4.0, 8.0]
    seq = gen_greedy_adversary(budget, min_duration=0.2, attempt_times=attempts)
    assert len(seq) >= 1
    assert is_jammed(seq, 0.1)
    assert check_slow_average(seq, budget, max(attempts) + 1.0).holds
    assert float(np.min(seq.durations)) >= 0.2


def test_serialization_round_trip_exact():
    budget = DosBudget(kappa=0.12345678901234567, tau_avg=3.3333333333333335)
    seq = gen_random_budgeted(budget, min_duration=0.07, seed=9, horizon=15.0)
    text = dos_io.dumps(seq, budget)
    seq2, budget2 = dos_io.loads(text)
    assert seq2.intervals == seq.intervals
    assert budget2.kappa == budget.kappa and budget2.tau_avg == budget.tau_avg


def test_save_and_load(tmp_path):
    path = tmp_path / "jam.txt"
    seq = DosSequence(((0.25, 0.5), (2.0, 0.125)))
    dos_io.save(path, seq)
    seq2, budget2 = dos_io.load(path)
    assert seq2.intervals == seq.intervals
    assert budget2 is None


def test_loads_tolerates_comments_and_reports_bad_lines():
    text = "# a remark\n0.5 0.25\n\n# another\n1.5 0.5\n"
    seq, budget = dos_io.loads(text)
    assert seq.intervals == ((0.5, 0.25), (1.5, 0.5))
    assert budget is None
    with pytest.raises(ValueError, match="line 2"):
        dos_io.loads("# ok\nnot numbers here\n")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
        ),
        min_size=0,
        max_size=6,
    ),
    st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
)
def test_xi_measure_monotone_and_bounded(raw, t):
    # stack raw gap/duration pairs into a valid non-overlapping sequence
    pairs = []
    cursor = 0.0
    for gap, dur in raw:
        cursor += gap
        pairs.append((cursor, dur))
        cursor += dur
    seq = DosSequence(tuple(pairs))
    a = xi_measure(seq, t)
    b = xi_measure(seq, t + 0.37)
    assert 0.0 <= a <= t + 1e-12
    assert b >= a - 1e-12
    assert b - a <= 0.37 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_generator_budget_compliance(seed):
    budget = DosBudget(kappa=0.3, tau_avg=3.5)
    seq = gen_random_budgeted(budget, min_duration=0.05, seed=seed, horizon=12.0)
    assert check_slow_average(seq, budget, 12.0).holds
