"""Held-input plant dynamics against a dense RK4 oracle."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from dosloop import (
    EnvelopeError,
    InputMode,
    LtiPlant,
    exact_hold_step,
    mat_exp,
    riccati_delta2,
    spectral_norm,
)
from dosloop.linalg import TAYLOR_THETA
from dosloop.sim import _STRETCH_ROWS
from conftest import feasible_sigma, hunt_plant, random_stabilized_plant
from oracles import expm_hold_step, mp_expm, mp_expm_orbit, rk4_hold_trajectory, scipy_expm


def _sample_plant(seed: int) -> LtiPlant:
    return random_stabilized_plant(np.random.default_rng(seed))


def test_exact_hold_step_matches_rk4(rng):
    for k in range(12):
        plant = random_stabilized_plant(rng)
        x0 = rng.normal(size=plant.n)
        xh = rng.normal(size=plant.n)
        dt = float(rng.uniform(0.01, 0.6))
        got = exact_hold_step(plant, x0, xh, dt)
        want = rk4_hold_trajectory(plant.A, plant.B, plant.K, x0, xh, dt, steps=4000)
        scale = max(1.0, float(np.linalg.norm(want)))
        assert np.linalg.norm(got - want) <= 1e-6 * scale


def test_exact_hold_step_zero_input_matches_rk4(rng):
    plant = random_stabilized_plant(rng, n=2, m=1)
    x0 = rng.normal(size=2)
    xh = rng.normal(size=2)
    dt = 0.4
    # a zeroed input is the applied sample w = 0; the oracle drops the input term instead
    got = exact_hold_step(plant, x0, np.zeros(2), dt)
    want = rk4_hold_trajectory(plant.A, plant.B, plant.K, x0, xh, dt, steps=4000, zero_input=True)
    assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, float(np.linalg.norm(want)))


def test_propagator_blocks(rng):
    plant = _sample_plant(4)
    dt = 0.3
    T, H = plant.propagator(dt)
    assert np.allclose(T, mat_exp(plant.A, dt), rtol=1e-12, atol=1e-14)
    # linearity: the step is T x0 + H xh for every basis vector
    for i in range(plant.n):
        e_i = np.eye(plant.n)[i]
        assert np.allclose(exact_hold_step(plant, e_i, np.zeros(plant.n), dt), T @ e_i)
        assert np.allclose(exact_hold_step(plant, np.zeros(plant.n), e_i, dt), H @ e_i)


def test_semigroup_of_hold_step(rng):
    plant = _sample_plant(6)
    x0 = rng.normal(size=plant.n)
    xh = rng.normal(size=plant.n)
    one = exact_hold_step(plant, x0, xh, 0.5)
    two = exact_hold_step(plant, exact_hold_step(plant, x0, xh, 0.2), xh, 0.3)
    assert np.allclose(one, two, rtol=1e-11, atol=1e-13)


def test_exact_hold_step_requires_positive_dt():
    plant = _sample_plant(7)
    x = np.zeros(plant.n)
    with pytest.raises(ValueError):
        exact_hold_step(plant, x, x, 0.0)
    with pytest.raises(ValueError):
        exact_hold_step(plant, x, x, -0.1)


def test_plant_validation():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    K = np.array([[-1.0, -1.0]])
    plant = LtiPlant(A=A, B=B, K=K)
    assert plant.n == 2 and plant.m == 1
    assert np.array_equal(plant.phi, A + B @ K)
    with pytest.raises(ValueError):
        LtiPlant(A=A, B=B, K=np.array([[-1.0, -1.0, 0.0]]))  # K shape mismatch
    with pytest.raises(ValueError):
        LtiPlant(A=np.array([[0.0, 1.0]]), B=B, K=K)  # A not square
    with pytest.raises(EnvelopeError):
        LtiPlant(A=A, B=B, K=np.zeros((1, 2)))  # A + BK not Hurwitz


def test_plant_keeps_its_own_read_only_matrices():
    # an edit of the caller's arrays after construction must not reach the
    # plant, whose envelopes and step tables were built from the originals,
    # and no array of the plant can be written
    A, B, K = np.array([[0.0, 1.0], [-2.0, -3.0]]), np.array([[0.0], [1.0]]), np.array([[-1.0, -1.0]])
    plant = LtiPlant(A=A, B=B, K=K)
    kept = {name: getattr(plant, name).copy() for name in ("A", "B", "K", "phi", "bk")}
    A[0, 0] = B[1, 0] = K[0, 1] = 7.0
    for name, want in kept.items():
        M = getattr(plant, name)
        assert np.array_equal(M, want), name
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


def test_input_mode_values():
    assert InputMode("hold_last") is InputMode.HOLD_LAST
    assert InputMode("zero_during_dos") is InputMode.ZERO_DURING_DOS
    plant = LtiPlant(
        A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]),
        input_mode=InputMode.ZERO_DURING_DOS,
    )
    assert plant.input_mode is InputMode.ZERO_DURING_DOS


@pytest.mark.parametrize("zero_input", [False, True], ids=["hold", "zero_input"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_taylor_step_matches_expm_of_the_augmented_matrix(n, zero_input):
    rng = np.random.default_rng(900 + n)
    plant = random_stabilized_plant(rng, n=n)
    # the table covers ||M||_F dt <= TAYLOR_THETA, M = [[A, B K], [0, 0]]; a zeroed input is w = 0
    reach = TAYLOR_THETA / np.linalg.norm(np.hstack((plant.A, plant.bk)))
    # the top point stays a rounding margin inside, so the test does not hang on how reach rounds
    grid = np.geomspace(1e-9 * reach, (1.0 - 1e-12) * reach, 25)
    stats = {"taylor_steps": 0, "expm_steps": 0}
    for k, dt in enumerate([*grid, 1.001 * reach, 4.0 * reach]):
        x, xh = rng.normal(size=n), rng.normal(size=n)
        # past the reach the step is the scaled and squared series, which is more
        # accurate there than scipy's Pade (9e-14 relative error at n = 2): the
        # reference for those points is a 40-digit exponential
        exp = mp_expm if dt > reach else scipy_expm
        want = expm_hold_step(plant.A, plant.bk, x, xh, dt, zero_input, exp)
        before = stats["expm_steps"]
        got = plant.step(x, np.zeros(n) if zero_input else xh, float(dt), stats)
        assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(x), np.linalg.norm(xh)), (k, dt)
        # past the reach the step is the matrix exponential, and says so
        assert stats["expm_steps"] - before == (dt > reach)
    assert stats == {"taylor_steps": len(grid), "expm_steps": 2}


def _states_and_exact_flow(rng: np.random.Generator, plant: LtiPlant, zero_input: bool):
    """Three starts [x; x_held] (right after a success, apart, held zero; x at three scales) as columns,
    the matrix M of their flow, and max(||x||, ||x_held||) per start."""
    n = plant.n
    x = rng.normal(size=(n, 3)) * [1.0, 1e-3, 1e3]
    held = np.column_stack((x[:, 0], rng.normal(size=n), np.zeros(n)))
    M = plant.A if zero_input else np.block([[plant.A, plant.bk], [np.zeros((n, 2 * n))]])
    scale = np.maximum(np.linalg.norm(x, axis=0), np.linalg.norm(held, axis=0))
    return x, held, M, scale


def _on_grid(h: float) -> float:
    """h truncated to 40 significant bits, so that j h is an exact float for every j up to 2^13."""
    mant, ex = math.frexp(h)
    return math.ldexp(math.floor(math.ldexp(mant, 40)), ex - 40)


def _worst_row_error(rng: np.random.Generator, plant: LtiPlant, zero_input: bool, h: float, rows: int) -> float:
    """Largest error of the states at offsets h, 2 h, .., rows h (h on the grid), relative to their start's scale.

    The states as sim.run computes them from one start: a stretch, the
    offsets' powers times the start's Taylor coefficients, within the
    Taylor reach, and one LtiPlant.step (mat_exp) past it.
    """
    x, held, M, scale = _states_and_exact_flow(rng, plant, zero_input)
    want = mp_expm_orbit(M, h, x if zero_input else np.vstack((x, held)), rows)[:, : plant.n]
    offsets = h * np.arange(1, rows + 1)
    W = 0.0 * held if zero_input else held
    worst = 0.0
    for c in range(3):
        if offsets[-1] <= plant.taylor_reach:
            got = plant.stretch(plant.taylor_coeffs(x[:, c], W[:, c]), offsets)
        else:
            got = np.array([plant.step(x[:, c], W[:, c], float(dt)) for dt in offsets])
        worst = max(worst, float(np.max(np.linalg.norm(got - want[:, :, c], axis=1))) / scale[c])
    return worst


@pytest.mark.parametrize("zero_input", [False, True], ids=["hold", "zero_input"])
@pytest.mark.parametrize("kind", ["non_normal", "rotating"])
def test_stepped_states_lie_within_the_crossing_slack(kind, zero_input):
    # The stepping error that sim.find_event_crossing's docstring cites for
    # the Taylor coefficients it decides crossings on: each state must lie
    # within 1e-12 max(||x||, ||x_held||) of the exact flow from its start
    # [x; x_held]. Checked on single steps (LtiPlant.step) of up to the
    # Taylor reach, and on the record ticks of
    # the longest record step an EVENT_TIME run of the plant accepts
    # (delta1 = delta2 = the Riccati bound at a feasible sigma): every row
    # of one stretch (LtiPlant.stretch), as many as fit the reach, or, on
    # the rotating plants, whose record step lies past it, one mat_exp
    # step. Reference: powers of a 40-digit exponential in exact integer
    # arithmetic.
    rng = np.random.default_rng(2200 + 2 * (kind == "rotating") + zero_input)
    worst = 0.0
    for n in range(1, 9):
        plant = hunt_plant(rng, n, kind)
        rs = _on_grid(riccati_delta2(plant.phi_norm, plant.bk_norm, feasible_sigma(plant)) / 4.0)
        rows = max(1, min(_STRETCH_ROWS, int(plant.taylor_reach / rs)))
        worst = max(worst, _worst_row_error(rng, plant, zero_input, rs, rows))
        # h k for k = 1..8 are exact floats, 8 h within 2^-40 of the reach
        h = _on_grid(plant.taylor_reach / 8.0)
        x, held, M, scale = _states_and_exact_flow(rng, plant, zero_input)
        want = mp_expm_orbit(M, h, x if zero_input else np.vstack((x, held)), 8)[:, :n]
        for k, c in itertools.product(range(1, 9), range(3)):
            got = plant.step(x[:, c], np.zeros(n) if zero_input else held[:, c], k * h)
            worst = max(worst, float(np.linalg.norm(got - want[k - 1, :, c])) / scale[c])
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("zero_input", [False, True], ids=["hold", "zero_input"])
@pytest.mark.parametrize("kind", ["non_normal", "rotating"])
def test_stretch_rows_to_the_taylor_reach_lie_within_the_slack(kind, zero_input):
    # What sim.run records while it waits for a crossing, from the
    # coefficients the search decides on: every row of one stretch,
    # _STRETCH_ROWS of them at offsets up to the Taylor reach, within 1e-12
    # of the largest of ||x|| and ||x_held||, against the 40-digit flow from
    # the stretch's base. Each row is one Taylor step from that base, so it
    # stays within the slack on strongly non-normal plants too, where powers
    # of a one-step propagator at the reach drifted up to 7.7e-10 (seed
    # 2200, n = 7, hold).
    rng = np.random.default_rng(2200 + 2 * (kind == "rotating") + zero_input)
    worst = 0.0
    for n in range(1, 9):
        plant = hunt_plant(rng, n, kind)
        h = _on_grid(plant.taylor_reach / _STRETCH_ROWS)
        worst = max(worst, _worst_row_error(rng, plant, zero_input, h, _STRETCH_ROWS))
    assert worst <= 1e-12, worst


def test_taylor_step_of_a_zero_matrix_is_the_identity():
    # A = 0 with the input zeroed (w = 0): x' = 0, so every step, from the
    # table within its reach (||M||_F = 1) and by mat_exp past it, keeps x
    plant = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))
    stats = {"taylor_steps": 0, "expm_steps": 0}
    for dt in (1e-300, 1.0, 1e300):
        assert plant.step(np.array([2.5]), np.array([0.0]), dt, stats).tolist() == [2.5]
    assert stats == {"taylor_steps": 2, "expm_steps": 1}


@pytest.mark.parametrize("zero_input", [False, True], ids=["hold", "zero_input"])
def test_step_from_its_taylor_coefficients_is_the_same_step(zero_input):
    # a caller stepping many times from one state forms taylor_coeffs once and hands them to step
    rng = np.random.default_rng(77)
    plant = random_stabilized_plant(rng, n=4)
    x, xh = rng.normal(size=4), rng.normal(size=4)
    if zero_input:
        xh = np.zeros(4)
    coeffs = plant.taylor_coeffs(x, xh)
    reach = plant.taylor_reach
    stats = {"taylor_steps": 0, "expm_steps": 0}
    for dt in [*np.geomspace(1e-9 * reach, (1.0 - 1e-12) * reach, 12), 2.0 * reach]:
        want = plant.step(x, xh, float(dt))
        assert plant.step(x, xh, float(dt), stats, coeffs).tobytes() == want.tobytes()
    assert stats == {"taylor_steps": 12, "expm_steps": 1}


@pytest.mark.parametrize("zero_input", [False, True], ids=["hold", "zero_input"])
def test_stretch_rows_are_the_steps_of_their_offsets(zero_input):
    # sim.run steps every row up to the next event as one stretch from one
    # set of Taylor coefficients: row i is the single step of offset i, up
    # to the rounding of the two products (a matrix product is not summed
    # as a vector product is, so the bits may differ)
    rng = np.random.default_rng(78)
    plant = random_stabilized_plant(rng, n=4)
    x, xh = rng.normal(size=4), rng.normal(size=4)
    if zero_input:
        xh = np.zeros(4)
    reach = plant.taylor_reach
    offsets = np.append(np.sort(rng.uniform(0.0, reach, size=299)), reach)
    rows = plant.stretch(plant.taylor_coeffs(x, xh), offsets)
    assert rows.shape == (300, 4)
    scale = max(np.linalg.norm(x), np.linalg.norm(xh))
    for dt, row in zip(offsets, rows):
        np.testing.assert_allclose(row, plant.step(x, xh, float(dt)), rtol=0, atol=1e-15 * scale)


@pytest.mark.parametrize("n", range(1, 9))
def test_both_plant_norms_from_one_svd_are_spectral_norms_bit_for_bit(n):
    # one svd of the stacked pair runs gesdd on each matrix in turn, so each
    # norm is the one spectral_norm takes of that matrix alone
    rng = np.random.default_rng(4100 + n)
    for _ in range(25):
        plant = random_stabilized_plant(rng, n=n)
        assert plant.phi_norm.hex() == spectral_norm(plant.phi).hex()
        assert plant.bk_norm.hex() == spectral_norm(plant.bk).hex()
