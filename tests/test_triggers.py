"""Scheduling logics and the Riccati inter-update bound."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from dosloop import (
    LogicKind,
    LtiPlant,
    TriggerConfig,
    Varphi,
    exact_hold_step,
    next_update_event_time,
    next_update_self_trigger,
    predict_state,
    riccati_delta2,
    spectral_norm,
    validate_trigger_for_plant,
)
from dosloop.triggers import next_attempt
from conftest import assert_close, random_stabilized_plant
from oracles import rk4_hold_trajectory, rk4_riccati_crossing


def test_riccati_delta2_known_closed_forms():
    # a = 0 decouples the quadratic: phi(t) = e^{c t} - 1, crossing ln(1+sigma)/c
    assert_close(riccati_delta2(1.0, 0.0, 1.0), math.log(2.0), 1e-9, "a=0 case")
    # c = a has the double-root closed form sigma / (a (1 + sigma))
    assert_close(riccati_delta2(1.0, 1.0, 0.5), 1.0 / 3.0, 1e-9, "c=a case")


def test_riccati_delta2_matches_integrated_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        c = float(rng.uniform(0.05, 8.0))
        a = float(rng.choice([0.0, rng.uniform(0.05, 8.0)]))
        sigma = float(rng.uniform(0.01, 2.0))
        want = rk4_riccati_crossing(c, a, sigma)
        got = riccati_delta2(c, a, sigma)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-6), (c, a, sigma)


def test_riccati_delta2_decreases_with_stiffness():
    assert riccati_delta2(4.0, 2.0, 0.3) < riccati_delta2(1.0, 2.0, 0.3)
    assert riccati_delta2(1.0, 2.0, 0.1) < riccati_delta2(1.0, 2.0, 0.3)


def test_riccati_delta2_validation():
    with pytest.raises(ValueError):
        riccati_delta2(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        riccati_delta2(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        riccati_delta2(1.0, 1.0, 0.0)


def test_trigger_config_validation():
    TriggerConfig(sigma=0.2, delta1=0.1, delta2=0.1)  # equal rates are fine
    with pytest.raises(ValueError):
        TriggerConfig(sigma=0.2, delta1=0.2, delta2=0.1)
    with pytest.raises(ValueError):
        TriggerConfig(sigma=0.0, delta1=0.1, delta2=0.2)
    with pytest.raises(ValueError):
        TriggerConfig(sigma=0.2, delta1=0.0, delta2=0.2)


def test_validate_trigger_for_plant():
    plant = LtiPlant(A=np.array([[1.0]]), B=np.array([[1.0]]), K=np.array([[-2.0]]))
    bound = riccati_delta2(spectral_norm(plant.phi), spectral_norm(plant.bk), 0.25)
    ok = TriggerConfig(sigma=0.25, delta1=bound / 5.0, delta2=0.9 * bound)
    assert validate_trigger_for_plant(ok, plant) == pytest.approx(bound)
    bad = TriggerConfig(sigma=0.25, delta1=bound / 5.0, delta2=1.5 * bound)
    with pytest.raises(ValueError):
        validate_trigger_for_plant(bad, plant)


def test_varphi():
    assert Varphi()(123.0) == 0.0
    ramp = Varphi(kind="saturated_linear", scale=0.5)
    assert ramp(1.0) == 0.5
    assert ramp(10.0) == 1.0  # saturates
    assert ramp(-3.0) == 0.0  # clamped below
    with pytest.raises(ValueError):
        Varphi(kind="cubic")
    with pytest.raises(ValueError):
        Varphi(kind="saturated_linear", scale=0.0)


def test_predict_state_matches_rk4(rng):
    # the predictor integrates z' = (A + BK) z + BK x(t1), z(t1) = x(t1);
    # check against dense RK4 of exactly that ODE
    for _ in range(8):
        plant = random_stabilized_plant(rng)
        x = rng.normal(size=plant.n)
        dt = float(rng.uniform(0.01, 0.8))
        chi = predict_state(plant, x, 2.0, 2.0 + dt)
        want = rk4_hold_trajectory(plant.phi, plant.B, plant.K, x, x, dt, steps=4000)
        assert np.linalg.norm(chi - want) <= 1e-7 * max(1.0, float(np.linalg.norm(want)))


def test_predictor_variants_differ(rng):
    # the closed-loop predictor and the hold-dynamics step are distinct maps;
    # they agree only in degenerate cases, never for a generic plant
    plant = random_stabilized_plant(rng, n=2, m=1)
    x = rng.normal(size=2)
    chi = predict_state(plant, x, 0.0, 0.5)
    held = exact_hold_step(plant, x, x, 0.5)
    assert not np.allclose(chi, held, rtol=1e-3)


def test_predict_state_edges():
    plant = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))
    x = np.array([2.0])
    same = predict_state(plant, x, 1.0, 1.0)
    assert np.array_equal(same, x)
    assert same is not x  # a copy, not an alias
    with pytest.raises(ValueError):
        predict_state(plant, x, 1.0, 0.5)


CFG = TriggerConfig(sigma=0.3, delta1=0.05, delta2=0.2)
LINE = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))


def _next(logic, xh=(1.0,), failed=False, jam_end=math.inf):
    return next_attempt(logic, CFG, LINE, 1.0, np.array(xh), 0.5, failed, jam_end)


def test_pure_time_branches():
    assert _next(LogicKind.PURE_TIME, failed=False) == pytest.approx(1.2)
    assert _next(LogicKind.PURE_TIME, failed=True) == pytest.approx(1.05)


def test_event_time_branches():
    # failed attempts and the zero state fall back to the fast retry rate
    assert next_update_event_time(1.0, np.ones(1), True, CFG) == pytest.approx(1.05)
    assert next_update_event_time(1.0, np.zeros(1), False, CFG) == pytest.approx(1.05)
    # otherwise no attempt until sim.run finds a crossing
    assert next_update_event_time(1.0, np.ones(1), False, CFG) == math.inf
    assert _next(LogicKind.EVENT_TIME) == math.inf
    assert _next(LogicKind.EVENT_TIME, failed=True) == pytest.approx(1.05)
    assert _next(LogicKind.EVENT_TIME, xh=(0.0,)) == pytest.approx(1.05)
    # both event logics wait for a crossing from any nonzero state, the periodic ones never do
    assert _next(LogicKind.EVENT_TIME, xh=(5e-324,)) == math.inf
    assert _next(LogicKind.IDEAL_EVENT, xh=(5e-324,)) == math.inf
    # IDEAL_EVENT retries continuously while jammed: it succeeds when the interval ends;
    # from x_held = 0 it stays there, inf with no crossing to watch for (sim.run arms no watch)
    assert _next(LogicKind.IDEAL_EVENT, failed=True, jam_end=1.7) == 1.7
    assert _next(LogicKind.IDEAL_EVENT, xh=(0.0,)) == math.inf
    assert _next(LogicKind.PURE_TIME) < math.inf and _next(LogicKind.SELF_TRIGGER) < math.inf


def test_self_trigger_interpolates():
    plant = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))
    quiet = np.array([1e-9])
    cfg_zero = TriggerConfig(sigma=0.3, delta1=0.05, delta2=0.2, varphi=Varphi())
    assert next_update_self_trigger(2.0, quiet, 2.0, plant, cfg_zero) == pytest.approx(2.2)
    cfg_ramp = TriggerConfig(
        sigma=0.3, delta1=0.05, delta2=0.2, varphi=Varphi(kind="saturated_linear", scale=1e6)
    )
    loud = np.array([5.0])
    # huge predicted state saturates varphi, pulling the gap down to delta1
    assert next_update_self_trigger(2.0, loud, 2.0, plant, cfg_ramp) == pytest.approx(2.05)
    gap = next_update_self_trigger(2.0, loud, 2.0, plant, cfg_zero) - 2.0
    assert CFG.delta1 - 1e-12 <= gap <= CFG.delta2 + 1e-12


def test_self_trigger_from_a_huge_state_is_warning_free():
    # ||chi|| of 2^600 overflows its first sum of squares, which is then
    # rescaled: varphi saturates and the next attempt is delta1 away
    plant = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))
    cfg = TriggerConfig(sigma=0.3, delta1=0.25, delta2=0.5, varphi=Varphi(kind="saturated_linear", scale=1.0))
    big = np.array([2.0**600])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, 1.25):  # chi the sample itself, then its prediction
            assert next_update_self_trigger(t, big, 1.0, plant, cfg) == t + 0.25


def test_logic_kind_round_trip():
    for kind in LogicKind:
        assert LogicKind(kind.value) is kind
