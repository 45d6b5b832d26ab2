"""Scheduling logics and the Riccati inter-update bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dosloop import (
    LogicKind,
    LoopState,
    LtiPlant,
    TriggerConfig,
    Varphi,
    exact_hold_step,
    next_update_event_time,
    next_update_pure_time,
    next_update_self_trigger,
    predict_state,
    riccati_delta2,
    spectral_norm,
    validate_trigger_for_plant,
)
from dosloop.triggers import awaits_crossing
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


def _state(t=1.0, x=(1.0,), xh=(1.0,), failed=False, t_held=0.5):
    return LoopState(t=t, x=np.array(x), x_held=np.array(xh), last_attempt_failed=failed, t_held=t_held)


CFG = TriggerConfig(sigma=0.3, delta1=0.05, delta2=0.2)


def test_pure_time_branches():
    assert next_update_pure_time(_state(failed=False), CFG) == pytest.approx(1.2)
    assert next_update_pure_time(_state(failed=True), CFG) == pytest.approx(1.05)


def test_event_time_branches():
    # failed attempts and the zero state fall back to the fast retry rate
    assert next_update_event_time(_state(failed=True), CFG) == pytest.approx(1.05)
    zero = _state(x=(0.0,), xh=(0.0,))
    assert next_update_event_time(zero, CFG) == pytest.approx(1.05)
    # otherwise no attempt until sim.run finds a crossing
    assert next_update_event_time(_state(), CFG) == math.inf
    assert awaits_crossing(_state(), LogicKind.EVENT_TIME)
    assert not awaits_crossing(_state(failed=True), LogicKind.EVENT_TIME)
    assert not awaits_crossing(zero, LogicKind.EVENT_TIME)
    # both event logics wait for a crossing from any nonzero state, the periodic ones never do
    tiny = _state(x=(5e-324,), xh=(5e-324,))
    assert awaits_crossing(tiny, LogicKind.EVENT_TIME) and next_update_event_time(tiny, CFG) == math.inf
    assert awaits_crossing(tiny, LogicKind.IDEAL_EVENT) and not awaits_crossing(zero, LogicKind.IDEAL_EVENT)
    assert not awaits_crossing(_state(), LogicKind.PURE_TIME)
    assert not awaits_crossing(_state(), LogicKind.SELF_TRIGGER)


def test_self_trigger_interpolates():
    plant = LtiPlant(A=np.array([[0.0]]), B=np.array([[1.0]]), K=np.array([[-1.0]]))
    quiet = LoopState(t=2.0, x=np.array([1e-9]), x_held=np.array([1e-9]), t_held=2.0)
    cfg_zero = TriggerConfig(sigma=0.3, delta1=0.05, delta2=0.2, varphi=Varphi())
    assert next_update_self_trigger(quiet, plant, cfg_zero) == pytest.approx(2.2)
    cfg_ramp = TriggerConfig(
        sigma=0.3, delta1=0.05, delta2=0.2, varphi=Varphi(kind="saturated_linear", scale=1e6)
    )
    loud = LoopState(t=2.0, x=np.array([5.0]), x_held=np.array([5.0]), t_held=2.0)
    # huge predicted state saturates varphi, pulling the gap down to delta1
    assert next_update_self_trigger(loud, plant, cfg_ramp) == pytest.approx(2.05)
    gap = next_update_self_trigger(loud, plant, cfg_zero) - 2.0
    assert CFG.delta1 - 1e-12 <= gap <= CFG.delta2 + 1e-12


def test_logic_kind_round_trip():
    for kind in LogicKind:
        assert LogicKind(kind.value) is kind
