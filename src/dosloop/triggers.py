"""Transmission scheduling logics and the inter-update error bound.

Four interchangeable rules decide when the sensor attempts to transmit:

- EVENT_TIME: error-threshold events while acknowledged, a fast periodic
  retry cadence (delta1) while jammed;
- PURE_TIME: two-rate periodic sampling, delta2 while acknowledged, delta1
  while jammed;
- SELF_TRIGGER: next attempt computed from a model-based prediction of the
  current state, interpolating between delta2 and delta1;
- IDEAL_EVENT: pure event triggering with instantaneous retry, an
  idealization used as a baseline.

next_attempt applies them after every attempt. After a success from any
nonzero state both event logics wait for ||e|| to reach sigma ||x||: it
returns inf, and the simulator finds the crossing on the states it computes.

delta2 admissibility comes from a scalar Riccati comparison: the ratio
||e|| / ||x|| after a successful update is bounded by the solution of
phi' = c + (c + a) phi + a phi^2 with c = ||A + BK|| and a = ||BK||, so the
first time phi reaches sigma lower-bounds the inter-event time. The
quadratic factors, so that time has a closed form (riccati_delta2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import FloatArray, _norm, as_vector
from .plant import LtiPlant, _held_input_blocks


class LogicKind(Enum):
    EVENT_TIME = "event_time"
    PURE_TIME = "pure_time"
    SELF_TRIGGER = "self_trigger"
    IDEAL_EVENT = "ideal_event"


@dataclass(frozen=True)
class Varphi:
    """Gain shaping map into [0, 1]: the zero map or a saturated linear ramp."""

    kind: str = "zero"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "saturated_linear"):
            raise ValueError(f"unknown varphi kind {self.kind!r}")
        if self.kind == "saturated_linear" and not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"saturated_linear scale must be positive, got {self.scale}")

    def __call__(self, r: float) -> float:
        if self.kind == "zero":
            return 0.0
        return min(1.0, self.scale * max(0.0, float(r)))


@dataclass(frozen=True)
class TriggerConfig:
    """Threshold sigma plus the two sampling rates delta1 <= delta2."""

    sigma: float
    delta1: float
    delta2: float
    varphi: Varphi = Varphi()

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (self.delta1 > 0.0 and math.isfinite(self.delta1)):
            raise ValueError(f"delta1 must be positive, got {self.delta1}")
        if not (self.delta2 >= self.delta1 and math.isfinite(self.delta2)):
            raise ValueError(f"need delta1 <= delta2, got {self.delta1} > {self.delta2}")


def validate_trigger_for_plant(config: TriggerConfig, plant: LtiPlant) -> float:
    """Check delta2 against the Riccati inter-update bound; returns the bound.

    Raises ValueError when delta2 exceeds it, since the update rule would no
    longer be guaranteed between successful transmissions.
    """
    bound = riccati_delta2(plant.phi_norm, plant.bk_norm, config.sigma)
    if config.delta2 > bound * (1.0 + 1e-9):
        raise ValueError(
            f"delta2={config.delta2} exceeds the admissible inter-update bound {bound:.12g}"
        )
    return bound


def riccati_delta2(phi_norm: float, bk_norm: float, sigma: float) -> float:
    """First time the error-ratio bound reaches sigma, in closed form.

    phi' = c + (c + a) phi + a phi^2 = (1 + phi)(c + a phi), phi(0) = 0,
    separates to t = ln[c (1 + sigma) / (c + a sigma)] / (c - a), evaluated
    as w log1p(u) / u with w = sigma / (c + a sigma), u = (c - a) w: no
    cancellation, and the limit w covers c == a.
    """
    c, a, sigma = float(phi_norm), float(bk_norm), float(sigma)
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"phi_norm must be positive, got {phi_norm}")
    if not (a >= 0.0 and math.isfinite(a)):
        raise ValueError(f"bk_norm must be >= 0, got {bk_norm}")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive, got {sigma}")
    w = sigma / (c + a * sigma)
    u = (c - a) * w
    return w if u == 0.0 else w * math.log1p(u) / u


def predict_state(plant: LtiPlant, x_at_t1: FloatArray, t1: float, t2: float) -> FloatArray:
    """Forward prediction of the state at t2 from a successful sample at t1.

    Applies the closed-loop flow operator driven by that same sample:
    chi = [exp(Phi dt) + int_0^dt exp(Phi (dt - s)) B K ds] x(t1): the Van
    Loan blocks of the plant propagator with Phi for A.
    """
    if t2 < t1:
        raise ValueError(f"need t2 >= t1, got t1={t1}, t2={t2}")
    x = as_vector(x_at_t1, plant.n, "x_at_t1")
    dt = float(t2 - t1)
    if dt == 0.0:
        return x.copy()
    T, H = _held_input_blocks(plant.phi, plant.bk, dt)
    return (T + H) @ x


def next_update_event_time(t: float, x_held: FloatArray, failed: bool, config: TriggerConfig) -> float:
    """EVENT_TIME rule: delta1 retry while jammed or at x_held = 0, else no attempt until a crossing (inf).

    No size of x_held counts as rest. sim.run attempts at the crossing it
    finds; if none comes, the run goes on to the horizon without one.
    """
    return math.inf if not failed and x_held.any() else t + config.delta1


@np.errstate(over="ignore", invalid="ignore")
def next_update_self_trigger(
    t: float, x_held: FloatArray, t_held: float, plant: LtiPlant, config: TriggerConfig
) -> float:
    """SELF_TRIGGER rule: interpolate between delta2 and delta1 by predicted state size.

    chi predicts the current state from the last successfully received sample
    (it is that sample itself at the instant it was taken); large predictions
    pull the next attempt toward the fast rate delta1.
    """
    chi = x_held if t == t_held else predict_state(plant, x_held, t_held, t)
    frac = config.varphi(_norm(chi))
    return t + config.delta2 - (config.delta2 - config.delta1) * frac


def next_attempt(
    logic: LogicKind, config: TriggerConfig, plant: LtiPlant, t: float, x_held: FloatArray, t_held: float,
    failed: bool, jam_end: float,
) -> float:
    """The next attempt after an attempt at t, or inf while it waits for a crossing.

    x_held, taken at t_held, is the held sample after the attempt (zero
    before the first success); jam_end ends the jam interval a failed
    attempt met. IDEAL_EVENT retries continuously while jammed, so it
    succeeds at jam_end. From x_held = 0 after a success, EVENT_TIME
    retries at delta1 and IDEAL_EVENT stays there (inf, nothing to cross).
    """
    if logic is LogicKind.EVENT_TIME:
        return next_update_event_time(t, x_held, failed, config)
    if logic is LogicKind.SELF_TRIGGER:
        return next_update_self_trigger(t, x_held, t_held, plant, config)
    if logic is LogicKind.IDEAL_EVENT:
        return jam_end if failed else math.inf
    return t + (config.delta1 if failed else config.delta2)
