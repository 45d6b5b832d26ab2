"""Closed-form stability certificates for loops under jamming.

Two certificate families are computed from plant envelopes and the jamming
budget (kappa, tau):

- trajectory certificates built from the decay/growth envelopes, in an ideal
  variant (updates resume the instant jamming stops) and a sampled variant
  (the jam windows are inflated by the worst attempt gap, delta_star, against
  the shortest interval, tau_star);
- a quadratic-form (Lyapunov) certificate built from P solving
  Phi^T P + P Phi + Q = 0.

Both produce global exponential bounds ||x(t)|| <= alpha exp(-beta t) ||x(0)||
with an explicit feasibility verdict; a family whose alpha overflows a float
reports alpha = inf and is infeasible.

The measured side reads a run's attempt times alone (measure_robustness:
the worst gap per jam interval, found with whole-array operations), and one
running maximum of the inflated window ends (_window_reach) gives both the
jam-free segments here and the exempt rows of sim.check_update_rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .dos import DosSequence, _window_time
from .linalg import FloatArray, _is_identity, _lyapunov, _norm2, as_weight
from .plant import LtiPlant

_RHO_STAR_TOL = 1e-10


@dataclass(frozen=True)
class SamplingRobustness:
    """Attempt-gap bookkeeping: worst gap delta_star vs shortest interval tau_star.

    delta_per_interval optionally carries the measured worst gap inside each
    jam interval (same order as the sequence), enabling exact reconstruction
    of the inflated jam measure; when omitted, delta_star is used uniformly.
    """

    delta_star: float
    tau_star: float
    delta_per_interval: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.delta_star >= 0.0:
            raise ValueError(f"delta_star must be >= 0, got {self.delta_star}")
        if not self.tau_star > 0.0:
            raise ValueError(f"tau_star must be > 0, got {self.tau_star}")
        if any(not d >= 0.0 for d in self.delta_per_interval):
            raise ValueError("per-interval gaps must be >= 0")

    @property
    def inflation(self) -> float:
        """Inflation factor 1 + delta_star / tau_star (exactly 1 when delta_star is 0)."""
        return 1.0 + self.delta_star / self.tau_star


IDEAL_ROBUSTNESS = SamplingRobustness(delta_star=0.0, tau_star=math.inf)


def rho_star(
    lam: float,
    omega2: float,
    sigma: float,
    theta: float,
    bk_norm: float,
    rho_floor: float = 0.0,
) -> float:
    """Smallest rate zeta >= rho_floor with omega_star(zeta) <= 1.

    omega_star(z) = omega2 [(1+sigma) + theta + theta1 / z] / (lam + z), theta1 =
    theta (1+sigma) bk_norm > 0, is strictly decreasing for z > 0, so bracket
    expansion from rho_floor (0 allowed) plus bisection until hi - lo <= 1e-10 hi
    finds the threshold; the upper end is returned, so omega_star(rho_star) <= 1.
    Each test point and the stop are relative, so rates scaled by 2^k (lam,
    omega2, bk_norm, rho_floor) scale the result by exactly 2^k.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive, got {lam}")
    for name, v in (("omega2", omega2), ("sigma", sigma), ("theta", theta), ("bk_norm", bk_norm), ("rho_floor", rho_floor)):
        if not (v >= 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    if omega2 == 0.0:
        return rho_floor
    theta1 = theta * (1.0 + sigma) * bk_norm
    if not theta1 > 0.0:
        raise ValueError(f"theta * bk_norm must be positive when omega2 is, got theta={theta}, bk_norm={bk_norm}")

    def omega_star_at(z: float) -> float:
        return omega2 * ((1.0 + sigma) + theta + theta1 / z) / (lam + z)

    lo = rho_floor
    if lo > 0.0 and omega_star_at(lo) <= 1.0:  # omega_star(0+) is +inf
        return rho_floor
    hi = max(lo, lam)
    while omega_star_at(hi) > 1.0:
        hi *= 2.0
    while hi - lo > _RHO_STAR_TOL * hi:
        mid = 0.5 * (lo + hi)
        if omega_star_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class TrajectoryConstants:
    """Envelope-based certificate evaluated at a given (kappa, tau) budget."""

    mu: float
    lam: float
    theta: float
    rho: float
    sigma: float
    bk_norm: float
    omega2: float
    theta1: float
    rho_star: float
    inflation: float
    kappa: float
    tau: float
    sigma_margin: float
    tau_min: float
    alpha: float
    beta: float
    sigma_feasible: bool
    feasible: bool

    def inflated(self, inflation: float) -> TrajectoryConstants:
        """This certificate with every jam window inflated by the factor inflation.

        Only the jam-time rate (lam + rho_star) inflation and the fields that
        follow from it change; rho_star does not depend on the inflation, so
        its bisection does not run again.
        """
        return replace(
            self, **_jam_terms(self.mu, self.lam, self.rho_star, self.sigma_margin, self.kappa, self.tau, inflation)
        )


def _jam_terms(
    mu: float, lam: float, rs: float, margin: float, kappa: float, tau: float, inflation: float
) -> dict[str, float | bool]:
    """The fields of a trajectory certificate that depend on the inflation: tau_min, alpha, beta, feasible."""
    sigma_feasible = margin > 0.0
    rate = (lam + rs) * inflation
    tau_min = rate / margin if sigma_feasible else math.inf
    alpha = mu * _exp_or_inf(kappa * rate)
    return {
        "inflation": inflation,
        "tau_min": tau_min,
        "alpha": alpha,
        "beta": margin - rate / tau,
        # an overflowing alpha certifies nothing, whatever tau is
        "feasible": sigma_feasible and tau > tau_min and alpha < math.inf,
    }


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or +inf where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_budget_args(sigma: float, kappa: float, tau: float) -> None:
    """The argument checks both certificate families make."""
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive, got {tau}")


def ges_certificate_ideal(plant: LtiPlant, sigma: float, kappa: float, tau: float) -> TrajectoryConstants:
    """Trajectory certificate assuming updates resume the instant jamming stops (inflation 1)."""
    _check_budget_args(sigma, kappa, tau)
    env = plant.decay
    gro = plant.growth
    bk_norm = plant.bk_norm
    omega2 = env.mu * bk_norm
    rs = rho_star(env.lam, omega2, sigma, gro.theta, bk_norm, gro.rho)
    margin = env.lam - sigma * env.mu * bk_norm
    return TrajectoryConstants(
        mu=env.mu,
        lam=env.lam,
        theta=gro.theta,
        rho=gro.rho,
        sigma=sigma,
        bk_norm=bk_norm,
        omega2=omega2,
        theta1=gro.theta * (1.0 + sigma) * bk_norm,
        rho_star=rs,
        kappa=kappa,
        tau=tau,
        sigma_margin=margin,
        sigma_feasible=margin > 0.0,
        **_jam_terms(env.mu, env.lam, rs, margin, kappa, tau, 1.0),
    )


def ges_certificate_sampled(
    plant: LtiPlant,
    sigma: float,
    kappa: float,
    tau: float,
    robustness: SamplingRobustness,
) -> TrajectoryConstants:
    """Trajectory certificate under finite attempt rates.

    Every jam window is inflated by the worst attempt gap; all jam-time terms
    pick up the factor 1 + delta_star / tau_star: the ideal certificate,
    inflated (TrajectoryConstants.inflated). With delta_star = 0 this reduces
    exactly to ges_certificate_ideal.
    """
    return ges_certificate_ideal(plant, sigma, kappa, tau).inflated(robustness.inflation)


@dataclass(frozen=True)
class LyapunovConstants:
    """Quadratic-form certificate from Phi^T P + P Phi + Q = 0."""

    P: FloatArray
    alpha1: float
    alpha2: float
    gamma1: float
    gamma2: float
    omega1: float
    omega2: float
    sigma: float
    kappa: float
    tau: float
    tau_min: float
    alpha: float
    beta: float
    sigma_feasible: bool
    feasible: bool


def ges_certificate_lyapunov(
    plant: LtiPlant,
    Q: FloatArray,
    sigma: float,
    kappa: float,
    tau: float,
) -> LyapunovConstants:
    """Lyapunov certificate at the given (sigma, kappa, tau).

    gamma1 is the decay margin of Q, gamma2 the gain of the cross term
    ||K^T B^T P + P B K||; feasibility of sigma requires gamma1 - sigma gamma2 > 0.
    V decays at rate omega1 outside jam windows and grows at most at omega2
    inside them, giving alpha = sqrt(exp(kappa (omega1 + omega2)) alpha2/alpha1)
    and beta = (omega1 - (omega1 + omega2)/tau) / 2.

    Q is checked here (linalg.as_weight), whatever its source, and the
    certificate is _lyapunov_certificate's with the checked weight; a
    caller that has checked Q already (cli.Scenario) calls that core itself.
    """
    _check_budget_args(sigma, kappa, tau)
    return _lyapunov_certificate(plant, as_weight(Q, plant.n), sigma, kappa, tau)


def _lyapunov_certificate(
    plant: LtiPlant,
    weight: tuple[FloatArray, float, float],
    sigma: float,
    kappa: float,
    tau: float,
) -> LyapunovConstants:
    """ges_certificate_lyapunov for a checked weight (Q, gamma1, ||Q||_2), as linalg.as_weight gives it.

    The budget arguments are taken as checked. When Q is the identity, bit
    for bit, P and its eigenvalues are the ones plant.decay solved for and
    checked (as solve_lyapunov checks them), so no second Lyapunov system is
    solved. Any other Q is solved as solve_lyapunov solves it, keeping the
    eigenvalues of P that the solve checked. gamma2's matrix, built here,
    goes to _norm2 without a second check.
    """
    Qm, gamma1, q_norm = weight
    env = plant.decay
    if env.P is not None and _is_identity(Qm):
        P, p_eigs = env.P, env.p_eigs
    else:
        P, _, p_eigs = _lyapunov(plant.phi, Qm, q_norm)
    alpha1, alpha2 = float(p_eigs[0]), float(p_eigs[-1])
    gamma2 = _norm2(plant.bk.T @ P + P @ plant.bk)
    sigma_feasible = gamma1 - sigma * gamma2 > 0.0
    omega1 = (gamma1 - gamma2 * sigma) / alpha2
    omega2 = gamma2 * (2.0 + sigma) / alpha1
    tau_min = (omega1 + omega2) / omega1 if sigma_feasible else math.inf
    alpha = math.sqrt(_exp_or_inf(kappa * (omega1 + omega2)) * alpha2 / alpha1)
    beta = 0.5 * (omega1 - (omega1 + omega2) / tau)
    feasible = sigma_feasible and tau > tau_min and alpha < math.inf
    return LyapunovConstants(
        P=P,
        alpha1=alpha1,
        alpha2=alpha2,
        gamma1=gamma1,
        gamma2=gamma2,
        omega1=omega1,
        omega2=omega2,
        sigma=sigma,
        kappa=kappa,
        tau=tau,
        tau_min=tau_min,
        alpha=alpha,
        beta=beta,
        sigma_feasible=sigma_feasible,
        feasible=feasible,
    )


def measure_robustness(attempt_times: FloatArray | Sequence[float], seq: DosSequence) -> SamplingRobustness:
    """Measure delta_star / tau_star from a run's attempt times (in any order).

    For each jam interval, the worst gap between consecutive attempts whose
    *first* element falls inside it (an attempt with no successor contributes
    nothing: its gap is not observable). Intervals containing no attempt get
    gap 0. tau_star is the shortest interval duration, +inf for an empty
    sequence. A run's attempt times are trace.t[trace.attempt == 1].
    """
    times = np.sort(np.asarray(attempt_times, dtype=float))
    if times.ndim != 1:
        raise ValueError(f"attempt_times must be one-dimensional, got shape {times.shape}")
    per = np.zeros(len(seq))
    if len(seq) and times.size >= 2:
        starts = times[:-1]
        idx = np.searchsorted(seq.onsets, starts, side="right") - 1
        inside = (idx >= 0) & (starts < seq.ends[np.maximum(idx, 0)])
        np.maximum.at(per, idx[inside], np.diff(times)[inside])
    delta_star = float(per.max()) if len(seq) else 0.0
    tau_star = float(np.min(seq.durations)) if len(seq) else math.inf
    return SamplingRobustness(delta_star=delta_star, tau_star=tau_star, delta_per_interval=tuple(per.tolist()))


def _gaps(seq: DosSequence, robustness: SamplingRobustness) -> FloatArray:
    """The attempt gap of each jam interval: delta_per_interval, or delta_star for each when it is empty."""
    if robustness.delta_per_interval:
        if len(robustness.delta_per_interval) != len(seq):
            raise ValueError(
                f"robustness carries {len(robustness.delta_per_interval)} per-interval gaps "
                f"for a sequence of {len(seq)} intervals"
            )
        return np.array(robustness.delta_per_interval, dtype=float)
    return np.full(len(seq), robustness.delta_star)


def xi_bar_measure(seq: DosSequence, robustness: SamplingRobustness, t: float) -> float:
    """Inflated jammed time on [0, t]: each interval extended by its attempt gap."""
    return float(_window_time(seq, t, seq.durations + _gaps(seq, robustness)))


def _window_reach(seq: DosSequence, robustness: SamplingRobustness) -> FloatArray:
    """Running maximum of end_k + gap_k over the sorted onsets.

    Entry k is where the union of the inflated jam windows [h_j, end_j +
    gap_j), j <= k, ends past h_k: windows j <= k cover t >= h_k exactly when
    t < reach[k].
    """
    return np.maximum.accumulate(seq.ends + _gaps(seq, robustness))


def dos_free_segments(
    seq: DosSequence,
    robustness: SamplingRobustness,
    horizon: float,
) -> list[tuple[float, float]]:
    """Maximal sub-intervals of [0, horizon] outside every inflated jam window."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    reach = _window_reach(seq, robustness)
    # a window starts a new stretch of jamming unless an earlier one reaches it
    first = np.flatnonzero(seq.onsets > np.concatenate(([-math.inf], reach))[: len(seq)])
    lo = np.concatenate(([0.0], reach[first[1:] - 1], reach[-1:]))
    hi = np.minimum(np.concatenate((seq.onsets[first], [horizon])), horizon)
    keep = hi > lo
    return list(zip(lo[keep].tolist(), hi[keep].tolist()))


def format_report(values: Mapping[str, object]) -> str:
    """Flat "name = value" lines; floats keep full precision via repr."""
    lines = []
    for name, value in values.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"
