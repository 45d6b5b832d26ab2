"""Seeded inputs for the benchmark's workloads.

``generate(workload, seed, out_dir)`` writes the scenario files of one
workload into ``out_dir`` and returns its fixed job list. Inputs depend only
on the seed, the shipped scenarios under ``scenarios/`` and numpy/scipy:
this module never imports ``dosloop``, so the program under test cannot
change its own inputs, and the same seed gives byte-identical files.

Seeded plants are built the way the test suite builds them (random ``A``,
``B``; LQR gain ``K = -B^T X``; redraw until well conditioned), with this
module's own code. Trigger and budget values come from closed forms of the
paper's algebra:

* ``sigma`` is half the trajectory-feasibility cap ``lam / (mu ||BK||)``;
* ``delta2`` is 0.9 of the Riccati inter-update bound, ``delta1 = delta2 / 5``;
* the budget ``tau`` is ``TAU_FACTOR`` times the ideal route's ``tau_min``
  (and above the Lyapunov route's on ``certify``).

With jam intervals between ``5 delta1`` and ``10 delta1`` long, the retry
logics (``event_time``, ``pure_time``) inflate ``tau_min`` by at most 1.2 and
stay certified, while ``self_trigger`` (attempt gap up to ``delta2``) inflates
it by at least 1.5 and is uncertified by construction: ``TAU_FACTOR`` sits
between the two.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

import numpy as np
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

from worker import ROOT, Job

WORKLOADS = ("event_sim", "periodic_sim", "certify")

SIGMA_FRACTION = 0.5
DELTA2_SAFETY = 0.9
TAU_FACTOR = 1.35
JAM_INTERVALS = 4
# Trace rows per seeded simulate job: sized so one job costs about as much
# as one shipped double_integrator job.
EVENT_ROWS = 6000
PERIODIC_ROWS = 8000

# Same redraw filters as the test suite's plant sampler.
_MAX_MU = 25.0
_MIN_LAM = 0.03
_MAX_NORM = 10.0
_MIN_DELTA2 = 1.5e-3

# Certificate families a simulate job may report, per update logic.
EXPECTED_FAMILY = {
    "event_time": ("sampled",),
    "pure_time": ("sampled",),
    "self_trigger": ("uncertified",),
    "ideal_event": ("ideal", "lyapunov"),
}


def riccati_delta2(phi_norm: float, bk_norm: float, sigma: float) -> float:
    """Closed form of the first time phi' = (1 + phi)(c + a phi), phi(0) = 0, reaches sigma."""
    c, a = phi_norm, bk_norm
    if abs(c - a) <= 1e-9 * c:
        return sigma / (c * (1.0 + sigma))
    return math.log(c * (1.0 + sigma) / (c + a * sigma)) / (c - a)


def _rho_star(lam: float, omega2: float, sigma: float, theta1: float, rho_floor: float) -> float:
    """Positive root of z^2 + (lam - omega2 (2 + sigma)) z - omega2 theta1 = 0, floored (theta = 1)."""
    b = lam - omega2 * (2.0 + sigma)
    root = 0.5 * (-b + math.sqrt(b * b + 4.0 * omega2 * theta1))
    return max(root, rho_floor)


@dataclass(frozen=True)
class SeededPlant:
    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    sigma: float
    delta1: float
    delta2: float
    tau_min_ideal: float
    tau_min_lyapunov: float


def seeded_plant(rng: np.random.Generator, n: int) -> SeededPlant:
    """LQR-stabilised random plant with trigger constants, redrawn until well conditioned."""
    eye = np.eye(n)
    for _ in range(500):
        m = int(rng.integers(1, n + 1))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        try:
            X = solve_continuous_are(A, B, eye, np.eye(m))
        except (np.linalg.LinAlgError, ValueError):
            continue
        K = -B.T @ X
        phi = A + B @ K
        bk = B @ K
        P = solve_continuous_lyapunov(phi.T, -eye)
        P = 0.5 * (P + P.T)
        p_eigs = np.linalg.eigvalsh(P)
        if not (np.all(np.isfinite(p_eigs)) and p_eigs[0] > 0.0):
            continue
        a1, a2 = float(p_eigs[0]), float(p_eigs[-1])
        mu, lam = math.sqrt(a2 / a1), 1.0 / (2.0 * a2)
        c = float(np.linalg.norm(phi, 2))
        a = float(np.linalg.norm(bk, 2))
        if mu > _MAX_MU or lam < _MIN_LAM or c > _MAX_NORM or a > _MAX_NORM:
            continue
        cap = lam / (mu * a)
        if DELTA2_SAFETY * riccati_delta2(c, a, 0.9 * cap) < _MIN_DELTA2:
            continue
        sigma = SIGMA_FRACTION * cap
        delta2 = DELTA2_SAFETY * riccati_delta2(c, a, sigma)
        rho = max(0.0, float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1]))
        omega2 = mu * a
        rs = _rho_star(lam, omega2, sigma, (1.0 + sigma) * a, rho)
        tau_min_ideal = (lam + rs) / (lam - sigma * mu * a)
        # Lyapunov route with Q = I: same P as the decay envelope.
        gamma2 = float(np.linalg.norm(bk.T @ P + P @ bk, 2))
        if 1.0 - sigma * gamma2 <= 0.0:
            continue
        w1 = (1.0 - gamma2 * sigma) / a2
        w2 = gamma2 * (2.0 + sigma) / a1
        return SeededPlant(A, B, K, sigma, delta2 / 5.0, delta2, tau_min_ideal, (w1 + w2) / w1)
    raise RuntimeError(f"no well-conditioned n={n} plant in 500 draws")


def _round_up(x: float, digits: int = 3) -> float:
    """x rounded up to `digits` significant digits (keeps files short and stable)."""
    scale = 10.0 ** (math.floor(math.log10(x)) - digits + 1)
    return math.ceil(x / scale) * scale


def _unit_x0(rng: np.random.Generator, n: int) -> list[float]:
    v = rng.normal(size=n)
    return (v / np.linalg.norm(v)).tolist()


def _jam_intervals(rng: np.random.Generator, delta1: float, horizon: float) -> list[list[float]]:
    """JAM_INTERVALS intervals of 5-10 delta1, one per equal slot of the middle 90% of the run."""
    slot = 0.9 * horizon / JAM_INTERVALS
    min_duration = 5.0 * delta1
    out = []
    for k in range(JAM_INTERVALS):
        duration = min_duration * (1.0 + float(rng.uniform()))
        onset = 0.05 * horizon + k * slot + float(rng.uniform()) * (slot - duration)
        out.append([onset, duration])
    return out


def _sim_scenario(rng: np.random.Generator, n: int, rows: int) -> dict:
    """Seeded plant with explicit jamming; the kappa allowance covers every interval."""
    p = seeded_plant(rng, n)
    record_step = p.delta1 / 4.0
    horizon = rows * record_step
    intervals = _jam_intervals(rng, p.delta1, horizon)
    return {
        "plant": {"A": p.A.tolist(), "B": p.B.tolist(), "K": p.K.tolist(), "input_mode": "hold_last"},
        "trigger": {"kind": "event_time", "sigma": p.sigma, "delta1": p.delta1, "delta2": p.delta2},
        "dos": {"intervals": intervals},
        "budget": {"kappa": _round_up(sum(d for _, d in intervals)), "tau": _round_up(TAU_FACTOR * p.tau_min_ideal)},
        "sim": {"x0": _unit_x0(rng, n), "horizon": horizon, "record_step": record_step},
    }


def _certify_scenario(rng: np.random.Generator, n: int, seed: int) -> dict:
    """Seeded plant for analyze: delta2 computed by the program, jamming from its random generator."""
    p = seeded_plant(rng, n)
    tau = TAU_FACTOR * max(p.tau_min_ideal, p.tau_min_lyapunov)
    return {
        "plant": {"A": p.A.tolist(), "B": p.B.tolist(), "K": p.K.tolist(), "input_mode": "hold_last"},
        "trigger": {"kind": "event_time", "sigma": p.sigma, "delta1": p.delta1, "delta2": None},
        "dos": {"generator": {"kind": "random", "seed": seed, "min_duration": 5.0 * p.delta1, "min_gap": 2.0 * p.delta1}},
        "budget": {"kappa": _round_up(5.0 * p.delta1), "tau": _round_up(tau)},
        "sim": {"x0": _unit_x0(rng, n), "horizon": EVENT_ROWS * p.delta1 / 4.0, "record_step": p.delta1 / 4.0},
    }


def _shipped(name: str) -> dict:
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text())


def _variant(doc: dict, logic: str, input_mode: str | None = None) -> dict:
    out = json.loads(json.dumps(doc))
    out["trigger"]["kind"] = logic
    if input_mode is not None:
        out["plant"]["input_mode"] = input_mode
    return out


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _scenarios(workload: str, seed: int) -> list[tuple[str, str, dict, str | None]]:
    """(job id, command, scenario document, golden name) for one workload."""
    out: list[tuple[str, str, dict, str | None]] = []
    # Each seeded job gets its own plant, so a workload's cost averages over
    # four plants instead of following one.
    if workload == "event_sim":
        di = _shipped("double_integrator")
        for k, (logic, mode) in enumerate(product(("event_time", "ideal_event"), ("hold_last", "zero_during_dos"))):
            lqr = _sim_scenario(_rng(seed, 40 + k), 4, EVENT_ROWS)
            out.append((f"di-{logic}-{mode}", "simulate", _variant(di, logic, mode), None))
            out.append((f"lqr4-{logic}-{mode}", "simulate", _variant(lqr, logic, mode), None))
    elif workload == "periodic_sim":
        scalar = _shipped("scalar")
        # Four seeded jobs to two shipped ones, so the median job is a seeded one.
        for logic in ("pure_time", "self_trigger"):
            out.append((f"scalar-{logic}", "simulate", _variant(scalar, logic), None))
            for mode in ("hold_last", "zero_during_dos"):
                lqr = _sim_scenario(_rng(seed, 80 + len(out)), 8, PERIODIC_ROWS)
                out.append((f"lqr8-{logic}-{mode}", "simulate", _variant(lqr, logic, mode), None))
    elif workload == "certify":
        for name in ("scalar", "double_integrator"):
            out.append((f"analyze-{name}", "analyze", _shipped(name), name))
        for n in (2, 4, 8):
            out.append((f"analyze-lqr{n}", "analyze", _certify_scenario(_rng(seed, 100 + n), n, seed), None))
    else:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    return out


def generate(workload: str, seed: int, out_dir: Path) -> list[Job]:
    """Write the workload's scenario files and manifest.json into out_dir; return its jobs."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for job_id, command, doc, golden in _scenarios(workload, seed):
        name = f"{job_id}.json"
        (out_dir / name).write_text(json.dumps(doc, indent=1) + "\n")
        expect = EXPECTED_FAMILY[doc["trigger"]["kind"]] if command == "simulate" else ()
        jobs.append(Job(job_id, command, name, expect, golden))
    manifest = {"workload": workload, "seed": seed, "jobs": [asdict(j) for j in jobs]}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return jobs
