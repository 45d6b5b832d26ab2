"""Command-line front end: analyze, simulate, sweep, gen-dos.

Scenarios are JSON documents with sections plant / trigger / dos / budget /
sim / analysis (see scenario_from_dict). Exit codes form the tool's contract:

    0  command succeeded; every claimed property held
    1  input problem (a command-line error, with argparse's usage on stderr;
       parse error, missing file, infeasible generator, a jam sequence over
       its budget, an inadmissible delta2)
    2  analyze only: some certificate is infeasible at the configured budget
    3  simulate only: a certified property failed in simulation
    4  internal error: an unexpected exception, a bug in dosloop rather than
       in the input; "internal error:" and the traceback go to stderr

Exit code 3 is the signal worth paging someone over: it means a bound that
the analysis certified was violated by the trajectory it certifies.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dos as dos_io
from .dos import (
    DosBudget,
    DosSequence,
    GenerationError,
    Verdict,
    check_horizon,
    check_slow_average,
    gen_periodic,
    gen_random_budgeted,
    periodic_budget,
    xi_measure,
)
from .guarantees import (
    IDEAL_ROBUSTNESS,
    LyapunovConstants,
    SamplingRobustness,
    TrajectoryConstants,
    _lyapunov_certificate,
    format_report,
    ges_certificate_ideal,
    measure_robustness,
    xi_bar_measure,
)
from .linalg import EnvelopeError, FloatArray, _identity, as_weight
from .plant import InputMode, LtiPlant
from .sim import SimConfig, Trace, check_update_rule, run, verify_ges
from .triggers import LogicKind, TriggerConfig, Varphi, riccati_delta2, validate_trigger_for_plant


class ScenarioError(ValueError):
    """Bad input: a malformed or inconsistent scenario file or command line.

    The only ValueError that main reports as bad input (exit 1); any other
    ValueError is a bug (exit 4), so input checks that the library raises as
    ValueError are re-raised as ScenarioError where the input is read.
    """


@dataclass(eq=False)
class Scenario:
    """A fully built scenario: plant, logic, trigger, jamming, run settings.

    Q, the Lyapunov route's weight (analysis.Q), is checked once, here:
    weight is what the check gives, (Q, its smallest eigenvalue, its
    2-norm), and the route solves with it (guarantees._lyapunov_certificate)
    without checking Q again. The identity takes no eigenvalue solve.
    """

    plant: LtiPlant
    logic: LogicKind
    trigger: TriggerConfig
    dos: DosSequence
    budget: DosBudget
    x0: FloatArray
    horizon: float
    record_step: float
    crossing_tol: float
    Q: FloatArray
    delta2_was_computed: bool
    weight: tuple[FloatArray, float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            self.weight = as_weight(self.Q, self.plant.n, "analysis.Q")
        except (TypeError, ValueError) as exc:
            raise ScenarioError(str(exc)) from exc

    def sim_config(self) -> SimConfig:
        """The run settings, checked by SimConfig (jam budget, record_step, delta2, x0)."""
        try:
            return SimConfig(
                plant=self.plant,
                logic=self.logic,
                trigger=self.trigger,
                dos=self.dos,
                budget=self.budget,
                x0=self.x0,
                horizon=self.horizon,
                record_step=self.record_step,
                crossing_tol=self.crossing_tol,
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc


def _section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ScenarioError(f"missing section {name!r}")
    sec = doc[name]
    if not isinstance(sec, dict):
        raise ScenarioError(f"section {name!r} must be an object")
    return sec


def _get(sec: dict, section: str, key: str, default=None):
    if key not in sec or sec[key] is None:
        if default is None:
            raise ScenarioError(f"section {section!r} is missing key {key!r}")
        return default
    return sec[key]


def _is_number(value) -> bool:
    # float() would read a JSON true or false as 1.0 or 0.0, and the string "0.25" as 0.25.
    # JSON gives exact floats and ints; the type test spares them the numbers.Real ABC walk.
    t = type(value)
    return t is float or t is int or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _as_float(value, where: str) -> float:
    if not _is_number(value):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer past the largest float, such as 10**400
        raise ScenarioError(f"{where}: {exc}") from exc


def _as_array(value, where: str) -> FloatArray:
    """A float array of value, a number or nested lists of numbers; checks each entry, not numpy's dtype.

    np.asarray([True, 1.0]) is float64, and np.asarray(["0.5"], dtype=float) parses the string.
    """
    entries = [value]
    for v in entries:  # one flat pass: a list's items join its end, and a float is taken without a call
        if isinstance(v, list):
            entries.extend(v)
        elif not (type(v) is float or _is_number(v)):
            raise ScenarioError(f"{where}: expected a number, got {v!r}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged nesting, or an integer past the largest float
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_dos(sec: dict, budget: DosBudget, horizon: float, base_dir: Path) -> DosSequence:
    keys = [k for k in ("intervals", "file", "generator") if sec.get(k) is not None]
    if len(keys) != 1:
        raise ScenarioError("section 'dos' needs exactly one of: intervals, file, generator")
    kind = keys[0]
    if kind == "intervals":
        intervals = sec["intervals"]
        if not (isinstance(intervals, list) and all(isinstance(p, list) and len(p) == 2 for p in intervals)):
            raise ScenarioError("dos.intervals must be a list of [onset, duration] pairs")
        return DosSequence(tuple((_as_float(h, "dos.intervals"), _as_float(d, "dos.intervals")) for h, d in intervals))
    if kind == "file":
        path = base_dir / str(sec["file"])
        if not path.exists():
            raise ScenarioError(f"dos.file does not exist: {path}")
        seq, _ = dos_io.load(path)
        return seq
    gen = sec["generator"]
    if not isinstance(gen, dict):
        raise ScenarioError("dos.generator must be an object")
    gkind = _get(gen, "dos.generator", "kind")
    if gkind == "periodic":
        return gen_periodic(
            onset=_as_float(_get(gen, "dos.generator", "onset", 0.0), "dos.generator.onset"),
            period=_as_float(_get(gen, "dos.generator", "period"), "dos.generator.period"),
            duty=_as_float(_get(gen, "dos.generator", "duty"), "dos.generator.duty"),
            horizon=horizon,
        )
    if gkind == "random":
        seed = _get(gen, "dos.generator", "seed")
        if type(seed) is not int:  # int() would truncate 2.9 to 2 and read true as 1
            raise ScenarioError(f"dos.generator.seed: expected an integer, got {seed!r}")
        return gen_random_budgeted(
            budget=budget,
            min_duration=_as_float(_get(gen, "dos.generator", "min_duration"), "dos.generator.min_duration"),
            seed=seed,
            horizon=horizon,
            min_gap=_as_float(_get(gen, "dos.generator", "min_gap", 0.0), "dos.generator.min_gap"),
        )
    raise ScenarioError(f"unknown dos.generator.kind {gkind!r} (expected periodic or random)")


def scenario_from_dict(doc: dict, base_dir: Path | None = None) -> Scenario:
    """Build a Scenario from a parsed JSON document.

    delta2 may be null or absent in the trigger section; it is then filled
    from the Riccati inter-update bound and flagged so reports can echo it.
    """
    base_dir = Path(".") if base_dir is None else base_dir
    p = _section(doc, "plant")
    mode_text = str(_get(p, "plant", "input_mode", InputMode.HOLD_LAST.value))
    try:
        mode = InputMode(mode_text)
    except ValueError as exc:
        raise ScenarioError(f"unknown plant.input_mode {mode_text!r}") from exc
    A, B, K = (_as_array(_get(p, "plant", key), f"plant.{key}") for key in "ABK")
    try:
        plant = LtiPlant(A=A, B=B, K=K, input_mode=mode)
    except (ValueError, TypeError, EnvelopeError) as exc:
        raise ScenarioError(f"plant: {exc}") from exc

    t = _section(doc, "trigger")
    kind_text = str(_get(t, "trigger", "kind"))
    try:
        logic = LogicKind(kind_text)
    except ValueError as exc:
        raise ScenarioError(f"unknown trigger.kind {kind_text!r}") from exc
    sigma = _as_float(_get(t, "trigger", "sigma"), "trigger.sigma")
    delta1 = _as_float(_get(t, "trigger", "delta1"), "trigger.delta1")
    delta2_raw = t.get("delta2")
    vp = t.get("varphi") or {}
    if not isinstance(vp, dict):
        raise ScenarioError("trigger.varphi must be an object")
    scale = _as_float(vp.get("scale", 1.0), "trigger.varphi.scale")
    delta2_was_computed = delta2_raw is None
    if not delta2_was_computed:
        delta2 = _as_float(delta2_raw, "trigger.delta2")
    try:
        varphi = Varphi(kind=str(vp.get("kind", "zero")), scale=scale)
        if delta2_was_computed:
            delta2 = riccati_delta2(plant.phi_norm, plant.bk_norm, sigma)
        trigger = TriggerConfig(sigma=sigma, delta1=delta1, delta2=delta2, varphi=varphi)
    except ValueError as exc:
        raise ScenarioError(f"trigger: {exc}") from exc

    b = _section(doc, "budget")
    try:
        budget = DosBudget(
            kappa=_as_float(_get(b, "budget", "kappa"), "budget.kappa"),
            tau_avg=_as_float(_get(b, "budget", "tau"), "budget.tau"),
        )
    except ValueError as exc:
        raise ScenarioError(f"budget: {exc}") from exc

    s = _section(doc, "sim")
    horizon = _as_float(_get(s, "sim", "horizon"), "sim.horizon")
    try:
        check_horizon(horizon)  # as SimConfig does, which analyze never builds
    except ValueError as exc:
        raise ScenarioError(f"sim.horizon: {exc}") from exc
    record_step = _as_float(_get(s, "sim", "record_step"), "sim.record_step")
    crossing_tol = _as_float(_get(s, "sim", "crossing_tol", 1e-9), "sim.crossing_tol")
    x0 = _as_array(_get(s, "sim", "x0"), "sim.x0")

    try:
        seq = _parse_dos(_section(doc, "dos"), budget, horizon, base_dir)
    except (ValueError, GenerationError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"dos: {exc}") from exc

    a = doc.get("analysis") or {}
    if not isinstance(a, dict):
        raise ScenarioError("section 'analysis' must be an object")
    q_raw = a.get("Q")
    Q = _identity(plant.n) if q_raw is None else _as_array(q_raw, "analysis.Q")

    return Scenario(  # checks Q
        plant=plant,
        logic=logic,
        trigger=trigger,
        dos=seq,
        budget=budget,
        x0=x0,
        horizon=horizon,
        record_step=record_step,
        crossing_tol=crossing_tol,
        Q=Q,
        delta2_was_computed=delta2_was_computed,
    )


def _read_document(path: Path) -> dict:
    """The JSON object in a scenario file; a missing file, text that is not UTF-8 or malformed JSON is bad input."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return doc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_document(path), base_dir=path.parent)


def worst_case_robustness(sc: Scenario) -> SamplingRobustness:
    """A priori attempt-gap bound for the configured logic and jam sequence.

    While jammed, EVENT_TIME and PURE_TIME retry every delta1; SELF_TRIGGER
    gaps can stretch to delta2; IDEAL_EVENT retries continuously (gap 0).
    tau_star is the shortest configured interval (+inf when there is none,
    making the inflation factor exactly 1).
    """
    if sc.logic is LogicKind.IDEAL_EVENT:
        return IDEAL_ROBUSTNESS
    delta = sc.trigger.delta2 if sc.logic is LogicKind.SELF_TRIGGER else sc.trigger.delta1
    tau_star = float(np.min(sc.dos.durations)) if len(sc.dos) else math.inf
    return SamplingRobustness(delta_star=delta, tau_star=tau_star)


@dataclass(frozen=True)
class CertificateBundle:
    ideal: TrajectoryConstants
    sampled: TrajectoryConstants
    lyapunov: LyapunovConstants
    robustness: SamplingRobustness


def certificates(sc: Scenario) -> CertificateBundle:
    """The three certificates at the configured budget.

    The sampled one is the ideal one inflated (one rho_star), and the
    Lyapunov one comes from the scenario's checked weight, with the budget
    arguments that the ideal one has checked.
    """
    rob = worst_case_robustness(sc)
    kappa, tau = sc.budget.kappa, sc.budget.tau_avg
    ideal = ges_certificate_ideal(sc.plant, sc.trigger.sigma, kappa, tau)
    return CertificateBundle(
        ideal=ideal,
        sampled=ideal.inflated(rob.inflation),
        lyapunov=_lyapunov_certificate(sc.plant, sc.weight, sc.trigger.sigma, kappa, tau),
        robustness=rob,
    )


def analysis_report(sc: Scenario) -> dict[str, object]:
    """Key/value report over all three certificate families at the configured budget."""
    bundle = certificates(sc)
    ideal, sampled, lyap = bundle.ideal, bundle.sampled, bundle.lyapunov
    try:
        delta2_bound = validate_trigger_for_plant(sc.trigger, sc.plant)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    report: dict[str, object] = {
        "logic": sc.logic.value,
        "sigma": sc.trigger.sigma,
        "delta1": sc.trigger.delta1,
        "delta2": sc.trigger.delta2,
        "delta2_source": "computed" if sc.delta2_was_computed else "config",
        "delta2_bound": delta2_bound,
        "kappa": sc.budget.kappa,
        "tau": sc.budget.tau_avg,
        "mu": ideal.mu,
        "lam": ideal.lam,
        "theta": ideal.theta,
        "rho": ideal.rho,
        "bk_norm": ideal.bk_norm,
        "rho_star": ideal.rho_star,
        "sigma_margin": ideal.sigma_margin,
        "sigma_feasible": ideal.sigma_feasible,
        "tau_min_ideal": ideal.tau_min,
        "alpha_ideal": ideal.alpha,
        "beta_ideal": ideal.beta,
        "feasible_ideal": ideal.feasible,
        "delta_star_wc": bundle.robustness.delta_star,
        "tau_star_wc": bundle.robustness.tau_star,
        "inflation_wc": bundle.robustness.inflation,
        "tau_min_sampled": sampled.tau_min,
        "alpha_sampled": sampled.alpha,
        "beta_sampled": sampled.beta,
        "feasible_sampled": sampled.feasible,
        "gamma1": lyap.gamma1,
        "gamma2": lyap.gamma2,
        "alpha1_lyap": lyap.alpha1,
        "alpha2_lyap": lyap.alpha2,
        "omega1_lyap": lyap.omega1,
        "omega2_lyap": lyap.omega2,
        "sigma_feasible_lyap": lyap.sigma_feasible,
        "tau_min_lyapunov": lyap.tau_min,
        "alpha_lyapunov": lyap.alpha,
        "beta_lyapunov": lyap.beta,
        "feasible_lyapunov": lyap.feasible,
        "feasible_all": ideal.feasible and sampled.feasible and lyap.feasible,
    }
    return report


def cmd_analyze(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    report = analysis_report(sc)
    text = format_report(report)
    sys.stdout.write(text)
    if args.report:
        Path(args.report).write_text(text)
    return 0 if report["feasible_all"] else 2


def _applicable_certificates(sc: Scenario, bundle: CertificateBundle) -> list[tuple[str, float, float, bool]]:
    """(name, alpha, beta, feasible) for certificates whose premises the logic satisfies.

    The ideal and Lyapunov families assume updates resume the instant jamming
    stops, so only IDEAL_EVENT runs can be held to them; the finite-rate
    logics answer to the sampled certificate built from worst-case gaps.
    """
    if sc.logic is LogicKind.IDEAL_EVENT:
        return [
            ("ideal", bundle.ideal.alpha, bundle.ideal.beta, bundle.ideal.feasible),
            ("lyapunov", bundle.lyapunov.alpha, bundle.lyapunov.beta, bundle.lyapunov.feasible),
        ]
    return [("sampled", bundle.sampled.alpha, bundle.sampled.beta, bundle.sampled.feasible)]


def _strongest_certificate(sc: Scenario, bundle: CertificateBundle) -> tuple[str, float, float] | None:
    """(name, alpha, beta) of the feasible applicable certificate with the largest beta, or None."""
    feasible = [(n, a, b) for n, a, b, ok in _applicable_certificates(sc, bundle) if ok]
    return max(feasible, key=lambda item: item[2]) if feasible else None


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    config = sc.sim_config()
    trace = run(config)
    trace.to_csv(args.out)
    bundle = certificates(sc)
    measured = measure_robustness(trace.t[trace.attempt == 1], sc.dos)

    xi = xi_measure(sc.dos, sc.horizon)
    xi_bar = xi_bar_measure(sc.dos, measured, sc.horizon)

    lines: dict[str, object] = {
        "trace_rows": len(trace),
        "diverged": trace.diverged,
        "delta_star_measured": measured.delta_star,
        "tau_star_measured": measured.tau_star,
        "xi_horizon": xi,
        "xi_bar_horizon": xi_bar,
    }

    # (key, report key of its worst, verdict): each adds key_holds, its worst and, failing, key_first_violation
    verdicts: list[tuple[str, str, Verdict]] = []
    strongest = _strongest_certificate(sc, bundle)
    if strongest is not None:
        name, alpha, beta = strongest
        lines.update(certificate=name, alpha=alpha, beta=beta)
        verdicts.append(("ges", "ges_worst_margin", verify_ges(trace, alpha, beta)))
    else:
        lines["certificate"] = "uncertified"
    rule = check_update_rule(trace, sc.trigger.sigma, sc.dos, measured)
    verdicts.append(("update_rule", "update_rule_worst_ratio", rule))
    for key, worst_key, verdict in verdicts:
        lines[f"{key}_holds"] = verdict.holds
        lines[worst_key] = verdict.worst
        if not verdict.holds:
            lines[f"{key}_first_violation"] = verdict.first_violation

    measure_ok = xi_bar <= xi * measured.inflation * (1.0 + 1e-9)
    lines["measure_inequality_holds"] = measure_ok

    sys.stdout.write(format_report(lines))
    return 0 if measure_ok and all(verdict.holds for _, _, verdict in verdicts) else 3


# The scenario section that holds each parameter sweep can vary.
_SWEEP_SECTIONS = {"tau": "budget", "sigma": "trigger", "delta1": "trigger"}


def _sweep_point(
    sc: Scenario, value: float, traces: dict[DosSequence, Trace] | None
) -> tuple[float, str, str, str, str]:
    """The sweep row of the scenario at one grid value.

    traces, when given, holds the last run of the points before, by its jam
    intervals: a tau sweep's points differ only in the budget, which run()
    never reads, and in the intervals a generator draws from it, so one run
    serves each next point with the same intervals, and only one run is
    kept. Each point still checks its own budget (sim_config) and its own
    alpha and beta.
    """
    bundle = certificates(sc)
    sampled = bundle.sampled
    row = (value, repr(sampled.tau_min), repr(sampled.alpha), repr(sampled.beta))
    strongest = _strongest_certificate(sc, bundle)
    if strongest is None:
        return (*row, "")
    try:
        config = sc.sim_config()
    except ScenarioError:  # e.g. the jam sequence breaks this point's budget
        return (*row, "")
    _, alpha, beta = strongest
    if traces is None:
        trace = run(config)
    else:
        if config.dos not in traces:
            traces.clear()
            traces[config.dos] = run(config)
        trace = traces[config.dos]
    return (*row, "true" if verify_ges(trace, alpha, beta).holds else "false")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEP_SECTIONS:
        raise ScenarioError(f"unknown sweep parameter {args.param!r} (expected tau, sigma or delta1)")
    if args.steps < 2:
        raise ScenarioError(f"sweep needs at least 2 steps, got {args.steps}")
    path = Path(args.config)
    doc = _read_document(path)
    rows, errors = [], []
    traces = {} if args.param == "tau" else None
    # one point after another: the work is GIL-bound Python, which threads do not speed up
    for value in np.linspace(args.lo, args.hi, args.steps).tolist():
        patched = json.loads(json.dumps(doc))
        patched.setdefault(_SWEEP_SECTIONS[args.param], {})[args.param] = value
        # Only input errors blank a point; anything else is a bug and reaches main's exit 4.
        try:
            sc = scenario_from_dict(patched, path.parent)
        except (ScenarioError, GenerationError) as exc:
            errors.append(exc)
            rows.append((value, "nan", "nan", "nan", ""))
        else:
            rows.append(_sweep_point(sc, value, traces))
    if len(errors) == len(rows):  # no swept value mends the document: it is bad input
        raise errors[0]
    rows.sort(key=lambda r: r[0])
    with open(args.out, "w") as fh:
        fh.write("value,tau_min,alpha,beta,ges_observed\n")
        for value, tau_min, alpha, beta, observed in rows:
            fh.write(f"{value!r},{tau_min},{alpha},{beta},{observed}\n")
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


def cmd_gen_dos(args: argparse.Namespace) -> int:
    if args.kind not in ("periodic", "random"):
        raise ScenarioError(f"unknown gen-dos kind {args.kind!r} (expected periodic or random)")
    if args.kind == "periodic" and (args.period is None or args.duty is None):
        raise ScenarioError("gen-dos --kind periodic needs --period and --duty")
    if args.kind == "random" and (args.kappa is None or args.tau is None or args.min_duration is None):
        raise ScenarioError("gen-dos --kind random needs --kappa, --tau and --min-duration")
    try:
        if args.kind == "periodic":
            seq = gen_periodic(args.onset, args.period, args.duty, args.horizon)
            budget = periodic_budget(args.period, args.duty)
        else:
            budget = DosBudget(kappa=args.kappa, tau_avg=args.tau)
            seq = gen_random_budgeted(budget, args.min_duration, args.seed, args.horizon, args.min_gap)
    except ValueError as exc:  # the generators' and the budget's argument checks
        raise ScenarioError(str(exc)) from exc
    verdict = check_slow_average(seq, budget, args.horizon)
    if not verdict.holds:
        raise GenerationError(
            f"generated sequence violates its own budget at t={verdict.first_violation:.6g}"
        )
    dos_io.save(args.out, seq, budget)
    sys.stdout.write(f"wrote {len(seq)} intervals to {args.out}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are bad input (exit 1), not argparse's exit 2; subparsers are _Parsers too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ScenarioError(f"{self.prog}: {message}")


# Cached: building the argparse tree is most of main's own per-call cost.
# parse_args returns a fresh Namespace each time, so calls share no state.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dosloop",
        description="Stability certificates and simulation for control loops under jamming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute certificates and feasibility for a scenario")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--report", help="also write the key = value report to this file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a scenario and check certified properties")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="trace CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="grid-sweep one parameter, reporting certificates per point")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--param", required=True, help="one of: tau, sigma, delta1")
    p.add_argument("--from", dest="lo", type=float, required=True, help="first grid value")
    p.add_argument("--to", dest="hi", type=float, required=True, help="last grid value")
    p.add_argument("--steps", type=int, required=True, help="number of grid points (>= 2)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-dos", help="generate a jam-interval file")
    p.add_argument("--kind", required=True, help="one of: periodic, random")
    p.add_argument("--kappa", type=float, help="budget allowance (random kind)")
    p.add_argument("--tau", type=float, help="budget average denial ratio denominator (random kind)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (random kind)")
    p.add_argument("--horizon", type=float, required=True, help="generate intervals with onsets below this time")
    p.add_argument("--min-duration", dest="min_duration", type=float, help="shortest interval (random kind)")
    p.add_argument("--min-gap", dest="min_gap", type=float, default=0.0, help="minimum gap between intervals (random kind)")
    p.add_argument("--period", type=float, help="period (periodic kind)")
    p.add_argument("--duty", type=float, help="jammed fraction in (0, 1) (periodic kind)")
    p.add_argument("--onset", type=float, default=0.0, help="first onset (periodic kind)")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_gen_dos)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ScenarioError, GenerationError, OSError) as exc:  # bad input, a plant with no envelope included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # anything else is a bug, not bad input: keep it off exit 1
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
