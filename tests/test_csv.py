"""The trace CSV writer's bulk %.17g kernel, against '%.17g' % x as the oracle."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dosloop
from dosloop import LogicKind, SimConfig, run
from dosloop.dos import DosBudget, DosSequence
from dosloop._g17 import csv_cells, round17
from conftest import feasible_sigma, random_stabilized_plant, standard_trigger


def _assert_formats_like_percent_g(values) -> None:
    """csv_cells(values), NUL bytes dropped, must be '%.17g,' % x for every x."""
    v = np.asarray(values, dtype=float).ravel()
    for lo in range(0, v.size, 1 << 16):  # bounded memory for the million-value sets
        chunk = v[lo : lo + (1 << 16)]
        got = csv_cells(chunk).tobytes().translate(None, b"\0")
        want = "".join(["%.17g," % x for x in chunk.tolist()]).encode()
        if got != want:
            cells = got.decode().split(",")
            bad = [(x, c) for x, c in zip(chunk.tolist(), cells) if c != "%.17g" % x]
            pytest.fail(f"{len(bad)} cells differ from %.17g; (value, cell): {bad[:3]}")


def _ulp_neighbours(x: np.ndarray, steps: int) -> np.ndarray:
    """x and its neighbours up to the given number of ulps either side."""
    out = [x]
    up, down = x.copy(), x.copy()
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _tie_distance(v: float) -> Fraction:
    """Exact distance of |v| 10^(16 - k), k = floor(log10 |v|), from its nearest half-integer."""
    k = math.floor(math.log10(abs(v)))
    S = Fraction(abs(v)) * Fraction(10) ** (16 - k)
    while S < 10**16:  # log10 may have rounded across a power of ten
        S *= 10
    while S >= 10**17:
        S /= 10
    return abs(S - math.floor(S) - Fraction(1, 2))


def test_csv_cells_match_percent_g_on_a_million_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    specials = np.array(
        [
            0x0000000000000000, 0x8000000000000000,  # +-0
            0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
            0x7FF8000000000000, 0xFFF8000000000000,  # NaN of either sign
            0x7FF0000000000001, 0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF,  # NaN with payloads
            0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0010000000000000,  # subnormal ends, least normal
            0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,  # +-largest
        ],
        dtype=np.uint64,
    )
    bits = np.concatenate((bits, specials))
    assert np.unique((bits >> np.uint64(52)) & np.uint64(0x7FF)).size == 2048  # every exponent
    _assert_formats_like_percent_g(bits.view(np.float64))


def test_csv_cells_match_percent_g_at_every_power_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-320, 309)])
    values = _ulp_neighbours(powers, 3)
    _assert_formats_like_percent_g(np.concatenate((values, -values)))


def test_csv_cells_round_exact_ties_half_to_even():
    # Where 10^q (q = 16 - k) is a double the kernel's sum is exact, so it
    # rounds true ties itself. v = j / 2^(q + 1), j odd, puts S = v 10^q at
    # a half-integer; even and odd j give both rounding directions.
    rng = np.random.default_rng(7)
    ties = [1e15 + 0.25, 1e15 + 0.75]
    for q in range(1, 23):
        lo = math.ceil(Fraction(10) ** (16 - q) * 2 ** (q + 1))
        hi = min(math.floor(Fraction(10) ** (17 - q) * 2 ** (q + 1)), 2**53)  # j / 2^(q + 1) a double
        for j in rng.integers(lo, hi - 1, size=40, dtype=np.int64).tolist():
            ties.append((j | 1) / 2 ** (q + 1))
    assert all(_tie_distance(v) == 0 for v in ties)
    values = np.array(ties)
    _assert_formats_like_percent_g(np.concatenate((values, -values)))
    # both rounding directions occur: the digit before the tie's 5 is odd and even
    last = {("%.17e" % v).split("e")[0][-2] for v in ties}
    assert last & set("13579") and last & set("02468")


def _near_ties_at_inexact_scales() -> list[float]:
    """Doubles whose 17-digit rounding lies within 1e-9 of a tie where 10^q is not a double.

    Above 1e17, v = m 2^e gives S = v / 10^d = (m 2^(e - d)) / 5^d, so
    m = (5^d +- 1) / 2 * 2^-(e - d) mod 5^d puts S 1 / (2 5^d) from a tie.
    Below 1e-6, v = m / 2^e gives S = v 10^q = (m 5^q) / 2^s, s = e - q, so
    m = (2^(s - 1) +- 1) 5^-q mod 2^s puts S 2^-s from one. m is kept in
    [2^52, 2^53), S in [10^16, 10^17), and d and s large enough for 1e-9.
    """
    found = []
    for d in range(13, 40):  # v = m 2^e in [10^(16 + d), 10^(17 + d))
        F = 5**d
        for e in range(d, d + 80):
            lo = max(2**52, -(-(10 ** (16 + d)) // 2**e))
            hi = min(2**53, 10 ** (17 + d) // 2**e)
            for sign in (1, -1):
                m = (F + sign) // 2 * pow(2 ** (e - d), -1, F) % F
                m += -(-(lo - m) // F) * F  # the first m = m0 mod F at or above lo
                if m < hi:
                    found.append(float(m * 2**e))
    for q in range(23, 80):  # v = m / 2^e in [10^(16 - q), 10^(17 - q))
        for e in range(q + 30, q + 54):
            s = e - q
            for sign in (1, -1):
                m = (2 ** (s - 1) + sign) * pow(5**q, -1, 2**s) % 2**s
                m += -(-(2**52 - m) // 2**s) * 2**s
                v = Fraction(m, 2**e)
                if m < 2**53 and Fraction(10) ** (16 - q) <= v < Fraction(10) ** (17 - q):
                    found.append(float(v))
    return found


def test_csv_cells_send_near_ties_at_inexact_scales_to_the_fallback():
    near = _near_ties_at_inexact_scales()
    distances = [_tie_distance(v) for v in near]
    assert len(near) > 50 and all(0 < dist < Fraction(1, 10**9) for dist in distances)
    # some lie closer to the tie than the kernel's proved error bound
    assert min(distances) < Fraction(1, 2**46)
    values = np.array(near)
    _assert_formats_like_percent_g(np.concatenate((values, -values)))


def test_csv_cells_match_percent_g_on_integers_and_at_notation_switches():
    rng = np.random.default_rng(63)
    ints = [float(i) for i in range(-1000, 1001)]
    ints += [float(2**k + j) for k in range(64) for j in (-1, 0, 1)]
    ints += rng.integers(0, 2**63, size=20000, dtype=np.int64).astype(float).tolist()
    # %g switches to scientific notation below 1e-4 and at 1e17 and above
    edges = _ulp_neighbours(np.array([1e-5, 1e-4, 1e16, 1e17]), 64)
    spread = np.concatenate([rng.uniform(1.0, 10.0, 5000) * 10.0**e for e in (-6, -5, -4, 15, 16, 17)])
    _assert_formats_like_percent_g(np.concatenate((ints, edges, -edges, spread, -spread)))


def test_typical_trace_values_take_no_fallback():
    v = np.random.default_rng(3).normal(size=10**5) * 0.3
    assert not round17(v)[2].any()
    _assert_formats_like_percent_g(v)


def _n8_periodic_trace():
    """A pure_time run of a seeded 8-state, 8-input plant: about 8,000 rows."""
    rng = np.random.default_rng(88)
    plant = random_stabilized_plant(rng, n=8, m=8)
    trig = standard_trigger(plant, feasible_sigma(plant, 0.5))
    record_step = trig.delta1 / 4.0
    return run(SimConfig(
        plant=plant, logic=LogicKind.PURE_TIME, trigger=trig, dos=DosSequence(()),
        budget=DosBudget(kappa=1.0, tau_avg=2.0), x0=np.ones(8), horizon=8000 * record_step,
        record_step=record_step,
    ))


def _to_csv_peak(trace, path) -> int:
    tracemalloc.start()
    try:
        trace.to_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_to_csv_memory_is_small_and_flat_in_trace_length(tmp_path):
    short = _n8_periodic_trace()
    assert len(short) >= 8000 and short.u.shape[1] == 8
    rows = ("t", "x", "u", "e_norm", "x_norm", "jammed", "attempt", "success")
    long = dataclasses.replace(short, **{name: np.concatenate([getattr(short, name)] * 8) for name in rows})
    assert len(long) >= 64000
    short.to_csv(tmp_path / "warm.csv")  # the kernel builds its tables on first use
    peak_short = _to_csv_peak(short, tmp_path / "short.csv")
    peak_long = _to_csv_peak(long, tmp_path / "long.csv")
    assert peak_short <= 2.5e6, peak_short
    assert abs(peak_long - peak_short) <= 0.5e6, (peak_short, peak_long)


def test_the_kernel_loads_only_when_a_trace_is_written(tmp_path):
    # a fresh process compiles every module it imports (bytecode is not
    # always cached), so loading scenarios must not pay for the kernel
    src = Path(dosloop.__file__).resolve().parent.parent
    scenario = src.parent / "scenarios" / "scalar.json"
    code = """
import sys
from dosloop.cli import load_scenario, main
load_scenario(sys.argv[1])
before = "dosloop._g17" in sys.modules
main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print(before, "dosloop._g17" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code, str(scenario), str(tmp_path / "t.csv")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False True"
