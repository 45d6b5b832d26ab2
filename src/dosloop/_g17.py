"""The exact text of '%.17g' % x for a whole float64 array at once.

Trace.to_csv writes every float of a trace as %.17g, which round-trips
exactly. Formatting them one by one costs about a microsecond each in
CPython; csv_cells computes the same bytes with numpy: 17 correctly rounded
digits from an error-free double-double product (Dekker 1971) with a proved
error bound (round17), digits four at a time from a table, and the %g
layout as masks on 64-bit words. The few values its bound cannot decide,
those within TIE_WINDOW of a rounding tie, and NaN, +-inf and magnitudes
outside [MIN_ABS, MAX_ABS], are left to '%.17g' % x itself, whose dtoa
(Gay 1990) rounds correctly.

The module is imported on the first Trace.to_csv, not with dosloop, so
commands that write no trace do not load it; its tables are built on first
use.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .linalg import FloatArray

# csv_cells formats nonzero |v| in [MIN_ABS, MAX_ABS] itself, and leaves a
# value to '%.17g' when its rounded-off fraction is within TIE_WINDOW of 1/2.
MIN_ABS = 1e-250
MAX_ABS = 1e250
TIE_WINDOW = 1e-6
# Decimal exponents k its tables cover: floor(log10 |v|) over that range,
# two corrections either way, and one more for a round-up to 10^(k+1).
K_LO = -253
K_HI = 253
VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into two halves of at most 26 bits
ASCII_ZEROS = 0x3030303030303030  # eight '0' characters


def _le_word(text: str, byte: int = 0) -> int:
    """ASCII text as a little-endian integer, its first character at the given byte."""
    return int.from_bytes(text.encode(), "little") << (8 * byte)


class _Tables(NamedTuple):
    """Lookup tables of round17 and csv_cells (see _tables)."""

    scale: FloatArray
    scale_hi: FloatArray
    scale_lo: FloatArray
    scale_rest: FloatArray
    digits4: np.ndarray
    below: np.ndarray
    above: np.ndarray
    point: np.ndarray
    head: np.ndarray
    tail: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Build the lookup tables of round17 and csv_cells, once, on first use.

    scale[k - K_LO] is the double P nearest 10^q, q = 16 - k, split into
    Veltkamp halves scale_hi and scale_lo; scale_rest is the double nearest
    10^q - P. Python's int true division rounds correctly and
    float.as_integer_ratio is exact, so both are correctly rounded.
    """
    scale, rest = [], []
    for k in range(K_LO, K_HI + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        P = num / den
        a, b = P.as_integer_ratio()
        scale.append(P)
        rest.append((num * b - a * den) / (den * b))
    P = np.array(scale)
    c = P * VELTKAMP
    P_hi = c - (c - P)
    # The 16 digits after the leading one, as two words, by 17 (digits kept)
    # + p: kept digits before the point, kept digits after it (they move up
    # one byte), and the point, after digit p for 1 <= p <= 15.
    both = (1 << 128) - 1
    below, above, point = [], [], []
    for kept in range(18):
        keep = (1 << (8 * max(kept - 1, 0))) - 1
        for p in range(17):
            low = (1 << (8 * p)) - 1 if 1 <= p <= 15 else both
            below.append(keep & low)
            above.append(keep & ~low & both)
            point.append(ord(".") << (8 * p) if 1 <= p <= 15 else 0)
    halves = [[[x & ((1 << 64) - 1) for x in xs], [x >> 64 for x in xs]] for xs in (below, above, point)]
    # Word 0 by ((point after the leading digit) 2 + sign) 50 + (lead-in) 10 +
    # leading digit: the sign, the "0." lead-in of a fixed-notation value
    # below 1 with up to three zeros, the leading digit and the point.
    lead_ins = [0] + [_le_word(z, 1) for z in ("0.000", "0.00", "0.0", "0.")]
    head = [
        dot | sign | lead_in | _le_word(str(d), 6)
        for dot in (0, _le_word(".", 7))
        for sign in (0, ord("-"))
        for lead_in in lead_ins
        for d in range(10)
    ]
    # Word 3 by 1 + k - K_LO (0: fixed notation): the exponent and the comma.
    tail = [_le_word(",", 7)] + [_le_word(f"e{k:+03d}", 1) | _le_word(",", 7) for k in range(K_LO, K_HI + 1)]
    words = [np.array(x, dtype=np.uint64) for x in (*halves, head, tail)]
    digits4 = np.array([_le_word(f"{g:04d}") for g in range(10000)], dtype=np.uint64)
    return _Tables(P, P_hi, P - P_hi, np.array(rest), digits4, *words)


def _scaled(a: FloatArray, k: np.ndarray, T: _Tables) -> tuple[FloatArray, FloatArray, np.ndarray]:
    """a 10^(16 - k) as h + r (see round17), and whether that sum is exact."""
    i = k - K_LO
    h = a * T.scale.take(i)
    a_hi = a * VELTKAMP
    a_hi -= a_hi - a
    a_lo = a - a_hi
    P_hi, P_lo = T.scale_hi.take(i), T.scale_lo.take(i)
    r = ((a_hi * P_hi - h) + a_hi * P_lo + a_lo * P_hi) + a_lo * P_lo
    rest = T.scale_rest.take(i)
    r += a * rest
    return h, r, rest == 0.0


def _off_scale(h: FloatArray, r: FloatArray) -> np.ndarray:
    """The step k takes: -1 where h + r < 10^16, +1 where h + r >= 10^17, else 0.

    h - 10^16 and h - 10^17 are exact wherever h is near them, and a rounded
    sum keeps the sign of the exact one, so both tests are exact.
    """
    return ((h - 1e17) + r >= 0.0).astype(np.int64) - ((h - 1e16) + r < 0.0)


def round17(v: FloatArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v rounded to 17 significant digits, |v| ~ D 10^(k - 16): (D, k, fallback).

    For a finite nonzero |v| in [MIN_ABS, MAX_ABS] let k = floor(log10 |v|)
    and S = |v| 10^q, q = 16 - k, so S lies in [10^16, 10^17); %.17g prints
    D = round(S), ties to even, at decimal exponent k, and D = 10^17 reads
    as 10^16 at k + 1. With P the double nearest 10^q and P' the double
    nearest 10^q - P, S is formed as h + r: h + l = |v| P exactly (Dekker's
    two-product; numpy has no fused multiply-add, so |v| and P are split
    into halves of at most 26 bits by Veltkamp's method, and over the range
    nothing over- or underflows), and r = fl(l + fl(|v| P')).
    - For 0 <= q <= 22, 10^q is a double, P' = 0 and h + r = S exactly.
    - Otherwise, with u = 2^-53: |10^q - P - P'| <= u^2 10^q,
      |fl(|v| P') - |v| P'| <= u^2 S (1 + u), and the last sum rounds off
      at most u (|l| + |fl(|v| P')|) <= 2 u^2 S (1 + u)^2, so
      |h + r - S| <= 4 u^2 S (1 + u)^2 < 2^-46 while S < 2^57.
    Once k settles (below), h + r is in [10^16, 10^17) and |r| < 64, so h
    is an even integer above 2^53 and D = h + rint(r), where rint's ties to
    even are D's. Where |r - rint(r)| > 1/2 - TIE_WINDOW, a window some 7e7
    times the error bound, the value is a near-tie and goes to the fallback;
    elsewhere the bound cannot change the rounding.

    k starts from np.log10 and steps down while h + r < 10^16 and up while
    h + r >= 10^17, at most twice. Where h + r and S lie on either side of
    10^16, both scales give the same digits: round(S) = 10^16 at k, and
    round(10 S) = 10^17 at k - 1, which reads as 10^16 at k; likewise at
    10^17.

    fallback marks the values left to '%.17g' % x: NaN, +-inf, nonzero
    values outside the range, near-ties, and a k not settled after two
    steps; their D is 0 and their k means nothing. Zero, either sign, has
    D = k = 0.
    """
    T = _tables()
    a = np.abs(v)
    fallback = ~((a >= MIN_ABS) & (a <= MAX_ABS))
    a[fallback] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    h, r, exact = _scaled(a, k, T)
    move = _off_scale(h, r)
    idx = np.flatnonzero(move)
    for _ in range(2):
        if not idx.size:
            break
        k[idx] += move[idx]
        h[idx], r[idx], exact[idx] = _scaled(a[idx], k[idx], T)
        move[idx] = _off_scale(h[idx], r[idx])
        idx = idx[move[idx] != 0]
    fallback[idx] = True
    r_int = np.rint(r)
    fallback |= (np.abs(r - r_int) > 0.5 - TIE_WINDOW) & ~exact
    zero = v == 0.0
    fallback &= ~zero
    D = h.astype(np.int64) + r_int.astype(np.int64)
    D[zero | fallback] = 0  # k is 0 at zero already: it was scaled as 1.0
    top = D == 10**17
    D[top] = 10**16
    k += top
    return D, k, fallback


def _digits17(v: FloatArray, T: _Tables) -> tuple[np.ndarray, ...]:
    """The 17 digits of round17 as characters: (lead, w1, w2, k, fallback).

    lead is the leading digit; w1 and w2 hold the other 16, as eight
    ASCII bytes each, in reading order from the low byte.
    """
    D, k, fallback = round17(v)
    hi8 = D // 10**8
    lo8 = D - hi8 * 10**8
    lead = hi8 // 10**8
    hi8 -= lead * 10**8
    words = []
    for x in (hi8, lo8):
        g = x // 10**4
        words.append(T.digits4.take(g) | (T.digits4.take(x - g * 10**4) << 32))
    return lead, *words, k, fallback


def csv_cells(v: FloatArray) -> np.ndarray:
    """'%.17g,' % x for every x in v, as four 64-bit words per value.

    Row i of the (v.size, 4) uint64 result, read as 32 little-endian
    bytes, is the text of '%.17g' % v[i] and a comma, padded with NUL bytes
    that the caller drops. Bytes 0-7 hold the sign, the "0." lead-in of a
    fixed-notation value below 1 (with up to three zeros), the leading digit
    and a point after it; bytes 8-24 the other 16 digits, with a point after
    digit p when 1 <= p <= 15; bytes 25-29 the exponent; byte 31 the comma.

    The digits come from round17, four at a time from a table. The text
    follows %g: scientific notation iff the exponent is below -4 or at least
    17; trailing zeros of the fraction are dropped, and the point with them;
    the exponent has its sign and at least two digits. The values round17
    leaves to the fallback are formatted by '%.17g' % x, whose dtoa (Gay
    1990) rounds correctly.
    """
    T = _tables()
    v = np.ravel(v)
    lead, w1, w2, k, fallback = _digits17(v, T)
    # Digits kept: through the last nonzero one. With its '0' bytes cleared,
    # a word's frexp exponent is one more than the index of its highest set
    # bit; every byte is then below 16, so rounding the word to 53 bits
    # cannot carry into the byte above.
    n1, n2 = ((np.frexp((w ^ ASCII_ZEROS).astype(np.float64))[1] + 7) >> 3 for w in (w1, w2))
    kept = np.where(n2 > 0, n2 + 9, n1 + 1)
    fixed = (k >= -4) & (k <= 16)
    k_fixed = k * fixed
    np.maximum(kept, k_fixed + 1, out=kept)  # so are the digits before the point
    # the point follows digit p (0: the leading digit; 16: there is none)
    p = np.where((kept <= k_fixed + 1) | (k_fixed < 0), 16, k_fixed)
    i = kept * 17 + p
    out = np.empty((v.size, 4), dtype=np.uint64)
    lead_in = np.where(fixed & (k < 0), k + 5, 0)
    out[:, 0] = T.head.take((((p == 0) * 2 + np.signbit(v)) * 5 + lead_in) * 10 + lead)
    # kept digits after the point move up a byte, the top one into the next word
    up = w1 & T.above[0].take(i)
    out[:, 1] = (w1 & T.below[0].take(i)) | (up << 8) | T.point[0].take(i)
    out[:, 2] = up >> 56
    up = w2 & T.above[1].take(i)
    out[:, 2] |= (w2 & T.below[1].take(i)) | (up << 8) | T.point[1].take(i)
    out[:, 3] = (up >> 56) | T.tail.take(np.where(fixed, 0, k + (1 - K_LO)))
    for j in np.flatnonzero(fallback):
        out[j] = np.frombuffer(("%.17g," % v[j]).encode().ljust(32, b"\0"), dtype=np.uint64)
    return out
