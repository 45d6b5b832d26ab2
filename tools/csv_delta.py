"""How far the trace CSVs of two case_digests.py runs differ, case by case.

    python3 tools/csv_delta.py [--t-tol SECONDS] DIR_A DIR_B

DIR_A and DIR_B hold the trace CSVs of two runs (``OUT_DIR/csv`` of
``tools/case_digests.py``, copied aside before the second run). For each case
whose CSV differs it prints the row counts, how many rows differ, the header
names of the columns with any differing cell (``cols e_norm,x_norm``), the
largest relative difference |a - b| / max(|a|, |b|) of a float cell, the largest
difference scaled by its row (``max scaled``: an x, e_norm or x_norm cell over
the largest of its row's e_norm and x_norm on either side, a u cell over the
row's largest |u| on either side), and whether the t column and the three
flag columns (jammed, attempt, success) are equal; when t differs, also the
largest |dt| between the two t columns, so a change that moves attempt times
shows by how much (say, within crossing_tol). Exits 1 when a case is missing
from one side or a row count, t column or flag column differs, and 0
otherwise: then the traces differ at most in their float cells.
With ``--t-tol SECONDS`` a case whose t column moved passes too when its row
counts and flag columns are equal and no t moved by more than SECONDS; the
report lines stay the same.

``max rel`` reads near-zero cells at their own scale, so a one-ulp change of a
state moves it by many orders more in a cell near zero than in one near
||x||; ``max scaled`` reads every cell at the scale of its row. A state
carries the rounding of a flow driven by the held sample too, so where x
passes near zero while ||x_held|| is far larger, its cells and both norms
are read at the scale of ||e|| = ||x_held - x||.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

FLAGS = 3  # jammed, attempt, success: the last columns of every row


def _delta(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """|a - b| per cell: 0 for equal cells (both zero, both NaN, the same infinity), inf for any other NaN."""
    with np.errstate(invalid="ignore"):
        d = np.abs(fa - fb)
    same = (fa == fb) | (np.isnan(fa) & np.isnan(fb))
    return np.where(same, 0.0, np.where(np.isnan(d), np.inf, d))


def _over(d: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """d / scale, 0 where d is 0 (whatever the scale), inf where only scale is 0 or the quotient is NaN."""
    with np.errstate(invalid="ignore", divide="ignore"):
        q = d / scale
    return np.where(d == 0.0, 0.0, np.where(np.isnan(q), np.inf, q))


def scaled_delta(header: list[str], fa: np.ndarray, fb: np.ndarray) -> float:
    """Largest cell difference scaled by its row.

    x, e_norm and x_norm cells scale by the largest of both sides' e_norm
    and x_norm, u cells by the largest |u|.
    """
    x_cols = [i for i, name in enumerate(header) if name[:1] == "x" and name[1:].isdigit()]
    x_cols += [header.index("e_norm"), header.index("x_norm")]
    u_cols = [i for i, name in enumerate(header) if name[:1] == "u" and name[1:].isdigit()]
    x_scale = np.maximum(np.abs(fa[:, x_cols[-2:]]), np.abs(fb[:, x_cols[-2:]])).max(axis=1)
    u_scale = np.maximum(np.abs(fa[:, u_cols]), np.abs(fb[:, u_cols])).max(axis=1)
    x_part = _over(_delta(fa[:, x_cols], fb[:, x_cols]), x_scale[:, None])
    u_part = _over(_delta(fa[:, u_cols], fb[:, u_cols]), u_scale[:, None])
    return float(max(x_part.max(), u_part.max()))


def compare(a: Path, b: Path, t_tol: float | None = None) -> tuple[str, bool]:
    """One report line for two CSVs of a case, and whether they keep their rows, times and flags.

    With t_tol, times that moved by at most t_tol count as kept.
    """
    lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
    header, rows_a, rows_b = lines_a[0].split(","), lines_a[1:], lines_b[1:]
    head = f"{a.name}: rows {len(rows_a)} / {len(rows_b)}"
    if len(rows_a) != len(rows_b):
        return head, False
    differ = sum(ra != rb for ra, rb in zip(rows_a, rows_b))
    if not rows_a:
        return f"{head}, 0 differ", True
    cells_a = np.array([r.split(",") for r in rows_a])
    cells_b = np.array([r.split(",") for r in rows_b])
    cols = ",".join(name for name, moved in zip(header, (cells_a != cells_b).any(axis=0)) if moved)
    A, B = cells_a.astype(float), cells_b.astype(float)
    same_t = np.array_equal(A[:, 0], B[:, 0])
    dt = np.abs(A[:, 0] - B[:, 0]).max()
    same_flags = np.array_equal(A[:, -FLAGS:], B[:, -FLAGS:])
    fa, fb = A[:, :-FLAGS], B[:, :-FLAGS]
    rel = _over(_delta(fa, fb), np.maximum(np.abs(fa), np.abs(fb)))
    scaled = scaled_delta(header, fa, fb)
    moved = "equal" if same_t else f"DIFFERS (max |dt| {dt:.3g})"
    line = (
        f"{head}, {differ} differ, cols {cols}, max rel {rel.max():.3g}, max scaled {scaled:.3g}, t {moved}, "
        f"flags {'equal' if same_flags else 'DIFFER'}"
    )
    return line, (same_t or (t_tol is not None and dt <= t_tol)) and same_flags


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    t_tol = None
    if len(args) == 4 and args[0] == "--t-tol":
        try:
            t_tol = float(args[1])
        except ValueError:
            t_tol = math.nan
        args = args[2:] if t_tol >= 0.0 else []  # a NaN or negative tolerance is a usage error
    if len(args) != 2:
        sys.stderr.write("usage: csv_delta.py [--t-tol SECONDS] DIR_A DIR_B\n")
        return 1
    dir_a, dir_b = Path(args[0]), Path(args[1])
    names = sorted({p.name for p in dir_a.glob("*.csv")} | {p.name for p in dir_b.glob("*.csv")})
    ok, differing = True, 0
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            ok, differing = False, differing + 1
        elif a.read_bytes() != b.read_bytes():
            line, kept = compare(a, b, t_tol)
            print(line)
            ok, differing = ok and kept, differing + 1
    print(f"{differing} of {len(names)} CSVs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
