"""tools/: the output-identity script's case list, and the CSV comparison."""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_digests_lists_58_distinct_cases(tmp_path, monkeypatch):
    # cases() only writes the scenario files; no case runs here
    monkeypatch.setattr(sys, "path", list(sys.path))
    listed = _load("case_digests").cases(tmp_path)
    ids = [case_id for case_id, _, _ in listed]
    assert len(ids) == len(set(ids)) == 58
    assert Counter(command for _, command, _ in listed) == {"simulate": 46, "analyze": 12}
    assert all(path.is_file() for _, _, path in listed)
    assert not list(tmp_path.rglob("*.csv"))


_HEADER = "t,x1,u1,e_norm,x_norm,jammed,attempt,success\r\n"


def test_csv_delta_reports_float_cells_and_fails_on_times_and_flags(tmp_path, capsys):
    csv_delta = _load("csv_delta")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    rows = ["0,1,-2,0,1,0,0,0", "0.5,0.25,-0.5,0.75,0.25,1,1,0"]
    for d in (a, b):
        (d / "same.csv").write_text(_HEADER + "\r\n".join(rows) + "\r\n")
    (a / "moved.csv").write_text(_HEADER + "\r\n".join(rows) + "\r\n")
    moved = "0.5,0.25000000000000006,-0.5,0.75,0.25,1,1,0"
    (b / "moved.csv").write_text(_HEADER + "\r\n".join([rows[0], moved]) + "\r\n")
    # only float cells other than t moved: reported, exit 0
    assert csv_delta.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    # the x cell moved by one ulp, 2^-54, read over the row's larger norm, e_norm = 0.75
    assert out == ["moved.csv: rows 2 / 2, 1 differ, max rel 2.22e-16, max scaled 7.4e-17, t equal, flags equal", "1 of 2 CSVs differ"]
    # a flag, a time, a row count or a missing case fails
    for moved in ("0.5,0.25,-0.5,0.75,0.25,1,0,0", "0.75,0.25,-0.5,0.75,0.25,1,1,0", None):
        (b / "moved.csv").write_text(_HEADER + "\r\n".join([rows[0]] + ([moved] if moved else [])) + "\r\n")
        assert csv_delta.main([str(a), str(b)]) == 1, moved
    (b / "moved.csv").unlink()
    assert csv_delta.main([str(a), str(b)]) == 1
    assert "moved.csv: only in " in capsys.readouterr().out


def test_csv_delta_reports_how_far_the_times_moved(tmp_path, capsys):
    # attempt times that moved by less than crossing_tol still fail the
    # comparison, and the report says by how much they moved
    csv_delta = _load("csv_delta")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    rows = ["0,1,-2,0,1,0,0,0", "0.5,0.25,-0.5,0.75,0.25,0,1,1", "0.75,0.25,-0.25,0,0.25,0,0,0"]
    (a / "case.csv").write_text(_HEADER + "\r\n".join(rows) + "\r\n")
    moved = ["0,1,-2,0,1,0,0,0", "0.50000000025,0.25,-0.5,0.75,0.25,0,1,1", "0.75,0.25,-0.25,0,0.25,0,0,0"]
    (b / "case.csv").write_text(_HEADER + "\r\n".join(moved) + "\r\n")
    assert csv_delta.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "case.csv: rows 3 / 3, 1 differ, max rel 5e-10, max scaled 0, t DIFFERS (max |dt| 2.5e-10), flags equal",
        "1 of 1 CSVs differ",
    ]


def test_csv_delta_passes_times_moved_within_a_tolerance(tmp_path, capsys):
    # with --t-tol, a case whose times moved by at most SECONDS passes when
    # its row count and flags are equal; the report line is the same
    csv_delta = _load("csv_delta")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    rows = ["0,1,-2,0,1,0,0,0", "0.5,0.25,-0.5,0.75,0.25,0,1,1", "0.75,0.25,-0.25,0,0.25,0,0,0"]
    (a / "case.csv").write_text(_HEADER + "\r\n".join(rows) + "\r\n")
    moved = ["0,1,-2,0,1,0,0,0", "0.50000000025,0.25,-0.5,0.75,0.25,0,1,1", "0.75,0.25,-0.25,0,0.25,0,0,0"]
    (b / "case.csv").write_text(_HEADER + "\r\n".join(moved) + "\r\n")
    line = "case.csv: rows 3 / 3, 1 differ, max rel 5e-10, max scaled 0, t DIFFERS (max |dt| 2.5e-10), flags equal"
    assert csv_delta.main(["--t-tol", "1e-9", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [line, "1 of 1 CSVs differ"]
    assert csv_delta.main(["--t-tol", "1e-10", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [line, "1 of 1 CSVs differ"]
    # flags and row counts still fail, and so does a bad tolerance
    flag = ["0,1,-2,0,1,0,0,0", "0.50000000025,0.25,-0.5,0.75,0.25,0,1,0", "0.75,0.25,-0.25,0,0.25,0,0,0"]
    (b / "case.csv").write_text(_HEADER + "\r\n".join(flag) + "\r\n")
    assert csv_delta.main(["--t-tol", "1e-9", str(a), str(b)]) == 1
    (b / "case.csv").write_text(_HEADER + "\r\n".join(moved[:2]) + "\r\n")
    assert csv_delta.main(["--t-tol", "1e-9", str(a), str(b)]) == 1
    capsys.readouterr()
    for tol in ("-1e-9", "nan", "soon"):
        assert csv_delta.main(["--t-tol", tol, str(a), str(b)]) == 1
        assert capsys.readouterr().err.startswith("usage: csv_delta.py [--t-tol SECONDS] DIR_A DIR_B")


def test_csv_delta_scales_each_cell_by_its_row(tmp_path, capsys):
    # a change of 2^-52 of ||x|| in a near-zero state cell reads 2.2e-4 in
    # max rel, relative to the cell itself, and 2.2e-16 in max scaled,
    # relative to the larger x_norm of its row; u cells scale by the row's
    # largest |u|, and a NaN on one side only reads inf
    csv_delta = _load("csv_delta")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    header = "t,x1,x2,u1,u2,e_norm,x_norm,jammed,attempt,success\r\n"
    rows = ["0,1,1e-12,-4,1e-12,0,1,0,0,0", "0.5,0.5,1e-12,-2,1e-12,0.25,0.5,0,0,0"]
    (a / "case.csv").write_text(header + "\r\n".join(rows) + "\r\n")
    x_cell = ["0,1,1.000222044604925e-12,-4,1e-12,0,1,0,0,0", rows[1]]
    (b / "case.csv").write_text(header + "\r\n".join(x_cell) + "\r\n")
    assert csv_delta.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "case.csv: rows 2 / 2, 1 differ, max rel 0.000222, max scaled 2.22e-16, t equal, flags equal"
    )
    # u2 moves by 2^-52 of the row's largest |u|, 2; e_norm by 2^-53 of x_norm
    u_cell = [rows[0], "0.5,0.5,1e-12,-2,1.00044408920985e-12,0.25000000000000006,0.5,0,0,0"]
    (b / "case.csv").write_text(header + "\r\n".join(u_cell) + "\r\n")
    assert csv_delta.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "case.csv: rows 2 / 2, 1 differ, max rel 0.000444, max scaled 2.22e-16, t equal, flags equal"
    )
    nan_cell = [rows[0], "0.5,0.5,nan,-2,1e-12,0.25,0.5,0,0,0"]
    (b / "case.csv").write_text(header + "\r\n".join(nan_cell) + "\r\n")
    assert csv_delta.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "case.csv: rows 2 / 2, 1 differ, max rel inf, max scaled inf, t equal, flags equal"
    )


def test_csv_delta_scales_state_cells_by_the_larger_norm(tmp_path, capsys):
    # where x passes near zero while the held sample is far larger, a
    # change of 2^-52 of ||e|| in the x cell and one ulp of e_norm read at
    # the scale of ||e||, not 5.6e-11 over the row's x_norm of 2e-6
    csv_delta = _load("csv_delta")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    rows = ["0,1,-2,0,1,0,0,0", "0.5,2e-06,-2,0.5,2e-06,0,0,0"]
    (a / "case.csv").write_text(_HEADER + "\r\n".join(rows) + "\r\n")
    for cell in (f"0.5,{2e-6 + 2.0**-53:.17g},-2,0.5,2e-06,0,0,0", "0.5,2e-06,-2,0.50000000000000011,2e-06,0,0,0"):
        (b / "case.csv").write_text(_HEADER + "\r\n".join([rows[0], cell]) + "\r\n")
        assert csv_delta.main([str(a), str(b)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(", max scaled 2.22e-16, t equal, flags equal"), (cell, line)
