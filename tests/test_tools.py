"""tools/: the output-identity script's case list."""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_case_digests_lists_56_distinct_cases(tmp_path, monkeypatch):
    # cases() only writes the scenario files; no case runs here
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("case_digests", TOOLS / "case_digests.py")
    case_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(case_digests)
    listed = case_digests.cases(tmp_path)
    ids = [case_id for case_id, _, _ in listed]
    assert len(ids) == len(set(ids)) == 56
    assert Counter(command for _, command, _ in listed) == {"simulate": 44, "analyze": 12}
    assert all(path.is_file() for _, _, path in listed)
    assert not list(tmp_path.rglob("*.csv"))
