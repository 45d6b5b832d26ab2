"""Every public function and class of dosloop has a caller outside the tests.

A public top-level name of a dosloop module passes when it is referenced in
src/dosloop outside its own definition and __init__.py, or anywhere in bench/
or tools/. A reference is a name, an attribute or an imported name in the
syntax tree; in bench/ and tools/ it is also a part of a string that is a
dotted path, such as the attribute paths bench/tracing.py wraps. A name that
only prose mentions (a comment, a docstring) has no caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dosloop"

# public names kept for a caller that an open roadmap item adds
NO_CALLER_YET = {
    "check_onset_amplification": "item 5's JSON report",
    "check_lyapunov_decay": "item 5's JSON report",
    "dos_free_segments": "item 5's JSON report",
    "gen_greedy_adversary": "item 3's adversaries",
}


def _references(tree: ast.AST, paths: bool = False) -> set[str]:
    """Names, attributes and imported names in tree.

    With paths, also each part of a string constant that is a dotted path.
    """
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif paths and isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _uncalled() -> set[str]:
    """The public names that nothing outside their own definition and the tests references."""
    outside: set[str] = set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        outside |= _references(_parse(path), paths=True)
    # the references of each top-level statement of each module but __init__
    modules = [_parse(path).body for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    refs = [[_references(stmt) for stmt in body] for body in modules]
    out = set()
    for i, body in enumerate(modules):
        for j, stmt in enumerate(body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            elsewhere = (r for m, module_refs in enumerate(refs) for n, r in enumerate(module_refs) if (m, n) != (i, j))
            if stmt.name not in outside.union(*elsewhere):
                out.add(stmt.name)
    return out


def test_every_public_name_has_a_caller():
    uncalled = _uncalled()
    assert uncalled - NO_CALLER_YET.keys() == set()
    # a kept name that gains a caller leaves the list
    assert NO_CALLER_YET.keys() <= uncalled
