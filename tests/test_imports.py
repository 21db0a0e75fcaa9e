"""Every module of ``src/ioqfr`` uses what it imports, and the CLI imports
no more of scipy than ``scipy.linalg``.

A name counts as used when the module reads it anywhere in its code or lists
it in its ``__all__`` (a re-export). ``from __future__`` imports are exempt.
Only the standard library's ``ast`` is used, so the check needs no linter.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import ioqfr

PACKAGE = Path(ioqfr.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used | exported]


def test_no_unused_imports():
    unused = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := _unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_guard_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_cli_import_leaves_out_scipy_sparse():
    # scipy.sparse costs about 20 ms of import on top of scipy.linalg; a
    # fresh interpreter, since the test session itself may have imported it
    probe = "import sys, ioqfr.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
