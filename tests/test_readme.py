"""The README's quick start must run against the current library, and its
tables must render as written.

Each fenced ``python`` block of README.md is executed in a fresh namespace,
so a renamed or removed entry point fails here instead of leaving the quick
start stale.
"""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _cell_count(row: str) -> int:
    # GitHub splits a table row at every pipe that no backslash escapes,
    # inside code spans too
    inner = row.strip().removeprefix("|").removesuffix("|")
    return len(re.split(r"(?<!\\)\|", inner))


def test_readme_table_rows_match_their_header():
    tables, rows = [], []
    for line in README.read_text(encoding="utf-8").splitlines() + [""]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            tables.append(rows)
            rows = []
    assert tables, "README.md has no table"
    for header, *body in tables:
        width = _cell_count(header)
        for row in body:
            assert _cell_count(row) == width, f"{width} cells in the header, not in: {row}"
