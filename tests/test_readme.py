"""The README's quick start must run against the current library.

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
