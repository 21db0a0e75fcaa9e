"""CLI outputs against committed golden files.

Each case runs ``ioqfr.cli.main`` and compares its stdout and exit code with
``tests/golden/<name>.out`` and ``tests/golden/exit_codes.json``. Headers,
strings, verdicts (``pass``, ``passed``, ``all_passed``), notes, integer
fields and exit codes must match exactly. Floats must agree to
``1e-12 * max(1, max |column|)``, where a column is a CSV column or the
numbers under one JSON key: the last digits move with the BLAS thread count
and with any change of arithmetic order.

Importing ``ioqfr`` runs the bundled OpenBLAS on one thread, so with no
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` set the outputs match the
files byte for byte. To remake them after a deliberate change of output, run
from the repository root

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from ioqfr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12

CASES: dict[str, tuple[str, ...]] = {
    "sweep_kerr_cat": ("sweep", "--model", "kerr_cat", "--n", "51"),
    "sweep_kerr_cat_phases": ("sweep", "--model", "kerr_cat", "--theta", "0",
                              "--theta", "0.7", "--wmin", "-5", "--wmax", "5",
                              "--n", "21"),
    "sweep_rf_phases_json": ("sweep", "--model", "rf", "--theta", "0.3",
                             "--theta", "0.9", "--json"),
    "bound_kerr_cat": ("bound-report", "--model", "kerr_cat", "--wmin", "-5",
                       "--wmax", "5", "--n", "51"),
    "bound_rf": ("bound-report", "--model", "rf"),
    "bound_cavity": ("bound-report", "--model", "cavity", "--param", "kappa=2",
                     "--param", "Delta=0.3"),
    "steady_kerr_cat": ("steady", "--model", "kerr_cat"),
    "sweep_custom_qubit": ("sweep", "--model", "{golden}/custom_qubit.json"),
    "sweep_custom_two_currents": ("sweep", "--model",
                                  "{golden}/custom_two_currents.json"),
}


def run_case(name: str) -> tuple[int, str]:
    argv = [arg.format(golden=GOLDEN) for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _is_verdict(key: str) -> bool:
    return key == "pass" or key.startswith("pass_") or key in ("passed", "all_passed")


def _close(got: float, want: float, scale: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= REL * max(1.0, scale)


def _floats(value) -> list[float]:
    if isinstance(value, float):
        return [value] if math.isfinite(value) else []
    if isinstance(value, list):
        return [x for item in value for x in _floats(item)]
    return []


def _compare_table(header: list[str], got_rows: list[list[str]],
                   want_rows: list[list[str]], where: str) -> None:
    assert len(got_rows) == len(want_rows), f"{where}: row count"
    for j, column in enumerate(header):
        want = [row[j] for row in want_rows]
        got = [row[j] for row in got_rows]
        if _is_verdict(column):
            assert got == want, f"{where}: column {column}"
            continue
        scale = max(abs(float(x)) for x in want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert _close(float(g), float(w), scale), \
                f"{where}: {column} row {i}: {g} vs {w}"


def _compare_json(got, want, where: str, key: str = "", scale: float = 0.0) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys"
        if list(want) == ["columns", "rows"]:
            assert got["columns"] == want["columns"], f"{where}: columns"
            _compare_table(want["columns"], got["rows"], want["rows"], where)
            return
        for k in want:
            floats = _floats(want[k])
            _compare_json(got[k], want[k], f"{where}.{k}", k,
                          max(map(abs, floats), default=0.0))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]", key, scale)
    elif isinstance(want, float) and not _is_verdict(key):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert _close(got, want, scale), f"{where}: {got!r} vs {want!r}"
    else:  # strings, verdicts, integers, None: exactly
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name):
    code, out = run_case(name)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    want = (GOLDEN / f"{name}.out").read_text()
    if CASES[name][0] == "sweep" and "--json" not in CASES[name]:
        got_rows = list(csv.reader(io.StringIO(out)))
        want_rows = list(csv.reader(io.StringIO(want)))
        assert got_rows[0] == want_rows[0], "header"
        _compare_table(want_rows[0], got_rows[1:], want_rows[1:], name)
    else:
        _compare_json(json.loads(out), json.loads(want), name)


def regenerate() -> None:
    codes = {}
    for name in CASES:
        codes[name], out = run_case(name)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
