"""The BLAS thread count that ``import ioqfr`` sets, and output bytes that do
not depend on it.

Importing the package pins the OpenBLAS libraries bundled with the numpy and
scipy wheels to one thread unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set. The thread count is process-wide state, so every
check runs in a fresh interpreter.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

import ioqfr

SRC = os.path.dirname(os.path.dirname(ioqfr.__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# (package, library file pattern, thread-count getter)
LIBRARIES = (
    (numpy, "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
    (scipy, "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
)


def _library_paths() -> list[tuple[str, str]]:
    found = []
    for package, pattern, getter in LIBRARIES:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        found += [(str(path), getter) for path in sorted(libs.glob(pattern))]
    return found


PROBE = """
import ctypes, json, sys
import ioqfr
print(json.dumps([getattr(ctypes.CDLL(path), getter)()
                  for path, getter in json.loads(sys.argv[1])]))
"""


def _env(**thread_vars: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    env.update(thread_vars)
    return env


def _thread_counts(env: dict, libraries: list[tuple[str, str]]) -> list[int]:
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(libraries)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_pins_blas_threads():
    libraries = _library_paths()
    if len(libraries) != len(LIBRARIES):
        pytest.skip("numpy and scipy do not bundle one scipy-openblas library each")
    assert _thread_counts(_env(), libraries) == [1, 1]
    assert _thread_counts(_env(OPENBLAS_NUM_THREADS="2"), libraries) == [2, 2]
    assert _thread_counts(_env(OMP_NUM_THREADS="2"), libraries) == [2, 2]


def test_output_bytes_do_not_depend_on_blas_environment():
    argv = [sys.executable, "-m", "ioqfr.cli", "sweep", "--model", "kerr_cat",
            "--param", "n_cut=16", "--n", "5"]
    default, one_thread = (
        subprocess.run(argv, env=env, check=True, capture_output=True).stdout
        for env in (_env(), _env(OPENBLAS_NUM_THREADS="1")))
    assert default and default == one_thread
