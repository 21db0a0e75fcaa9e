"""The benchmark tracer must find every layer it names.

``perfbench/tracing.py`` wraps ioqfr functions and methods by name from
outside the package, and reports a layer whose names are all gone as absent,
which changes the shape of the benchmark's result line. Installing the
tracer rebinds module functions, so it runs in a fresh interpreter here.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import ioqfr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PROBE = """
import json
import ioqfr, ioqfr.cli
import tracing
tracer = tracing.Tracer()
tracer.install()
print(json.dumps({"layers": sorted({t[0] for t in tracing.TARGETS}),
                  "installed": sorted(tracer.installed)}))
"""


def test_tracer_installs_every_layer():
    src = os.path.dirname(os.path.dirname(ioqfr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out)
    assert result["layers"]
    assert sorted(set(result["layers"]) - set(result["installed"])) == []
