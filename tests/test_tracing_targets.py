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

# A traced scan_models worker in miniature: the first ops of its first
# certificate, summarized and reduced as run.py reduces a traced run. Its
# ops are the only ones that call certify_bound, and the per-point metrics
# are absent when no evaluate_point span was traced.
SCAN_PROBE = """
import json
import ioqfr
import tracing
tracer = tracing.Tracer()
tracer.install()
import run, workloads
for op in workloads.build("scan_models", 1, 0).ops[:12]:
    op()
worker = {"trace": tracing.summarize(tracer), "import_s": 0.0, "total_s": 1.0}
metrics, absent = run.per_layer([worker], [worker])
print(json.dumps({"metrics": sorted(metrics), "absent": absent}))
"""

# The first ops of a traced sweep_d144_phases certificate: each one is one
# evaluate_point, which must build S and R through the traced entries. For
# every evaluate_point span, the names of the spans directly inside it.
POINT_PROBE = """
import json
import ioqfr
import tracing
tracer = tracing.Tracer()
tracer.install()
import workloads
for op in workloads.build("sweep_d144_phases", 1, 0).ops[:6]:
    op()
spans = tracer.spans
print(json.dumps([sorted(s.name for s in spans if s.parent == i)
                  for i, p in enumerate(spans) if p.name == "bounds.evaluate_point"]))
"""


def test_tracer_installs_every_layer():
    src = os.path.dirname(os.path.dirname(ioqfr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out)
    assert result["layers"]
    assert sorted(set(result["layers"]) - set(result["installed"])) == []


def test_traced_scan_reports_every_metric():
    src = os.path.dirname(os.path.dirname(ioqfr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]))
    out = subprocess.run([sys.executable, "-c", SCAN_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out)
    assert "bounds.evaluate_point.p50_ms" in result["metrics"]
    assert result["absent"] == []


def test_each_point_builds_s_and_r_through_traced_entries():
    src = os.path.dirname(os.path.dirname(ioqfr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]))
    out = subprocess.run([sys.executable, "-c", POINT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    points = json.loads(out)
    assert len(points) == 6
    for children in points:
        assert children.count("spectra.matrix_spectrum") == 1
        assert children.count("response.response_matrix") == 1
