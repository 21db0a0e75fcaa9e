"""Tests of the benchmark's own code:  python3 -m pytest perfbench -q"""
import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ioqfr  # noqa: E402,F401  (before numpy, as in the worker)

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_of_same_layer_nested_in_itself():
    spans = [Span("m", 0.0, 6.0, -1), Span("m", 1.0, 5.0, 0), Span("h", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 1.0])


def test_tracer_records_nesting_and_pauses():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    # outer: ticks 0..3, inner: ticks 1..2
    assert tracing.self_times(tracer.spans) == pytest.approx([2.0, 1.0])
    assert tracing.count_within(tracer.spans, "inner", "outer") == 1
    tracer.enabled = False
    outer(1)
    assert len(tracer.spans) == 2


def test_install_rebinds_callers_and_skips_missing_names(monkeypatch):
    lib = types.ModuleType("fakepkg.lib")
    exec("def f(x):\n    return x + 1\n"
         "class K:\n    def m(self):\n        return f(1)\n", lib.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.f = lib.f
    exec("def g():\n    return f(2)\n", user.__dict__)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.lib", lib)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)

    tracer = tracing.Tracer()
    tracer.install("fakepkg", (
        ("lib.f", "lib", "f", None),
        ("lib.K", "lib", "K.m", None),
        ("gone", "lib", "Deleted.method", None),
        ("gone", "lib", "deleted", None),
        ("gone", "nomodule", "f", None),
    ))
    assert user.g() == 3 and lib.K().m() == 2
    assert [s.name for s in tracer.spans] == ["lib.f", "lib.K", "lib.f"]
    assert tracer.installed == {"lib.f", "lib.K"}


def test_absent_layer_is_reported_not_fatal():
    worker = {"trace": {"installed": ["numkit.lu_factor"], "layers": {},
                        "evaluate_point_durations": [], "lu_factor_in_points": 0},
              "import_s": 0.3, "total_s": 1.0}
    metrics, absent = run.per_layer([worker], [worker])
    assert "lindblad.resolvent.self_s" in absent
    assert metrics["lindblad.resolvent.self_s"] == (0.0, "s")
    assert "numkit.lu_factor.count" not in absent
    assert len(metrics) == len(run.LAYER_METRICS) + 4


@pytest.mark.parametrize("trace, indices", [
    (False, [0, 1, 2]),
    (True, [0, 0, 1, 1]),  # a traced and an untraced worker on the same inputs
])
def test_workers_of_a_traced_pair_share_inputs(monkeypatch, trace, indices):
    started = []

    def fake_worker(workload, seed, index, traced):
        started.append((index, traced))
        return {}

    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(run.statistics, "median", lambda walls: 1e9 if len(walls) > 2 else 0.0)
    run.run_workers("sweep_d900", 1, 10.0, trace)
    assert [i for i, _ in started] == indices
    assert [t for _, t in started] == ([i % 2 == 0 for i in range(4)] if trace else [False] * 3)


@pytest.mark.parametrize("n, level", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert run.tail_level(n) == level
    if n >= 20:
        assert n * (100.0 - level) / 100.0 >= 10.0 - 1e-9


def test_percentile_matches_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    for level in (0.0, 50.0, 75.0, 90.0, 100.0):
        assert run.percentile(values, level) == pytest.approx(np.percentile(values, level))


def small_sweep():
    """kerr_cat at n_cut 4, two phases, three frequencies, every point dense-checked."""
    return workloads.build_sweep((4, (0.0, 1.0), 3, 6), np.random.default_rng(5))


def test_sweep_results_pass_every_oracle():
    cert = small_sweep()
    results, latencies, _ = workloads.run_ops(cert)
    assert len(latencies) == len(results) == 6
    assert workloads.check_results(cert, results) == []


def scale_noise(point, factor):
    noise = dataclasses.replace(point.noise,
                                complex_matrix=point.noise.complex_matrix * factor)
    return dataclasses.replace(point, noise=noise)


def scale_response(point, factor):
    response = dataclasses.replace(point.response,
                                   complex_matrix=point.response.complex_matrix * factor)
    return dataclasses.replace(point, response=response)


@pytest.mark.parametrize("perturb", [
    lambda p: scale_noise(p, 1.0 + 1e-6),
    lambda p: scale_response(p, 1.0 + 1e-6),
    lambda p: dataclasses.replace(p, lambda_max=1.0 + 1e-6),
    lambda p: dataclasses.replace(p, passed=False),
])
def test_perturbed_result_counts_as_failure(perturb):
    cert = small_sweep()
    cert.ops = [lambda op=op: perturb(op()) for op in cert.ops]
    results, _, _ = workloads.run_ops(cert)
    assert len(workloads.check_results(cert, results)) == len(results)


def test_raising_op_counts_as_failure():
    def boom():
        raise ioqfr.NotMixing("no")

    cert = workloads.Certificate(d2=[4], ops=[boom, lambda: 1], check=lambda i, r: "")
    results, _, _ = workloads.run_ops(cert)
    failures = workloads.check_results(cert, results)
    assert len(failures) == 1 and "NotMixing" in failures[0]


def test_scan_certificate_is_seeded_and_checked():
    a = workloads.build("scan_models", 3, 0)
    b = workloads.build("scan_models", 3, 0)
    assert len(a.ops) == 30 * workloads.SCAN_REPEATS and a.d2 == b.d2
    picked = [0, 1, 2]
    ra = [a.ops[i]() for i in picked]
    rb = [b.ops[i]() for i in picked]
    for i, x, y in zip(picked, ra, rb):
        assert a.check(i, x) == ""
        activity = "activity" if hasattr(x, "activity") else "activity_embedded"
        assert np.array_equal(getattr(x, activity), getattr(y, activity))


def test_rf_oracle_rejects_a_wrong_lambda():
    _, op, check = workloads.rf_op(np.random.default_rng(2))
    report = op()
    assert check(report) == ""
    wrong = dataclasses.replace(report, lambda_max=report.lambda_max * (1.0 + 1e-6))
    assert "closed form" in check(wrong)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    worker = {"trace": {"installed": [], "layers": {}, "evaluate_point_durations": [],
                        "lu_factor_in_points": 0},
              "import_s": 0.3, "total_s": 1.0, "setup_s": 0.5, "timed_s": 0.5,
              "attempted": 2, "latencies": [0.1, 0.2], "peak_rss_mb": 70.0,
              "oracle_s": 0.1}
    layer, _ = run.per_layer([worker], [worker])
    e2e, _ = run.end_to_end([worker])
    for declared, reported in ((spec["per_layer"], layer), (spec["end_to_end"], e2e)):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: unit for name, (_, unit) in reported.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
