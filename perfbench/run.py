"""The ioqfr benchmark: time to a certified result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run from anywhere; the package is imported from the ``src`` directory next
to this one. One run starts fresh worker processes one after another (a
closed loop with one caller), each producing one certificate, until the
next one would end past ``--seconds``, and at least MIN_WORKERS of them.
Untraced runs report the end-to-end metrics; traced runs start pairs of a
traced and an untraced worker on the same inputs and report the per-layer
metrics and the tracing overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. README.md
records why each workload and metric exists.

This file uses only the standard library: numpy is loaded by the workers,
after ``ioqfr``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_d144_phases", "sweep_d900", "scan_models")
MIN_WORKERS = 2   # one pair when traced; also fixes the tail level
WORKER_TIMEOUT_S = 120.0

# Tail levels in tenths of a percent, highest first.
TAIL_LEVELS = (999, 990, 900, 750, 500)

# (metric, layer, field, unit, scale); field "self_s", "count" and "work"
# are per-certificate means over the traced workers of a run.
LAYER_METRICS = (
    ("numkit.lu_factor.count", "numkit.lu_factor", "count", "count", 1.0),
    ("numkit.lu_factor.self_s", "numkit.lu_factor", "self_s", "s", 1.0),
    ("numkit.lu_factor.gflop", "numkit.lu_factor", "work", "Gflop", 1e-9),
    ("numkit.lu_solve.count", "numkit.lu_solve", "count", "count", 1.0),
    ("numkit.lu_solve.rhs", "numkit.lu_solve", "work", "count", 1.0),
    ("numkit.lu_solve.self_s", "numkit.lu_solve", "self_s", "s", 1.0),
    ("numkit.eig.count", "numkit.eig", "count", "count", 1.0),
    ("numkit.eig.self_s", "numkit.eig", "self_s", "s", 1.0),
    ("numkit.pinv.self_s", "numkit.pinv", "self_s", "s", 1.0),
    ("numkit.psd_inv_sqrt.self_s", "numkit.psd_inv_sqrt", "self_s", "s", 1.0),
    ("hilbert.self_s", "hilbert", "self_s", "s", 1.0),
    ("lindblad.liouvillian.self_s", "lindblad.liouvillian", "self_s", "s", 1.0),
    ("lindblad.steady_state.self_s", "lindblad.steady_state", "self_s", "s", 1.0),
    ("lindblad.prepare.s", "lindblad.prepare", "total_s", "s", 1.0),
    ("lindblad.resolvent.self_s", "lindblad.resolvent", "self_s", "s", 1.0),
    ("response.response_matrix.count", "response.response_matrix", "count", "count", 1.0),
    ("response.response_matrix.self_s", "response.response_matrix", "self_s", "s", 1.0),
    ("spectra.matrix_spectrum.count", "spectra.matrix_spectrum", "count", "count", 1.0),
    ("spectra.matrix_spectrum.self_s", "spectra.matrix_spectrum", "self_s", "s", 1.0),
    ("models.build.self_s", "models.build", "self_s", "s", 1.0),
    ("bounds.evaluate_point.self_s", "bounds.evaluate_point", "self_s", "s", 1.0),
    ("bounds.activity_matrix.self_s", "bounds.activity_matrix", "self_s", "s", 1.0),
    ("bounds.certify_bound.self_s", "bounds.certify_bound", "self_s", "s", 1.0),
)


def percentile(values: list[float], level: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * level / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_level(n: int) -> float:
    """Highest tail percentile with at least ten of ``n`` samples beyond it;
    below 20 samples none has, and the median stands in.

    A run is timed, so its op count varies with the speed of the machine.
    The level is therefore taken from the count every run of a workload is
    sure to reach (MIN_WORKERS certificates), so that runs of the same code
    always report the same percentile."""
    for tenths in TAIL_LEVELS:
        if n * (1000 - tenths) >= 10 * 1000:
            return tenths / 10.0
    return 50.0


def run_worker(workload: str, seed: int, index: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(index), "1" if traced else "0", str(SRC)]
    # subprocess.run kills the worker and waits for it on timeout
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} of {workload} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Start workers back to back while the next is expected to end within
    ``seconds``. A traced run alternates traced and untraced workers, and
    gives both workers of a pair the same index and so the same inputs."""
    workers: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(workers) >= MIN_WORKERS and elapsed + statistics.median(walls) > seconds:
            if not trace or len(workers) % 2 == 0:
                return workers
        traced = trace and len(workers) % 2 == 0
        index = len(workers) // 2 if trace else len(workers)
        t = time.perf_counter()
        result = run_worker(workload, seed, index, traced)
        walls.append(time.perf_counter() - t)
        result["traced"] = traced
        workers.append(result)


def end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced workers, and how the tail was taken."""
    latencies = [x for w in workers for x in w["latencies"]]
    level = tail_level(MIN_WORKERS * min(w["attempted"] for w in workers))
    metrics = {
        "total_s": (statistics.median(w["total_s"] for w in workers), "s"),
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "ops_per_s": (statistics.median(w["attempted"] / w["timed_s"] for w in workers),
                      "1/s"),
        "op_p50_ms": (1e3 * percentile(latencies, 50.0), "ms"),
        "op_tail_ms": (1e3 * percentile(latencies, level), "ms"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
    }
    return metrics, {"tail_percentile": level, "samples": len(latencies),
                     "oracle_s": statistics.median(w["oracle_s"] for w in workers)}


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics per certificate, and the names of absent ones."""
    installed = set.union(*(set(w["trace"]["installed"]) for w in traced))
    metrics: dict = {}
    absent = []

    def mean_field(layer: str, field: str) -> float:
        return statistics.fmean(
            w["trace"]["layers"].get(layer, {}).get(field, 0.0) for w in traced)

    for name, layer, field, unit, scale in LAYER_METRICS:
        if layer not in installed:
            absent.append(name)
        metrics[name] = (scale * mean_field(layer, field), unit)

    points = sum(w["trace"]["layers"].get("bounds.evaluate_point", {}).get("count", 0)
                 for w in traced)
    in_points = sum(w["trace"]["lu_factor_in_points"] for w in traced)
    durations = [x for w in traced for x in w["trace"]["evaluate_point_durations"]]
    for name, layer in (("lindblad.factorizations_per_point", "numkit.lu_factor"),
                        ("bounds.evaluate_point.p50_ms", "bounds.evaluate_point")):
        if layer not in installed or not points:
            absent.append(name)
    metrics["lindblad.factorizations_per_point"] = (
        in_points / points if points else 0.0, "count/point")
    metrics["bounds.evaluate_point.p50_ms"] = (
        1e3 * percentile(durations, 50.0) if durations else 0.0, "ms")
    metrics["import.s"] = (statistics.median(w["import_s"] for w in traced), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(w["total_s"] for w in traced)
        / statistics.median(w["total_s"] for w in untraced) - 1.0, "fraction")
    return metrics, absent


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workers = run_workers(workload, seed, seconds, trace)
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    absent: list[str] = []
    if trace:
        metrics, absent = per_layer([w for w in workers if w["traced"]],
                                    [w for w in workers if not w["traced"]])
    else:
        metrics, tail = end_to_end(workers)

    print(f"{workload}: seed {seed}, {len(workers)} workers "
          f"({sum(w['traced'] for w in workers)} traced), {attempted} ops, "
          f"d^2 {workers[0]['d2']}")
    for name, (value, unit) in metrics.items():
        note = "  (absent)" if name in absent else ""
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    if not trace:
        print(f"  op_tail_ms is p{tail['tail_percentile']:g} of {tail['samples']} ops")
        print(f"  oracle checks took {tail['oracle_s']:.6g} s per worker after total_s")
    print(f"  {'failed_frac':36s} {len(failures) / attempted:14.6g} "
          f"({len(failures)} of {attempted} ops)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print("  environment " + json.dumps(workers[0]["environment"], sort_keys=True))

    out = {}
    for name, (value, unit) in metrics.items():
        out[name] = {"value": value, "unit": unit}
        if name in absent:
            out[name]["absent"] = True
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": out}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ioqfr" / "__init__.py").is_file():
        print(f"no ioqfr package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
