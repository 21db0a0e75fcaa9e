"""One benchmark worker: a fresh process that produces one certificate.

    python3 perfbench/worker.py WORKLOAD SEED WORKER_INDEX TRACE SRC_DIR

It imports ``ioqfr`` (from SRC_DIR, checked) before numpy and before
anything else that loads BLAS, and sets no thread variable, so BLAS runs
with the threading a user of the package gets by default. It prints one
JSON object on standard output; run.py starts workers and reads it.
"""
import time

T0 = time.perf_counter()  # process start, before ioqfr is imported

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "IOQFR_THREADS")


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str]) -> int:
    workload, seed, index, trace, src = argv
    t = time.perf_counter()
    import ioqfr
    import_s = time.perf_counter() - t
    if Path(ioqfr.__file__).resolve().parent.parent != Path(src).resolve():
        print(f"imported ioqfr from {ioqfr.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    import numpy as np
    import scipy

    import workloads

    cert = workloads.build(workload, int(seed), int(index))
    setup_s = time.perf_counter() - T0
    results, latencies, timed_s = workloads.run_ops(cert)
    if tracer is not None:
        tracer.enabled = False  # the oracles call the package too
    total_s = time.perf_counter() - T0  # the program's part ends here
    failures = workloads.check_results(cert, results)
    oracle_s = time.perf_counter() - T0 - total_s

    out = {
        "import_s": import_s,
        "setup_s": setup_s,
        "total_s": total_s,
        "timed_s": timed_s,
        "oracle_s": oracle_s,
        "latencies": latencies,
        "attempted": len(results),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "d2": cert.d2,
        "environment": environment(np, scipy),
        "trace": None if tracer is None else tracing.summarize(tracer),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
