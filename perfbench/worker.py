"""One workload pass in a fresh process; prints its result as one JSON line.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  ``ready`` is
the CLOCK_MONOTONIC time at which the interpreter, numpy, scipy and
superchern are imported and the first workload call can start; run.py
subtracts its own spawn time from it to get the set-up time.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N [--trace SPANS.json]
    python3 perfbench/worker.py --src SRC --setup-only
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (part of set-up: the traced run's reference path)

import superchern
import workloads


def _blas():
    """BLAS library, version and thread count as numpy loaded it."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out["threads"] = fn()
                return out
    return out


def environment():
    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "SUPERCHERN_THREADS": os.environ.get("SUPERCHERN_THREADS"),
    }


def run_pass(workload, seed, tracer=None):
    units = []
    t0 = time.perf_counter()
    for name, fn in workloads.units(workload, seed):
        if tracer is None:
            checks, digest = workloads.run_unit(name, fn)
        else:
            with tracer.unit(name):
                checks, digest = workloads.run_unit(name, fn)
        units.append({"name": name, "digest": digest, "checks": checks})
    return units, time.perf_counter() - t0


def main():
    ready = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", metavar="SPANS_JSON")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    src = os.path.realpath(args.src)
    if os.path.commonpath([src, os.path.realpath(superchern.__file__)]) != src:
        sys.exit(f"superchern was imported from {superchern.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return
    if args.workload is None:
        parser.error("--workload is required")

    result = {"ready": ready, "environment": environment()}
    if args.trace:
        from tracer import SPAN_FIELDS, Tracer

        tracer = Tracer().install([workloads])
        try:
            units, wall = run_pass(args.workload, args.seed, tracer)
        finally:
            tracer.uninstall()
        with open(args.trace, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, fh)
        result["layers"] = tracer.metrics(wall, workloads.SUITES)
    else:
        units, wall = run_pass(args.workload, args.seed)
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["units"] = units
    print(json.dumps(result))


if __name__ == "__main__":
    main()
