"""One benchmark process: import holoent, warm up, then time passes over a workload.

Started by run.py, never by hand. It prints ``ready`` once imports and
the untimed warm-up op are done (run.py times setup_s up to that line),
and, unless ``--setup-only`` is given, the raw pass records as one JSON
line at the end. With ``--trace 1`` it alternates untraced and traced
passes, so tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import KERNEL_DEFECT, WORKLOADS  # noqa: E402


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy or scipy, or None."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "openblas_threads_numpy": _openblas_threads(numpy),
        "openblas_threads_scipy": _openblas_threads(scipy),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def run_op(op, tmp: str, tracer: Tracer | None):
    """Time one op (with the tracer installed, if any), then check it untimed."""
    out = os.path.join(tmp, op.label)
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = op.call(out)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            result = exc
        elapsed = time.perf_counter() - start
    if isinstance(result, Exception):
        return elapsed, f"raised {result!r}"
    try:
        return elapsed, op.check(result, out)
    except Exception as exc:
        return elapsed, f"check raised {exc!r}"


def run_pass(ops, tmp: str, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    seconds = 0.0
    failures = {}
    for op in ops:
        elapsed, reason = run_op(op, tmp, tracer)
        seconds += elapsed
        if reason is not None:
            failures[op.label] = reason
    return {"traced": traced, "seconds": seconds, "failures": failures,
            "layers": tracer.snapshot() if tracer else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True, help="directory for op output files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    build, warm_up = WORKLOADS[args.workload]
    ops = build(args.seed)
    run_op(ops[warm_up], args.tmp, None)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(ops, args.tmp, traced=args.trace == 1 and len(passes) % 2 == 1))
        pass_wall = time.perf_counter() - pass_start
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + pass_wall > args.seconds:
            break

    known = {op.label: op.known_failure for op in ops if op.known_failure}
    failed = {(label, reason) for p in passes for label, reason in p["failures"].items()}
    print(json.dumps({
        "env": environment(args.seed),
        "passes": passes,
        "ops_per_pass": len(ops),
        "items_per_pass": sum(op.items for op in ops),
        "known_failures": known,
        "known_defect": KERNEL_DEFECT,
        "unexpected_failures": sorted(f"{label}: {reason}" for label, reason in failed
                                      if known.get(label) != reason),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
