"""holoent benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the checkout
root; perfbench/README.md says what each one measures. With --trace 0
the last line of output is a JSON object with the end-to-end metrics,
with --trace 1 the per-layer metrics. Lines before it give each metric
by name with its unit, the failure count, every failed op and the
environment.

Each workload runs in fresh worker processes (worker.py). Setup is
timed in SETUP_RUNS of them, from process start to the end of the
untimed warm-up op; the last one goes on to time the passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn_worker(args, tmp: str, setup_only: bool, deadline: float):
    """Run worker.py; return (seconds from start to its ready line, its later output)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"worker exited with code {code}")
    return setup, rest


def layer_metrics(units, passes) -> dict:
    """Per-pass layer metrics: medians for times, the first traced pass for counts."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        row = dict(p["layers"])
        iterations = row["optimize.iterations"]
        ascents = row["optimize._ascend.calls"]
        row["optimize.evals_per_iteration"] = (
            row["optimize._value_and_gradient.calls"] / iterations if iterations else 0.0)
        row["optimize.restarts_converged_ratio"] = (
            row["optimize.restarts_converged"] / ascents if ascents else 0.0)
        rows.append(row)
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = (statistics.median(p["seconds"] for p in traced)
                     - statistics.median(p["seconds"] for p in plain))
        elif unit == "s":
            value = statistics.median(row[name] for row in rows)
        else:
            value = rows[0][name]
        out[name] = value
    return out


def end_to_end_metrics(units, setups, record, attempted, failed) -> dict:
    wall = statistics.median(p["seconds"] for p in record["passes"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": record["items_per_pass"] / wall,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {name: values[name] for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "holoent" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no holoent source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setups = [spawn_worker(args, tmp, True, deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup, output = spawn_worker(args, tmp, False, deadline)
        setups.append(setup)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = json.loads(output.strip().splitlines()[-1])

    passes = record["passes"]
    attempted = record["ops_per_pass"] * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    if args.trace:
        metrics = layer_metrics(units, passes)
    else:
        metrics = end_to_end_metrics(units, setups, record, attempted, failed)

    traced = sum(p["traced"] for p in passes)
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"(traced {traced}) ops_per_pass={record['ops_per_pass']}")
    print("env " + json.dumps(record["env"]))
    print(f"setup_runs_s {json.dumps(setups)}")
    print(f"pass_s {json.dumps([round(p['seconds'], 4) for p in passes])}")
    print(f"fail_ratio {failed / attempted!r} 1 ({failed} failed / {attempted} attempted)")
    for label, reason in sorted({(l, r) for p in passes for l, r in p["failures"].items()}):
        known = record["known_failures"].get(label) == reason
        note = f" [known defect: {record['known_defect']}]" if known else ""
        print(f"failed {label}: {reason}{note}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not record["unexpected_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
