"""Self-test of the traced run: run from the checkout root as

    python3 perfbench/selftest.py

For each workload it makes two traced runs at seed SEED, each in
fresh processes, and checks that

1. every layer metric listed for the workload in EXPECTED_NONZERO is
   nonzero, so each wrapper sits where its caller looks the function up;
2. every count (any metric not measured in seconds) is identical in the
   two runs.

EXPECTED_NONZERO records the call structure of holoent when the
benchmark was written; a change that removes a call (say, a kernel that
no longer needs ``null_space``) updates it in the same change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1

_SAMPLING = ["sampling.mc_mean_entropy.total_s", "sampling._block_entropies.calls",
             "sampling._block_entropies.total_s", "sampling._block_entropies.self_s",
             "sampling.samples"]
_OPTIMIZE = ["optimize.maximize.total_s", "optimize._ascend.calls", "optimize._ascend.total_s",
             "optimize._value_and_gradient.calls", "optimize._value_and_gradient.total_s",
             "optimize._value_and_gradient.self_s", "optimize.iterations",
             "optimize.evals_per_iteration", "optimize.restarts_converged_ratio"]
_ENTROPY = ["states.entropy_from_squared_schmidt.calls",
            "states.entropy_from_squared_schmidt.total_s"]
_SVD = ["linalg.svd.calls", "linalg.svd.total_s"]
_NULL_SPACE = ["linalg.null_space.calls", "linalg.null_space.total_s"]
_KERNEL = ["restriction.kernel_basis.calls", "restriction.kernel_basis.total_s",
           "restriction.kernel_basis.self_s"]
_CLI = ["cli.main.calls", "cli.main.self_s", "cli.cmd.total_s", "cli.render_csv.total_s",
        "cli.bytes_out"]

EXPECTED_NONZERO = {
    "sphere-average": _SAMPLING + _ENTROPY + _SVD + _CLI,
    "maximize": _OPTIMIZE + _ENTROPY + _SVD + _NULL_SPACE + _CLI
    + ["restriction.diagonal_kernel_basis.total_s"],
    # named-vectors reaches states.schmidt through entanglement_entropy and
    # schmidt_rank, and restrict for its residual column
    "kernel-export": _KERNEL + _NULL_SPACE + _CLI + _SVD
    + ["states.schmidt.calls", "states.schmidt.total_s", "restriction.restrict.calls",
       "restriction.restrict.total_s", "cli.render_json.total_s"],
    "operators": _KERNEL + _NULL_SPACE
    + ["toeplitz.toeplitz_matrix.calls", "toeplitz.toeplitz_matrix.total_s",
       "toeplitz.toeplitz_matrix.self_s", "toeplitz.projection_matrix.total_s",
       "toeplitz.dense_bytes", "sections.monomial_integral.calls",
       "sections.monomial_integral.total_s", "cli.main.calls", "cli.bytes_out"],
}


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main() -> int:
    problems = []
    for workload, expected in EXPECTED_NONZERO.items():
        first, second = traced_run(workload, SEED), traced_run(workload, SEED)
        zero = [name for name in expected if first[name]["value"] == 0]
        problems += [f"{workload}: {name} is 0" for name in zero]
        counts = [name for name, m in first.items() if m["unit"] != "s"]
        differ = [f"{name} {first[name]['value']} != {second[name]['value']}"
                  for name in counts if first[name]["value"] != second[name]["value"]]
        problems += [f"{workload}: {item}" for item in differ]
        print(f"{workload}: {len(expected) - len(zero)}/{len(expected)} expected layer "
              f"metrics nonzero, {len(counts) - len(differ)}/{len(counts)} counts repeat")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
