"""The benchmark's workloads: fixed op lists and the check of each op's output.

An op is one in-process call into holoent, either ``holoent.cli.main``
with ``--out`` pointing at a temporary file or a public library
function. Every call goes through a module attribute at call time, so
the tracer's wrappers see it. Checks run after the op has been timed and
recompute what they compare against without calling holoent.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from holoent import cli, restriction, toeplitz

# Relative restriction residual ||A v||_inf / (||A||_2 ||v||_2) of an exported
# kernel vector, A the constraint matrix. A backward-stable null space gives
# a few ulps (at most 3.2e-16 measured for k <= 30); 1e-12 leaves ~4500 ulps.
RESIDUAL_TOL = 1e-12
HERMITIAN_TOL = 1e-12
MAXIMIZE_TOL = 1e-9
LEVEL_ONE_TOL = 1e-10
MC_Z_BOUND = 5.0
MC_SAMPLES = 16384
RESTARTS = 16
# holoent seed of every maximize op. The ascent's cost depends on its
# starting points: over 30 derived seeds, 0 to 2 of the 16 restarts at
# k=20 never converge and run to the 1000-iteration cap, so the k=20 op
# takes 0.35 s to 9 s. Seed-derived maximize ops
# would measure the seed rather than the code. Seed 0 is the CLI's default.
MAXIMIZE_SEED = 0


@dataclass(frozen=True)
class Op:
    """One timed call and the check of what it produced.

    ``call(out)`` runs the op with ``out`` as its output file and returns
    its result; ``check(result, out)`` returns None or the reason the op
    failed. ``items`` is the work the op completes (samples, restarts,
    vectors or matrix entries). ``known_failure`` is the exact reason a
    documented holoent bug makes this op fail with. That failure is still
    counted, but it does not make the run incorrect; any other failure of
    the op does.
    """

    label: str
    call: Callable
    check: Callable
    items: int
    known_failure: str | None = None


def derive_seed(seed: int, label: str) -> int:
    """32-bit holoent seed for one op, a fixed function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _cli(argv):
    return lambda out: cli.main([*argv, "--out", out])


def _read_table(out):
    """Provenance params, header and rows of a small CSV output file."""
    params = {}
    with open(out, newline="") as handle:
        for line in handle:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            params[key] = value
        header = line.rstrip("\n").split(",")
        rows = [dict(zip(header, row)) for row in csv.reader(handle)]
    return params, rows


def _exit_code(code):
    return None if code == 0 else f"exit code {code}"


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def _page_mean(d: int) -> float:
    """Page's exact mean entropy H(d^2) - H(d) - (d-1)/(2d), recomputed here."""
    return float(_harmonic(d * d) - _harmonic(d) - Fraction(d - 1, 2 * d))


def _restriction_residuals(k: int, coeffs: np.ndarray) -> np.ndarray:
    """Relative restriction residual of each coefficient matrix in coeffs[n, k+1, k+1].

    Mode d of the restriction is (k+1) sum_{i-j=d} C_ij sqrt(binom(k,i) binom(k,j));
    the constraint rows are orthogonal, so ||A||_2 is the largest row norm,
    (k+1) sqrt(binom(2k, k)) by Vandermonde's identity.
    """
    binoms = np.array([float(math.comb(k, j)) for j in range(k + 1)])
    weighted = coeffs * np.sqrt(np.outer(binoms, binoms))
    modes = np.stack([np.trace(weighted, offset=-d, axis1=1, axis2=2)
                      for d in range(-k, k + 1)], axis=1)
    norms = np.linalg.norm(coeffs.reshape(len(coeffs), -1), axis=1)
    return np.max(np.abs(modes), axis=1) / (math.sqrt(math.comb(2 * k, k)) * norms)


def _check_basis(k: int, coeffs: np.ndarray):
    if len(coeffs) != k * k:
        return f"{len(coeffs)} kernel vectors, expected {k * k}"
    worst = float(np.max(_restriction_residuals(k, coeffs)))
    return None if worst <= RESIDUAL_TOL else f"relative restriction residual {worst:.3e}"


def _kernel_csv_check(k):
    def check(code, out):
        if code != 0:
            return _exit_code(code)
        with open(out) as handle:
            lines = [line for line in handle if not line.startswith("#")]
        if len(lines) - 1 != k * k:  # minus the header row
            return f"{len(lines) - 1} kernel vectors, expected {k * k}"
        flat = np.loadtxt(lines[1:], delimiter=",", ndmin=2)[:, 1:]
        coeffs = (flat[:, 0::2] + 1j * flat[:, 1::2]).reshape(-1, k + 1, k + 1)
        return _check_basis(k, coeffs)
    return check


def _kernel_json_check(k):
    def check(code, out):
        if code != 0:
            return _exit_code(code)
        with open(out) as handle:
            data = json.load(handle)["data"]
        if data["dim"] != len(data["basis"]):
            return f"dim {data['dim']} but {len(data['basis'])} vectors"
        coeffs = np.array([np.array(v["re"]) + 1j * np.array(v["im"]) for v in data["basis"]])
        return _check_basis(k, coeffs.reshape(-1, k + 1, k + 1))
    return check


def _named_vectors_check(k):
    def check(code, out):
        if code != 0:
            return _exit_code(code)
        _, rows = _read_table(out)
        if [row["name"] for row in rows] != ["near_product", "bell", "max_entropy"]:
            return f"unexpected vectors {[row['name'] for row in rows]}"
        scale = (k + 1) * math.sqrt(math.comb(2 * k, k))
        worst = max(float(row["restriction_max_abs"]) for row in rows) / scale
        return None if worst <= RESIDUAL_TOL else f"relative restriction residual {worst:.3e}"
    return check


def _sphere_average_check(k):
    exact = _page_mean(k + 1)

    def check(code, out):
        if code != 0:
            return _exit_code(code)
        (row,) = _read_table(out)[1]
        page = float(row["page_exact"])
        if abs(page - exact) > 1e-12 * exact:
            return f"page_exact {page!r}, recomputed {exact!r}"
        mean, stderr = float(row["mean"]), float(row["stderr"])
        if abs(mean - exact) > MC_Z_BOUND * stderr:
            return f"mean {mean!r} is {abs(mean - exact) / stderr:.1f} stderr from {exact!r}"
        return None
    return check


def _maximize_check(k):
    def check(code, out):
        if code != 0:
            return _exit_code(code)
        (row,) = _read_table(out)[1]
        gap = abs(float(row["best_value"]) - math.log(k + 1))
        return None if gap <= MAXIMIZE_TOL else f"best_value misses ln(k+1) by {gap:.3e}"
    return check


def _toeplitz_check(matrix, _out):
    """Relative Hermiticity defect, in row blocks to keep memory at one block."""
    t = matrix.entries
    scale = float(np.max(np.abs(t)))
    defect = 0.0
    for r in range(0, len(t), 256):
        block = t[r:r + 256] - t[:, r:r + 256].conj().T
        defect = max(defect, float(np.max(np.abs(block))))
    return None if defect <= HERMITIAN_TOL * scale else f"Hermiticity defect {defect / scale:.3e}"


def _projection_check(k):
    def check(matrix, _out):
        rank = float(np.trace(matrix.entries).real)
        if abs(rank - k * k) > 1e-8 * k * k:
            return f"projection trace {rank:.3f}, expected kernel dimension {k * k}"
        return None
    return check


def _level_one_check(code, out):
    if code != 0:
        return _exit_code(code)
    params, _ = _read_table(out)
    diff = float(params["max_diff"])
    return None if diff <= LEVEL_ONE_TOL else f"level-1 max diff {diff:.3e}"


# kernel_basis returns k^2 + 4 vectors at k=40 (global null_space rank
# tolerance); these are the reasons the two k=40 ops fail with because of it
KERNEL_DEFECT = "kernel_basis returns k^2 + 4 vectors at k=40"
_KERNEL_K40_CSV = "1604 kernel vectors, expected 1600"
_PROJECTION_K40 = "projection trace 1604.000, expected kernel dimension 1600"


def _sphere_average(seed):
    ops = []
    for k in (5, 20):
        for rep in (0, 1):
            label = f"sphere-average-k{k}-{rep}"
            argv = ["sphere-average", "--k", str(k), "--n", str(MC_SAMPLES),
                    "--seed", str(derive_seed(seed, label))]
            ops.append(Op(label, _cli(argv), _sphere_average_check(k), MC_SAMPLES))
    return ops


def _maximize(_seed):
    ops = []
    for k in (2, 3, 10, 20):
        argv = ["maximize", "--k", str(k), "--restarts", str(RESTARTS),
                "--seed", str(MAXIMIZE_SEED)]
        ops.append(Op(f"maximize-k{k}", _cli(argv), _maximize_check(k), RESTARTS))
    return ops


def _kernel_export(_seed):
    ops = [Op(f"kernel-k{k}", _cli(["kernel", "--k", str(k)]), _kernel_csv_check(k), k * k,
              _KERNEL_K40_CSV if k == 40 else None)
           for k in (5, 10, 20, 30, 40)]
    ops.append(Op("kernel-k20-json", _cli(["kernel", "--k", "20", "--format", "json"]),
                  _kernel_json_check(20), 400))
    ops.append(Op("named-vectors-k40", _cli(["named-vectors", "--k", "40"]),
                  _named_vectors_check(40), 3))
    return ops


def _toeplitz_op(k):
    return lambda _out: toeplitz.toeplitz_matrix(toeplitz.kernel_projection_symbol(), k)


def _projection_op(k):
    return lambda _out: toeplitz.projection_matrix(restriction.kernel_basis(k))


def _operators(_seed):
    ops = [Op(f"toeplitz-k{k}", _toeplitz_op(k), _toeplitz_check, (k + 1) ** 4)
           for k in (20, 40, 60)]
    ops += [Op(f"projection-k{k}", _projection_op(k), _projection_check(k), (k + 1) ** 4,
               _PROJECTION_K40 if k == 40 else None)
            for k in (10, 20, 30, 40)]
    ops.append(Op("toeplitz-check", _cli(["toeplitz-check"]), _level_one_check, 2 * 16))
    return ops


# workload -> (op list builder, index of the untimed warm-up op); the
# warm-up is the workload's cheapest op, so setup_s is imports plus
# first-call costs rather than a share of the timed work
WORKLOADS = {
    "sphere-average": (_sphere_average, 0),
    "maximize": (_maximize, 1),
    "kernel-export": (_kernel_export, 0),
    "operators": (_operators, 0),
}
