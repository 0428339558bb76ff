"""Command-line front end: reproducible tables in CSV or JSON.

Every subcommand is deterministic given its full flag set. CSV output
carries provenance comment lines (# key=value) ahead of a stable header
row; JSON output follows the schema shipped in schemas/output.schema.json.
Exit codes: 0 success, 2 usage or precondition violation, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import optimize, restriction, sampling, toeplitz
from .errors import HoloentError
from .states import (
    StateTensor,
    entanglement_entropy,
    frobenius_norm,
    schmidt,
    schmidt_rank,
)

SEED_ENV_VAR = "HOLOENT_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _sample_count(text: str) -> int:
    value = int(text)
    if value < 100:
        raise argparse.ArgumentTypeError(f"need at least 100 samples, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _resolve_seed(seed: int | None) -> int:
    """Explicit --seed wins; otherwise the environment default, else 0."""
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default: csv)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoent",
        description="Entanglement entropy of product-section states on the sphere: "
                    "restriction kernels, extremal states, Toeplitz compressions and "
                    "sphere averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("entropy", help="Schmidt data and entropy of a state read from JSON")
    p.add_argument("--state", required=True, metavar="PATH",
                   help='state record {"k", "re", "im"} as JSON; "-" reads stdin')
    p.add_argument("--restriction", action="store_true",
                   help="tabulate the Fourier modes of the circle restriction instead")
    _add_output_options(p)

    p = sub.add_parser("kernel", help="orthonormal basis of the restriction kernel")
    p.add_argument("--k", type=_positive_int, required=True, help="section degree (level)")
    _add_output_options(p)

    p = sub.add_parser("named-vectors",
                       help="distinguished kernel states and their entropies")
    p.add_argument("--k", type=_positive_int, required=True, help="section degree (level)")
    _add_output_options(p)

    p = sub.add_parser("maximize",
                       help="entropy maximization over the diagonal kernel subspace")
    p.add_argument("--k", type=_positive_int, required=True, help="section degree (level)")
    p.add_argument("--restarts", type=_positive_int, default=16)
    p.add_argument("--max-iters", type=_positive_int, default=1000)
    p.add_argument("--step0", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8, help="gradient norm tolerance")
    p.add_argument("--seed", type=_nonnegative_int, default=None,
                   help=f"RNG seed; defaults to ${SEED_ENV_VAR} if set, else 0")
    p.add_argument("--trace", action="store_true",
                   help="include per-restart values in JSON output")
    _add_output_options(p)

    p = sub.add_parser("toeplitz-check",
                       help="compare the level-1 symbol compression with the kernel projection")
    p.add_argument("--tol", type=float, default=1e-10, help="pass threshold on the max norm")
    p.add_argument("--offset", type=float, default=None,
                   help="override the symbol's constant offset (default: -2)")
    _add_output_options(p)

    p = sub.add_parser("sphere-average",
                       help="Monte-Carlo mean entropy over the unit sphere")
    p.add_argument("--k", type=_positive_int, required=True, help="section degree (level)")
    p.add_argument("--n", type=_sample_count, required=True, help="sample count (>= 100)")
    p.add_argument("--seed", type=_nonnegative_int, default=None,
                   help=f"RNG seed; defaults to ${SEED_ENV_VAR} if set, else 0")
    _add_output_options(p)

    p = sub.add_parser("bk-series",
                       help="closed-form entropy decay series of the near-product states")
    p.add_argument("--k-max", type=_positive_int, required=True,
                   help="last level of the series (starts at 1)")
    _add_output_options(p)

    return parser


def _flat_state_columns(k: int) -> list[str]:
    cols = []
    for i in range(k + 1):
        for j in range(k + 1):
            cols.extend([f"re_{i}_{j}", f"im_{i}_{j}"])
    return cols


def _flat_state_row(state: StateTensor) -> list[float]:
    row = []
    for value in state.coeffs.reshape(-1):
        row.extend([value.real, value.imag])
    return row


def cmd_entropy(args: argparse.Namespace) -> dict:
    if args.state == "-":
        record = json.load(sys.stdin)
    else:
        with open(args.state) as handle:
            record = json.load(handle)
    state = StateTensor.from_dict(record)
    params = {"state": args.state, "k": state.k}
    if args.restriction:
        modes = restriction.restrict(state)
        return {
            "params": params,
            "columns": ["d", "re", "im"],
            "rows": [list(row) for row in modes.rows()],
            "json_data": {
                "k": state.k,
                "restriction": [
                    {"d": d, "re": re, "im": im} for d, re, im in modes.rows()
                ],
            },
        }
    norm = frobenius_norm(state)
    entropy = entanglement_entropy(state)
    rank = schmidt_rank(state)
    alphas = schmidt(state).alphas
    return {
        "params": params,
        "columns": ["k", "norm", "entropy", "schmidt_rank"],
        "rows": [[state.k, norm, entropy, rank]],
        "json_data": {
            "k": state.k,
            "norm": norm,
            "entropy": entropy,
            "schmidt_rank": rank,
            "schmidt_coefficients": alphas.tolist(),
        },
    }


def cmd_kernel(args: argparse.Namespace) -> dict:
    basis = restriction.kernel_basis(args.k)
    params = {"k": args.k, "dim": len(basis)}
    rows = [[index] + _flat_state_row(state) for index, state in enumerate(basis)]
    return {
        "params": params,
        "columns": ["vector"] + _flat_state_columns(args.k),
        "rows": rows,
        "json_data": {
            "k": args.k,
            "dim": len(basis),
            "basis": [state.to_dict() for state in basis],
        },
    }


def cmd_named_vectors(args: argparse.Namespace) -> dict:
    k = args.k
    named = [
        ("near_product", restriction.near_product_vector(k)),
        ("bell", restriction.bell_vector(k)),
        ("max_entropy", restriction.max_entropy_vector(k)),
    ]
    rows = []
    records = []
    for name, state in named:
        entropy = entanglement_entropy(state)
        rows.append([
            name,
            entropy,
            schmidt_rank(state),
            restriction.restrict(state).max_abs(),
        ])
        records.append({"name": name, "state": state.to_dict(), "entropy": entropy})
    return {
        "params": {"k": k},
        "columns": ["name", "entropy", "schmidt_rank", "restriction_max_abs"],
        "rows": rows,
        "json_data": {"k": k, "vectors": records},
    }


def cmd_maximize(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args.seed)
    problem = optimize.OptProblem(
        subspace=tuple(restriction.diagonal_kernel_basis(args.k)),
        max_iters=args.max_iters,
        step0=args.step0,
        tol_grad=args.tol,
        restarts=args.restarts,
        seed=seed,
    )
    result = optimize.maximize(problem)
    params = {
        "k": args.k,
        "restarts": args.restarts,
        "max_iters": args.max_iters,
        "step0": args.step0,
        "tol": args.tol,
        "seed": seed,
    }
    json_data = {
        "k": args.k,
        "best_value": result.best_value,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "critical_residual": result.critical_residual,
        "converged": result.converged,
        "best_state": result.best_state.to_dict(),
    }
    if args.trace:
        json_data["restart_values"] = list(result.restart_values)
    return {
        "params": params,
        "columns": ["k", "best_value", "grad_norm", "iterations",
                    "critical_residual", "converged"],
        "rows": [[args.k, result.best_value, result.grad_norm, result.iterations,
                  result.critical_residual, result.converged]],
        "json_data": json_data,
        "exit_code": EXIT_OK if result.converged else EXIT_NO_CONVERGENCE,
    }


def _matrix_rows(tag: str, matrix: np.ndarray) -> list[list]:
    rows = []
    for r in range(matrix.shape[0]):
        for c in range(matrix.shape[1]):
            rows.append([tag, r, c, matrix[r, c].real, matrix[r, c].imag])
    return rows


def cmd_toeplitz_check(args: argparse.Namespace) -> dict:
    symbol = toeplitz.kernel_projection_symbol()
    if args.offset is not None:
        symbol = toeplitz.SymbolExpr(terms=symbol.terms, offset=args.offset)
    compression = toeplitz.toeplitz_matrix(symbol, 1)
    projection = toeplitz.projection_matrix([restriction.bell_vector(1)])
    diff = float(np.max(np.abs(compression.entries - projection.entries)))
    status = "PASS" if diff <= args.tol else "FAIL"
    params = {
        "k": 1,
        "offset": float(complex(symbol.offset).real),
        "tol": args.tol,
        "max_diff": diff,
        "status": status,
    }
    rows = _matrix_rows("toeplitz", compression.entries)
    rows += _matrix_rows("projection", projection.entries)
    return {
        "params": params,
        "columns": ["matrix", "row", "col", "re", "im"],
        "rows": rows,
        "json_data": {
            "k": 1,
            "max_diff": diff,
            "status": status,
            "toeplitz": compression.to_dict(),
            "projection": projection.to_dict(),
        },
    }


def cmd_sphere_average(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args.seed)
    estimate = sampling.mc_mean_entropy(args.k, args.n, seed)
    page_exact = sampling.page_mean(args.k + 1)
    prediction = sampling.asymptotic_mean_entropy(sampling.cp1_model(), args.k)
    params = {"k": args.k, "n": args.n, "seed": seed}
    row = [args.k, args.n, estimate.mean, estimate.stderr,
           page_exact, prediction, seed]
    return {
        "params": params,
        "columns": ["k", "n", "mean", "stderr", "page_exact",
                    "asymptotic_prediction", "seed"],
        "rows": [row],
        "json_data": {
            "k": args.k,
            "n": args.n,
            "mean": estimate.mean,
            "stderr": estimate.stderr,
            "page_exact": page_exact,
            "asymptotic_prediction": prediction,
            "seed": seed,
        },
    }


def cmd_bk_series(args: argparse.Namespace) -> dict:
    rows = [[k, restriction.near_product_entropy(k)]
            for k in range(1, args.k_max + 1)]
    return {
        "params": {"k_max": args.k_max},
        "columns": ["k", "entropy"],
        "rows": rows,
        "json_data": {
            "k_max": args.k_max,
            "series": [{"k": k, "entropy": value} for k, value in rows],
        },
    }


_COMMANDS = {
    "entropy": cmd_entropy,
    "kernel": cmd_kernel,
    "named-vectors": cmd_named_vectors,
    "maximize": cmd_maximize,
    "toeplitz-check": cmd_toeplitz_check,
    "sphere-average": cmd_sphere_average,
    "bk-series": cmd_bk_series,
}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        # canonical builtin repr even for numpy scalars
        return repr(float(value))
    return str(value)


def render_csv(command: str, result: dict) -> str:
    buffer = io.StringIO()
    buffer.write(f"# command={command}\n")
    for key, value in result["params"].items():
        buffer.write(f"# {key}={_format_cell(value)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result["columns"])
    for row in result["rows"]:
        writer.writerow([_format_cell(cell) for cell in row])
    return buffer.getvalue()


def render_json(command: str, result: dict) -> str:
    payload = {
        "command": command,
        "params": result["params"],
        "data": result["json_data"],
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except (HoloentError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"holoent {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "csv":
        text = render_csv(args.command, result)
    else:
        text = render_json(args.command, result)
    _emit(text, args.out)
    return result.get("exit_code", EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
