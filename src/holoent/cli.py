"""Command-line front end: reproducible tables in CSV or JSON.

Every subcommand is deterministic given its full flag set. Each ``cmd_*``
returns one record, from which both output formats are derived:

- ``params``: the flags and derived settings in effect, written as
  ``# key=value`` provenance lines in CSV and as ``params`` in JSON;
- ``columns``: the CSV header;
- ``rows`` or ``lines``: the CSV body, consumed once by ``render_csv``
  (a JSON run never iterates it, so large tables are built only for
  CSV). ``rows`` is an iterable of rows of plain Python values, written
  by ``csv.writer``; every small table takes this path. ``lines`` is an
  iterable of finished text lines, written as they are; ``kernel`` gives
  its float coefficient rows this way, pre-formatted by ``_float_rows``;
- ``data``: the JSON payload, which holds StateTensor, ToeplitzMatrix and
  ndarray values as they are; ``render_json`` serializes them (a CSV run
  never converts them);
- ``exit_code`` (optional): the exit status when it is not 0.

Float coefficient arrays are rendered as whole rows of text in both
formats, byte-identical to what ``csv.writer`` and ``json.dumps(indent=2)``
write for their ``tolist()``.

JSON output follows the schema shipped in schemas/output.schema.json.
Float flags must be finite. Exit codes: 0 success, 2 usage or
precondition violation, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import stat
import sys
from itertools import islice

import numpy as np

from . import optimize, restriction, sampling, toeplitz
from .errors import HoloentError
from .states import StateTensor, schmidt, unit_norm

SEED_ENV_VAR = "HOLOENT_SEED"
# states per coefficient stack when kernel rows are rendered
_STATE_CHUNK = 64
# characters per write of the output text
_EMIT_CHUNK = 1 << 20

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _checked(convert, accept, expected: str):
    """argparse type: convert the text, then reject a value that accept() refuses."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{expected}, got {value}")
        return value
    # argparse names the type in its message for text that does not convert
    parse.__name__ = convert.__name__
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "expected a positive integer")
_sample_count = _checked(int, lambda v: v >= 100, "need at least 100 samples")
_nonnegative_int = _checked(int, lambda v: v >= 0, "expected a nonnegative integer")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "expected a finite positive number")
_finite_float = _checked(float, math.isfinite, "expected a finite number")


def _resolve_seed(seed: int | None) -> int:
    """Explicit --seed wins; otherwise the environment default, else 0.

    The environment value follows the --seed rule, a nonnegative integer;
    anything else raises ValueError naming the variable.
    """
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return 0
    try:
        return _nonnegative_int(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"{SEED_ENV_VAR} must be a nonnegative integer, got {env!r}") from None


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
    p.add_argument("--step0", type=_positive_float, default=1.0)
    p.add_argument("--tol", type=_positive_float, default=1e-8, help="gradient norm tolerance")
    p.add_argument("--seed", type=_nonnegative_int, default=None,
                   help=f"RNG seed; defaults to ${SEED_ENV_VAR} if set, else 0")
    p.add_argument("--trace", action="store_true",
                   help="include per-restart values in JSON output")
    _add_output_options(p)

    p = sub.add_parser("toeplitz-check",
                       help="compare the level-1 symbol compression with the kernel projection")
    p.add_argument("--tol", type=_positive_float, default=1e-10,
                   help="pass threshold on the max norm")
    p.add_argument("--offset", type=_finite_float, default=None,
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


def _format_cell(value):
    """CSV text of a bool (``true``/``false``); any other value passes unchanged."""
    return str(value).lower() if isinstance(value, bool) else value


def _table(records: list[dict]) -> dict:
    """CSV columns (the keys) and rows (the values) of records sharing their keys."""
    return {
        "columns": list(records[0]),
        "rows": ([_format_cell(value) for value in record.values()] for record in records),
    }


def _float_rows(values: np.ndarray, sep: str):
    """Text of each row of a 2-D float array: the repr of its cells joined by sep.

    Returns an iterator that does not hold the array. The text is what
    csv.writer and json.dumps write for the row's ``tolist()``. Kernel
    coefficients are mostly +0.0, so a run of cells whose bit pattern is
    0 is one string product and repr runs only on the other cells; -0.0
    and non-finite cells are among those.
    """
    zero = "0.0" + sep
    width = values.shape[1]
    rows, cols = np.nonzero(values.view(np.uint64))
    cells = zip(cols.tolist(), values[rows, cols].tolist())

    def row_text(count):
        pieces = []
        start = 0
        for col, value in islice(cells, count):
            pieces.append(zero * (col - start) + repr(value))
            start = col + 1
        if start < width:
            pieces.append(zero * (width - 1 - start) + "0.0")
        return sep.join(pieces)

    return map(row_text, np.bincount(rows, minlength=len(values)).tolist())


def _state_lines(states: list[StateTensor]):
    """CSV lines ``index,re,im,re,im,...`` of states, coefficients in C order.

    A generator. States are stacked _STATE_CHUNK at a time, so no
    (count, k+1, k+1) copy of a large basis is held beside its text.
    """
    for first in range(0, len(states), _STATE_CHUNK):
        stack = np.stack([state.coeffs for state in states[first:first + _STATE_CHUNK]])
        rows = _float_rows(stack.view(float).reshape(len(stack), -1), ",")
        for index, row in enumerate(rows, first):
            yield f"{index},{row}\n"


def _entry_rows(matrices: dict[str, np.ndarray]):
    """Rows (name, row, col, re, im), one per entry of each named matrix, built lazily."""
    stack = np.stack(list(matrices.values()))
    which, row, col = np.indices(stack.shape).reshape(3, -1)
    names = np.array(list(matrices))[which]
    yield from zip(names.tolist(), row.tolist(), col.tolist(),
                   stack.real.ravel().tolist(), stack.imag.ravel().tolist())


def cmd_entropy(args: argparse.Namespace) -> dict:
    if args.state == "-":
        record = json.load(sys.stdin)
    else:
        with open(args.state) as handle:
            record = json.load(handle)
    state = StateTensor.from_dict(record)
    params = {"state": args.state, "k": state.k}
    if args.restriction:
        modes = [dict(zip(("d", "re", "im"), row)) for row in restriction.restrict(state).rows()]
        return {"params": params, **_table(modes), "data": {"k": state.k, "restriction": modes}}
    norm = unit_norm(state)
    decomposition = schmidt(state)
    row = {
        "k": state.k,
        "norm": norm,
        "entropy": decomposition.entropy(),
        "schmidt_rank": decomposition.rank(),
    }
    data = {**row, "schmidt_coefficients": decomposition.alphas}
    return {"params": params, **_table([row]), "data": data}


def cmd_kernel(args: argparse.Namespace) -> dict:
    basis = restriction.kernel_basis(args.k)
    params = {"k": args.k, "dim": len(basis)}
    n = args.k + 1
    columns = ["vector"] + [f"{part}_{i}_{j}"
                            for i in range(n) for j in range(n) for part in ("re", "im")]
    return {
        "params": params,
        "columns": columns,
        "lines": _state_lines(basis),
        "data": {**params, "basis": basis},
    }


def cmd_named_vectors(args: argparse.Namespace) -> dict:
    k = args.k
    named = [
        ("near_product", restriction.near_product_vector(k)),
        ("bell", restriction.bell_vector(k)),
        ("max_entropy", restriction.max_entropy_vector(k)),
    ]
    table = []
    vectors = []
    for name, state in named:
        unit_norm(state)
        decomposition = schmidt(state)
        entropy = decomposition.entropy()
        table.append({
            "name": name,
            "entropy": entropy,
            "schmidt_rank": decomposition.rank(),
            "restriction_max_abs": restriction.restrict(state).max_abs(),
        })
        vectors.append({"name": name, "state": state, "entropy": entropy})
    return {"params": {"k": k}, **_table(table), "data": {"k": k, "vectors": vectors}}


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
    row = {
        "k": args.k,
        "best_value": result.best_value,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "critical_residual": result.critical_residual,
        "converged": result.converged,
    }
    data = {**row, "best_state": result.best_state}
    if args.trace:
        data["restart_values"] = result.restart_values
    return {
        "params": params,
        **_table([row]),
        "data": data,
        "exit_code": EXIT_OK if result.converged else EXIT_NO_CONVERGENCE,
    }


def cmd_toeplitz_check(args: argparse.Namespace) -> dict:
    symbol = toeplitz.kernel_projection_symbol()
    if args.offset is not None:
        symbol = toeplitz.SymbolExpr(terms=symbol.terms, offset=args.offset)
    compression = toeplitz.toeplitz_matrix(symbol, 1)
    projection = toeplitz.projection_matrix([restriction.bell_vector(1)])
    diff = float(np.max(np.abs(compression.entries - projection.entries)))
    params = {
        "k": 1,
        "offset": float(complex(symbol.offset).real),
        "tol": args.tol,
        "max_diff": diff,
        "status": "PASS" if diff <= args.tol else "FAIL",
    }
    data = {key: params[key] for key in ("k", "max_diff", "status")}
    return {
        "params": params,
        "columns": ["matrix", "row", "col", "re", "im"],
        "rows": _entry_rows({"toeplitz": compression.entries,
                             "projection": projection.entries}),
        "data": {**data, "toeplitz": compression, "projection": projection},
    }


def cmd_sphere_average(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args.seed)
    estimate = sampling.mc_mean_entropy(args.k, args.n, seed)
    row = {
        "k": args.k,
        "n": args.n,
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "page_exact": sampling.page_mean(args.k + 1),
        "asymptotic_prediction": sampling.asymptotic_mean_entropy(args.k),
        "seed": seed,
    }
    params = {"k": args.k, "n": args.n, "seed": seed}
    return {"params": params, **_table([row]), "data": row}


def cmd_bk_series(args: argparse.Namespace) -> dict:
    params = {"k_max": args.k_max}
    series = [{"k": k, "entropy": restriction.near_product_entropy(k)}
              for k in range(1, args.k_max + 1)]
    return {"params": params, **_table(series), "data": {**params, "series": series}}


_COMMANDS = {
    "entropy": cmd_entropy,
    "kernel": cmd_kernel,
    "named-vectors": cmd_named_vectors,
    "maximize": cmd_maximize,
    "toeplitz-check": cmd_toeplitz_check,
    "sphere-average": cmd_sphere_average,
    "bk-series": cmd_bk_series,
}


def render_csv(command: str, result: dict) -> str:
    """CSV text of a command record: provenance comments, header, then the body.

    The body is ``result["rows"]``, written by csv.writer (a float as its
    repr, bools as ``true``/``false``), or ``result["lines"]``, written
    as they are; either is consumed once, here.
    """
    buffer = io.StringIO()
    buffer.write(f"# command={command}\n")
    for key, value in result["params"].items():
        buffer.write(f"# {key}={_format_cell(value)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result["columns"])
    writer.writerows(result.get("rows", ()))
    buffer.writelines(result.get("lines", ()))
    return buffer.getvalue()


# json.dumps text of the placeholder string that stands for float array n
_ARRAY_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def _json_array(values: np.ndarray, indent: str) -> str:
    """json.dumps(values.tolist(), indent=2) text of a 2-D float array.

    ``indent`` is the indentation of the line the array opens on. A
    non-finite entry raises ValueError, as json.dumps does with
    allow_nan=False.
    """
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(float(values[~finite][0])))
    inner = indent + "    "
    rows = _float_rows(values, ",\n" + inner)
    return ("[\n" + ",\n".join(f"{indent}  [\n{inner}{row}\n{indent}  ]" for row in rows)
            + f"\n{indent}]")


def render_json(command: str, result: dict) -> str:
    """JSON text {"command", "params", "data"} of a command record.

    ``result["data"]`` may hold StateTensor, ToeplitzMatrix and ndarray
    values as they are. The record of a StateTensor or ToeplitzMatrix is
    its ``to_dict()``, with the "re" and "im" arrays rendered by
    ``_json_array`` and spliced into the ``json.dumps`` text of the rest;
    an ndarray goes through ``tolist()``. Any other unknown object raises
    TypeError, and a non-finite float ValueError.
    """
    arrays = []

    def placeholder(values):
        arrays.append(values)
        return f"\0{len(arrays) - 1}"

    def to_json(value):
        if isinstance(value, StateTensor):
            return {"k": value.k, "re": placeholder(value.coeffs.real),
                    "im": placeholder(value.coeffs.imag)}
        if isinstance(value, toeplitz.ToeplitzMatrix):
            return {"k": value.k, "dim": value.dim, "re": placeholder(value.entries.real),
                    "im": placeholder(value.entries.imag)}
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    payload = {
        "command": command,
        "params": result["params"],
        "data": result["data"],
    }
    text = json.dumps(payload, indent=2, default=to_json, allow_nan=False)
    pieces = _ARRAY_PLACEHOLDER.split(text)
    for i in range(1, len(pieces), 2):
        line = pieces[i - 1][pieces[i - 1].rfind("\n") + 1:]
        indent = line[:len(line) - len(line.lstrip(" "))]
        pieces[i] = _json_array(arrays[int(pieces[i])], indent)
    pieces.append("\n")
    return "".join(pieces)


def _write(handle, text: str) -> None:
    """Write text in slices of _EMIT_CHUNK characters, so that only one
    slice at a time is held encoded beside the text."""
    for start in range(0, len(text), _EMIT_CHUNK):
        handle.write(text[start:start + _EMIT_CHUNK])


def _remove_regular_file(path: str) -> None:
    """Remove path if it is a regular file with no other hard link.

    Output is then written to a new file (with default permissions)
    rather than by truncating the old one. On ext4 (auto_da_alloc),
    truncating a file and closing it starts writeback of the new data,
    and the next truncation waits for that writeback, so rewriting a
    large output file would wait on disk I/O. Symlinks, hard-linked
    files, devices and pipes are left alone and written through.
    """
    try:
        info = os.lstat(path)
        if stat.S_ISREG(info.st_mode) and info.st_nlink == 1:
            os.unlink(path)
    except OSError:
        pass  # missing, or not removable: open() below reports what matters


def _emit(text: str, out: str | None) -> None:
    if out is None:
        _write(sys.stdout, text)
    else:
        _remove_regular_file(out)
        with open(out, "w") as handle:
            _write(handle, text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
        if args.format == "csv":
            text = render_csv(args.command, result)
        else:
            text = render_json(args.command, result)
        _emit(text, args.out)
    except (HoloentError, OSError, ValueError) as exc:
        print(f"holoent {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return result.get("exit_code", EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
