"""Per-layer tracing of holoent from outside the package.

Each traced function is replaced, for the duration of a ``with`` block,
by a wrapper that counts calls and accumulates time. The wrapper is put
at every name through which a caller can reach the function: the module
attribute, every ``from x import f`` binding in the other holoent
modules (found by identity), and the ``cli._COMMANDS`` table. numpy and
scipy are wrapped at the module attribute holoent looks up on each call
(``np.linalg.svd``, ``scipy.linalg.null_space``).

Self time is total time minus the time spent in wrapped callees, kept
with a stack of child-time accumulators.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter


def _count_samples(counters, entropies):
    counters["sampling.samples"] += len(entropies)


def _count_ascent(counters, result):
    _, _, _, iterations, converged = result
    counters["optimize.iterations"] += iterations
    counters["optimize.restarts_converged"] += int(converged)


def _count_dense_bytes(counters, matrix):
    counters["toeplitz.dense_bytes"] += matrix.entries.nbytes


def _count_bytes_out(counters, text):
    # rendered text is ASCII, so characters are bytes
    counters["cli.bytes_out"] += len(text)


# (module, attribute, layer metric prefix, counter hook called with the
# return value or None)
LAYERS = (
    ("holoent.cli", "main", "cli.main", None),
    ("holoent.cli", "render_csv", "cli.render_csv", _count_bytes_out),
    ("holoent.cli", "render_json", "cli.render_json", _count_bytes_out),
    ("holoent.restriction", "kernel_basis", "restriction.kernel_basis", None),
    ("holoent.restriction", "diagonal_kernel_basis", "restriction.diagonal_kernel_basis", None),
    ("holoent.restriction", "restrict", "restriction.restrict", None),
    ("holoent.toeplitz", "toeplitz_matrix", "toeplitz.toeplitz_matrix", _count_dense_bytes),
    ("holoent.toeplitz", "projection_matrix", "toeplitz.projection_matrix", _count_dense_bytes),
    ("holoent.sections", "monomial_integral", "sections.monomial_integral", None),
    ("holoent.states", "schmidt", "states.schmidt", None),
    ("holoent.states", "entropy_from_squared_schmidt", "states.entropy_from_squared_schmidt",
     None),
    ("holoent.optimize", "maximize", "optimize.maximize", None),
    ("holoent.optimize", "_ascend", "optimize._ascend", _count_ascent),
    ("holoent.optimize", "_value_and_gradient", "optimize._value_and_gradient", None),
    ("holoent.sampling", "mc_mean_entropy", "sampling.mc_mean_entropy", None),
    ("holoent.sampling", "_block_entropies", "sampling._block_entropies", _count_samples),
    ("numpy.linalg", "svd", "linalg.svd", None),
    ("scipy.linalg", "null_space", "linalg.null_space", None),
)
COUNTERS = ("sampling.samples", "optimize.iterations", "optimize.restarts_converged",
            "toeplitz.dense_bytes", "cli.bytes_out")


class Tracer:
    """Call counts, total and self time per layer, plus derived counters."""

    def __init__(self):
        self.stats = {}  # layer -> [calls, total_s, child_s]
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self._stack = []

    def _wrap(self, layer, fn, on_return=None):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(counters, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at each name it is called through."""
        holoent_modules = [m for name, m in sys.modules.items()
                           if m is not None and (name == "holoent" or name.startswith("holoent."))]
        undo = []

        def replace(namespace, key, value):
            undo.append((namespace, key, namespace[key]))
            namespace[key] = value

        for module_name, attr, layer, on_return in LAYERS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, on_return)
            replace(vars(module), attr, wrapper)
            for other in holoent_modules:
                namespace = vars(other)
                for key, value in list(namespace.items()):
                    if value is original:
                        replace(namespace, key, wrapper)
        commands = sys.modules["holoent.cli"]._COMMANDS
        for key, command in list(commands.items()):
            replace(commands, key, self._wrap("cli.cmd", command))
        try:
            yield self
        finally:
            for namespace, key, value in reversed(undo):
                namespace[key] = value

    def snapshot(self) -> dict:
        """Flat {metric: value} of every layer and counter gathered so far."""
        out = {}
        for layer, (calls, total, child) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.total_s"] = total
            out[f"{layer}.self_s"] = total - child
        out.update(self.counters)
        return out
