"""Spans around calls into graphmetrize's public functions.

The tracer replaces each public function of the library's modules with a
wrapper that records a span: name, start, end, the span that caused it,
and the operation (one CLI command or one corpus kernel) it belongs to.
The wrappers are installed from outside the package, in the process that
runs the traced work, so the library itself carries no tracing code.
Spans stay in memory and are written out once, when the process ends.

A few spans also carry counts computed from their arguments or results
(bytes, flops, sweep rounds).  They are worked out after the span has
ended, so they stay out of its duration but not out of its parent's; the
only costly one, the eigen-residual, takes about a millisecond at n = 200.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("kernels", "relations", "metrize", "diffusion", "balls", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _eig_residual(matrix, decomp):
    """Largest absolute entry of A V - V diag(lambda), the reconstruction error."""
    a = np.asarray(matrix, dtype=np.float64)
    v = decomp.eigenvectors
    return float(np.abs(a @ v - v * decomp.eigenvalues[None, :]).max(initial=0.0))


# Counts recorded per call, keyed by span name: f(args, kwargs, result) -> dict.
ANNOTATE = {
    "kernels.read_matrix_csv": lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")),
    "kernels.write_matrix_csv": lambda a, k, r: _file_bytes(_arg(a, k, 1, "path")),
    "relations.compose": lambda a, k, r: {"flops": 2 * r.n ** 3},
    "metrize.compute_lambda_sequence": lambda a, k, r: {"rounds": r.iterations, "levels": r.k + 1},
    "diffusion.eig_symmetric": lambda a, k, r: {"residual": _eig_residual(_arg(a, k, 0, "matrix"), r)},
    "diffusion.diffusion_distance_matrix": lambda a, k, r: {"bytes": 8 * r.shape[0] ** 3},
    "balls.bands_to_dot": lambda a, k, r: {"bytes": len(r.encode())},
}


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            record = {"id": len(spans), "name": name,
                      "parent": stack[-1] if stack else None, "op": self.op}
            spans.append(record)
            stack.append(record["id"])
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                record.update(annotate(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Wrap every public function of MODULES wherever the package refers to it."""
        package = importlib.import_module("graphmetrize")
        modules = [package] + [importlib.import_module(f"graphmetrize.{m}") for m in MODULES]
        for short, module in zip(MODULES, modules[1:]):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)

    def dump(self, path, **extra):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)
