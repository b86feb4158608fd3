"""Affinity kernels: construction, file round trips, validation.

An affinity kernel is a symmetric nonnegative matrix K where K[i, j]
measures how strongly vertices i and j of a weighted graph attract each
other.  Larger values mean closer; the diagonal carries the self affinity
and is expected to dominate its row.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    InvalidParameterError,
    MatrixFormatError,
    SymmetryError,
)


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative kernel on n vertices (values is read-only)."""

    n: int
    values: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    """Structural flags for a kernel."""

    symmetric: bool
    diag_dominant: bool
    tridiagonal_positive: bool

    def failed_flags(self) -> list[str]:
        names = ("symmetric", "diag_dominant", "tridiagonal_positive")
        return [name for name in names if not getattr(self, name)]


def _freeze(values: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def affinity_matrix(values) -> AffinityMatrix:
    """Wrap a copy of a raw square array as an AffinityMatrix, enforcing the invariants.

    Symmetry is checked exactly, not to a tolerance: a kernel that was
    built symmetrically stays bit-identical under transposition.
    """
    return _checked(np.array(values, dtype=np.float64))


def _checked(arr: np.ndarray) -> AffinityMatrix:
    """affinity_matrix for a float64 array that nothing else holds: it is checked and frozen in place."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(f"affinity matrix must be square, got shape {arr.shape}")
    n = int(arr.shape[0])
    if n < 2:
        raise InvalidParameterError("affinity matrix needs at least 2 vertices")
    if not np.isfinite(arr).all():
        raise DomainError("affinities must be finite")
    if not np.array_equal(arr, arr.T):
        i, j = map(int, np.argwhere(arr != arr.T)[0])
        raise SymmetryError(
            f"asymmetric entry at ({i}, {j}): {arr[i, j]!r} != {arr[j, i]!r}"
        )
    if (arr < 0).any():
        i, j = map(int, np.argwhere(arr < 0)[0])
        raise DomainError(f"negative affinity at ({i}, {j}): {arr[i, j]!r}")
    arr.setflags(write=False)
    return AffinityMatrix(n=n, values=arr)


def newtonian_kernel(n: int, alpha: float, diag_value: float = 2.0) -> AffinityMatrix:
    """Power-law kernel on the path 0..n-1: K[i, j] = |i - j| ** -alpha.

    The diagonal is set to diag_value, which must be at least 1 so the
    diagonal dominates every row (the largest off-diagonal entry is 1).
    """
    if int(n) != n or n < 2:
        raise InvalidParameterError(f"n must be an integer >= 2, got {n!r}")
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha!r}")
    if diag_value < 1.0:
        raise InvalidParameterError(
            f"diag_value must be >= 1 to keep the diagonal dominant, got {diag_value!r}"
        )
    idx = np.arange(int(n), dtype=np.float64)
    vals = np.empty((int(n), int(n)))
    for i, row in enumerate(vals):  # row by row: a broadcast difference takes ufunc buffers beside the result
        np.subtract(i, idx, out=row)
    np.abs(vals, out=vals)  # the gaps, raised to -alpha in place
    with np.errstate(divide="ignore"):
        vals **= -float(alpha)
    np.fill_diagonal(vals, float(diag_value))
    vals.setflags(write=False)
    return AffinityMatrix(n=int(n), values=vals)


def validate_kernel(kernel: AffinityMatrix) -> ValidationReport:
    """Compute the structural flags the metric constructions rely on.

    diag_dominant: every diagonal entry is the maximum of its row.
    tridiagonal_positive: the diagonal and both first off-diagonals are
    strictly positive, so consecutive vertices are always related.
    """
    v = kernel.values
    diag = np.diagonal(v)
    symmetric = bool(np.array_equal(v, v.T))
    diag_dominant = bool((diag == v.max(axis=1)).all())
    tridiagonal_positive = bool(
        (diag > 0).all()
        and (np.diagonal(v, offset=1) > 0).all()
        and (np.diagonal(v, offset=-1) > 0).all()
    )
    return ValidationReport(
        symmetric=symmetric,
        diag_dominant=diag_dominant,
        tridiagonal_positive=tridiagonal_positive,
    )


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless comma-separated matrix of floats; empty lines are skipped.

    A square table is parsed through a cache of one row's length.  The rest goes to
    np.loadtxt, which words the errors: cells float() rejects or reads otherwise (1_0,
    a lone \\r), ragged or non-square rows, no rows, rows mostly missing a full cache.
    """
    with open(path, "rb") as handle:
        lines = filter(None, (line.rstrip(b"\r\n") for line in handle))
        first = next(lines, b"")
        width = first.count(b",") + 1
        rows = width if width * (2 * width - 1) <= Path(path).stat().st_size else 0  # bytes a square table needs
        arr, cells = np.empty((rows, width)), _Cache(float, width)
        try:
            for row, line in enumerate(itertools.chain([first], lines)):
                cells.misses_when_full = 0
                arr[row] = list(map(cells.__getitem__, line.split(b",")))
                if b"_" in line or b"\r" in line or 2 * cells.misses_when_full > width:
                    raise ValueError("left to np.loadtxt")
            if row + 1 == width:
                return arr
        except (ValueError, IndexError):  # a bad cell, a ragged row, or too many rows
            pass
    del arr, cells  # before np.loadtxt allocates its own
    with warnings.catch_warnings():
        # An empty file only warns; it is rejected below.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            arr = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    if arr.size == 0:
        raise MatrixFormatError(f"no data rows in {path}")
    return arr


class _Cache(dict):
    """Map from a key to convert(key), filled on a miss while it holds fewer than cap entries.

    Zeros are never kept: 0.0 == -0.0 as dict keys, so a kept 0.0 would
    print -0.0 as "0.0".  Neither is NaN, which equals nothing and so
    never hits.  misses_when_full counts the misses that found no room.
    """

    def __init__(self, convert, cap: int):
        self.convert = convert
        self.cap = cap
        self.misses_when_full = 0

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) >= self.cap:
            self.misses_when_full += 1
        elif key and key == key:
            self[key] = value
        return value


def write_matrix_csv(values, path) -> None:
    """Write a matrix, or an iterator over its rows, as headerless CSV, one row per line.

    Floats are written with repr so a read back is bit-exact.  Kernels
    and the metrics built from them repeat a few values many times, so
    each distinct value is formatted once, through a cache of at most
    one row's length.  A row that misses on more than half its entries
    once the cache is full means mostly distinct values, and the rest of
    the matrix is formatted with plain repr.
    """
    rows = values if isinstance(values, Iterator) else np.asarray(values, dtype=np.float64)
    words = fmt = None
    with open(path, "w") as handle:
        for row in rows:
            row = np.asarray(row, dtype=np.float64).tolist()
            if words is None:
                words = _Cache(repr, len(row))
                fmt = words.__getitem__
            words.misses_when_full = 0
            handle.write(",".join(map(fmt, row)) + "\n")
            if 2 * words.misses_when_full > len(row):
                fmt = repr
                words.clear()


def load_affinity(path) -> AffinityMatrix:
    """Load a kernel from a headerless CSV file, whatever its suffix."""
    return _checked(read_matrix_csv(path))


def save_affinity(kernel: AffinityMatrix, path) -> None:
    """Write a kernel as headerless CSV, whatever the path's suffix."""
    write_matrix_csv(kernel.values, path)
