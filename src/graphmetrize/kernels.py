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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    InvalidParameterError,
    MatrixFormatError,
    SymmetryError,
)

# The block setting of every blocked pass over an n x n array, read at call time so that tests can shrink
# it: the indicator products take strips and column tiles this wide (one tile while n is at most twice
# it), and the row passes take row blocks of about its square entries.
_BLOCK = 128


def _row_blocks(n: int) -> list:
    """Row slices of an n x n array, about _BLOCK ** 2 entries each."""
    step = max(1, _BLOCK**2 // n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _symmetric(arr: np.ndarray, tol: float = 0.0) -> bool:
    """Whether |arr[i, j] - arr[j, i]| <= tol throughout a square array, a NaN failing, by tiles on and above the diagonal."""
    width = max(1, _BLOCK // 2)
    for top, left in itertools.combinations_with_replacement(range(0, len(arr), width), 2):
        rows, cols = slice(top, top + width), slice(left, left + width)
        gap = arr[cols, rows].T.copy()  # numpy buffers the strided tile; subtracting the mirror itself would copy it too
        np.subtract(arr[rows, cols], gap, out=gap)
        if not np.abs(gap, out=gap).max() <= tol:
            return False
    return True


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric, nonnegative, finite float64 kernel on n >= 2 vertices, with read-only values.

    Every instance is checked when it is built, and values is then frozen
    in place, so pass an array that nothing else writes to; affinity_matrix
    copies its input first.  Symmetry is exact, not to a tolerance: a kernel
    that was built symmetrically stays bit-identical under transposition.
    The checks make no n x n temporary unless one of them fails.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __post_init__(self):
        arr = self.values
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise MatrixFormatError("affinity values must be a float64 array; affinity_matrix converts others")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixFormatError(f"affinity matrix must be square, got shape {arr.shape}")
        if self.n < 2:
            raise InvalidParameterError("affinity matrix needs at least 2 vertices")
        lo, hi = arr.min(), arr.max()
        if not -np.inf < lo <= hi < np.inf:  # a NaN fails
            raise DomainError("affinities must be finite")
        if not _symmetric(arr):
            i, j = map(int, np.argwhere(arr != arr.T)[0])
            raise SymmetryError(f"asymmetric entry at ({i}, {j}): {float(arr[i, j])!r} != {float(arr[j, i])!r}")
        if lo < 0:
            i, j = map(int, np.argwhere(arr < 0)[0])
            raise DomainError(f"negative affinity at ({i}, {j}): {float(arr[i, j])!r}")
        arr.setflags(write=False)


@dataclass(frozen=True)
class ValidationReport:
    """Structural flags for a kernel, each True when it holds."""

    symmetric: bool  # always, since every AffinityMatrix is checked for it
    diag_dominant: bool  # every diagonal entry is the maximum of its row
    tridiagonal_positive: bool  # the diagonal and first off-diagonals are positive, so consecutive vertices are related

    def failed_flags(self) -> list[str]:
        return [name for name, held in asdict(self).items() if not held]


def affinity_matrix(values) -> AffinityMatrix:
    """Wrap a float64 copy of a raw square array as an AffinityMatrix."""
    return AffinityMatrix(np.array(values, dtype=np.float64))


def newtonian_kernel(n: int, alpha: float, diag_value: float = 2.0) -> AffinityMatrix:
    """Power-law kernel on the path 0..n-1: K[i, j] = |i - j| ** -alpha.

    The diagonal is set to diag_value, which must be at least 1 so the
    diagonal dominates every row (the largest off-diagonal entry is 1).
    """
    if int(n) != n or n < 2:
        raise InvalidParameterError(f"n must be an integer >= 2, got {n!r}")
    if not alpha > 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha!r}")
    if not diag_value >= 1.0:
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
    return AffinityMatrix(vals)


def validate_kernel(kernel: AffinityMatrix) -> ValidationReport:
    """The structural flags that the metric constructions rely on."""
    v = kernel.values
    diag = np.diagonal(v)
    return ValidationReport(
        True,
        bool((diag == v.max(axis=1)).all()),
        bool((diag > 0).all() and (np.diagonal(v, offset=1) > 0).all()),  # offset -1 is its transpose
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
    return AffinityMatrix(read_matrix_csv(path))


def save_affinity(kernel: AffinityMatrix, path) -> None:
    """Write a kernel as headerless CSV, whatever the path's suffix."""
    write_matrix_csv(kernel.values, path)
