"""Affinity kernels: construction, file round trips, validation.

An affinity kernel is a symmetric nonnegative matrix K where K[i, j]
measures how strongly vertices i and j of a weighted graph attract each
other.  Larger values mean closer; the diagonal carries the self affinity
and is expected to dominate its row.
"""

from __future__ import annotations

import json
import warnings
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
    """Wrap a raw square array as an AffinityMatrix, enforcing the invariants.

    Symmetry is checked exactly, not to a tolerance: a kernel that was
    built symmetrically stays bit-identical under transposition.
    """
    arr = np.asarray(values, dtype=np.float64)
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
    return AffinityMatrix(n=n, values=_freeze(arr))


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
    gaps = np.abs(idx[:, None] - idx[None, :])
    with np.errstate(divide="ignore"):
        vals = gaps ** -float(alpha)
    np.fill_diagonal(vals, float(diag_value))
    return AffinityMatrix(n=int(n), values=_freeze(vals))


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
    """Read a headerless comma-separated matrix of floats; empty lines are skipped."""
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


def write_matrix_csv(values, path) -> None:
    """Write a matrix as headerless CSV, one row per line.

    Floats are written with repr so a read back is bit-exact.
    """
    arr = np.asarray(values, dtype=np.float64)
    lines = [",".join(map(repr, row.tolist())) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n")


def load_affinity(path, fmt: str | None = None) -> AffinityMatrix:
    """Load a kernel from CSV or JSON; fmt is inferred from the suffix when None."""
    p = Path(path)
    if fmt is None:
        fmt = "json" if p.suffix.lower() == ".json" else "csv"
    if fmt == "csv":
        arr = read_matrix_csv(p)
    elif fmt == "json":
        try:
            payload = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"invalid JSON in {p}: {exc}") from exc
        if not isinstance(payload, dict) or "values" not in payload:
            raise MatrixFormatError(f"kernel JSON must be an object with 'values': {p}")
        try:
            arr = np.array(payload["values"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise MatrixFormatError(f"non-numeric kernel values in {p}: {exc}") from exc
        if "n" in payload and arr.shape[:1] != (payload["n"],):
            raise MatrixFormatError(
                f"declared n={payload['n']!r} does not match values of shape {arr.shape}"
            )
    else:
        raise InvalidParameterError(f"unknown kernel format {fmt!r}")
    return affinity_matrix(arr)


def save_affinity(kernel: AffinityMatrix, path, fmt: str | None = None) -> None:
    """Write a kernel to CSV or JSON; fmt is inferred from the suffix when None."""
    p = Path(path)
    if fmt is None:
        fmt = "json" if p.suffix.lower() == ".json" else "csv"
    if fmt == "csv":
        write_matrix_csv(kernel.values, p)
    elif fmt == "json":
        payload = {"n": kernel.n, "values": kernel.values.tolist()}
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise InvalidParameterError(f"unknown kernel format {fmt!r}")
