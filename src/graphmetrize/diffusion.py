"""Spectral pipeline: normalized graph generator, eigensolver, diffusion distances."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, DomainError, InvalidParameterError, NumericError
from .kernels import AffinityMatrix, _row_blocks


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvectors[:, l] pairs with eigenvalues[l]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def graph_laplacian(kernel: AffinityMatrix) -> np.ndarray:
    """Symmetric normalized generator D^{-1/2} K D^{-1/2} - I of a kernel whose every row has a positive sum.

    It is exactly symmetric, with spectrum inside [-2, 0]; D^{1/2} applied
    to the constant vector spans the null space.
    """
    degrees = kernel.values.sum(axis=1)
    if (degrees <= 0).any():
        vertex = int(np.argmin(degrees))
        raise DegenerateVertexError(f"vertex {vertex} has zero total affinity")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    generator = np.outer(inv_sqrt, inv_sqrt)
    generator *= kernel.values
    generator.flat[:: kernel.n + 1] -= 1.0  # in place: no n x n identity
    return generator


def eig_symmetric(matrix: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a real symmetric matrix by LAPACK's eigh: eigenvalues ascending, eigenvector columns orthonormal.

    Asymmetry beyond 1e-12 is DomainError, since eigh reads one triangle
    and the check vouches for the other; a LAPACK failure is NumericError.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    asymmetry = np.subtract(a, a.T)
    if float(np.abs(asymmetry, out=asymmetry).max(initial=0.0)) > 1e-12:
        raise DomainError("matrix is not symmetric within 1e-12")
    del asymmetry
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)  # frozen in place: a copy would be the stage's peak
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def spectral_decomposition(kernel: AffinityMatrix) -> SpectralDecomposition:
    """Eigendecomposition of the normalized generator of a kernel; a caller that passes its last reference to the kernel frees it before eigh."""
    generator = graph_laplacian(kernel)
    del kernel
    return eig_symmetric(generator)


def diffusion_distance_matrix(decomp: SpectralDecomposition, t: float) -> np.ndarray:
    """All-pairs diffusion distance at time t.

    Coordinates are the eigenvector rows scaled by exp(t * eigenvalue);
    the distance is plain Euclidean between scaled rows, so it shrinks
    monotonically as t grows.  As t -> infinity it tends to |v(x) - v(y)|
    for the null eigenvector v, the last column, whose eigenvalue is read
    as exactly 0.

    Squared distances come from the Gram identity
    |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, clamped at zero, formed a row block
    at a time in the Gram matrix's own buffer.  Its error in d^2 is round-off in
    |a|^2, so the error relative to d grows as d -> 0: on
    newtonian_kernel(60) at t = 100, where some true distances are 1e-12,
    it measured 2.6e-9 absolute.  The output is exactly symmetric because
    numpy computes coords @ coords.T by BLAS syrk, which forms one
    triangle and mirrors it.
    """
    coords = _coordinates(decomp, t)
    out = coords @ coords.T
    del coords
    norms = np.diagonal(out).copy()
    for rows in _row_blocks(len(norms)):
        np.subtract(norms[rows, None] + norms, 2.0 * out[rows], out=out[rows])
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def _coordinates(decomp: SpectralDecomposition, t: float) -> np.ndarray:
    """The eigenvector rows scaled by exp(t * eigenvalue), each of norm at most 1.

    The spectrum lies in [-2, 0], so a positive eigenvalue is round-off,
    whose exp would overflow at large t: it is clamped at 0.  The top one
    is exactly 0 for a kernel with positive degrees (D^-1 K is
    row-stochastic), and is set so whatever the sign of LAPACK's round-off.
    """
    spectrum = np.append(np.minimum(decomp.eigenvalues[:-1], 0.0), 0.0)
    return decomp.eigenvectors * np.exp(_checked_time(t) * spectrum)[None, :]


def _checked_time(t: float) -> float:
    """t as a float; InvalidParameterError unless it is finite and positive."""
    if not 0 < t < np.inf:  # a NaN fails
        raise InvalidParameterError(f"t must be finite and positive, got {t!r}")
    return float(t)


def _diffusion_distance_row(decomp: SpectralDecomposition, t: float, center: int) -> np.ndarray:
    """diffusion_distance_matrix(decomp, t)[center] by the same Gram identity from the center's products alone, to round-off in d^2."""
    coords = _coordinates(decomp, t)
    norms = np.einsum("ij,ij->i", coords, coords)
    row = norms[center] + norms - 2.0 * (coords @ coords[center])
    np.sqrt(np.maximum(row, 0.0, out=row), out=row)
    row[center] = 0.0
    return row


def _decomposition_lines(decomp: SpectralDecomposition):
    """Yield json.dumps of {"eigenvalues", "eigenvectors"} at indent 2 with sorted keys, and a newline, a piece per eigenvector row."""
    yield '{\n  "eigenvalues": ' + _indented_list(decomp.eigenvalues, "  ") + ',\n  "eigenvectors": ['
    for i, row in enumerate(decomp.eigenvectors):
        yield ("," if i else "") + "\n    " + _indented_list(row, "    ")
    yield "\n  ]\n}\n" if len(decomp.eigenvectors) else "]\n}\n"


def _indented_list(values: np.ndarray, margin: str) -> str:
    """json.dumps(values.tolist(), indent=2) with margin before every line but the first, through json's C encoder.

    The compact text separates items by ", ", which no float's JSON text
    holds, so each separator becomes a comma, a newline and the indent.
    """
    if not len(values):
        return "[]"
    inner = "\n" + margin + "  "
    return "[" + inner + json.dumps(values.tolist())[1:-1].replace(", ", "," + inner) + "\n" + margin + "]"
