"""Spectral pipeline: normalized graph generator, eigensolver, diffusion distances."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVertexError,
    DomainError,
    InvalidParameterError,
    MatrixFormatError,
    NumericError,
)
from .kernels import AffinityMatrix, _freeze


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvectors[:, l] pairs with eigenvalues[l]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def graph_laplacian(kernel: AffinityMatrix) -> np.ndarray:
    """Symmetric normalized generator D^{-1/2} K D^{-1/2} - I.

    Parameters
    ----------
    kernel : AffinityMatrix
        Nonnegative symmetric kernel; every row must have positive sum.

    Returns
    -------
    ndarray
        Exactly symmetric n x n matrix with spectrum inside [-2, 0];
        D^{1/2} applied to the constant vector spans the null space.
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
    """Full eigendecomposition of a symmetric matrix by LAPACK's ``eigh``.

    eigh reads one triangle and the symmetry check vouches for the other; a LAPACK failure is NumericError.

    Parameters
    ----------
    matrix : ndarray
        Real symmetric matrix; asymmetry beyond 1e-12 is rejected.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues ascending with orthonormal eigenvector columns.
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
    """Eigendecomposition of the normalized generator of a kernel."""
    return eig_symmetric(graph_laplacian(kernel))


def diffusion_distance_matrix(decomp: SpectralDecomposition, t: float) -> np.ndarray:
    """All-pairs diffusion distance at time t.

    Coordinates are the eigenvector rows scaled by exp(t * eigenvalue);
    the distance is plain Euclidean between scaled rows, so it shrinks
    monotonically as t grows whenever the spectrum is nonpositive.

    Squared distances come from the Gram identity
    |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, clamped at zero, in O(n^2) memory.
    Its error in d^2 is round-off in |a|^2, so the error relative to d
    grows as d -> 0: on newtonian_kernel(60) at t = 100, where some true
    distances are 1e-12, it measured 2.6e-9 absolute.
    """
    if t <= 0:
        raise InvalidParameterError(f"t must be positive, got {t!r}")
    scales = np.exp(float(t) * decomp.eigenvalues)
    coords = decomp.eigenvectors * scales[None, :]
    gram = coords @ coords.T
    norms = np.diagonal(gram)
    squared = norms[:, None] + norms[None, :] - 2.0 * gram
    # BLAS does not promise a bit-symmetric product; the output must be.
    squared = (squared + squared.T) / 2.0
    out = np.sqrt(np.maximum(squared, 0.0))
    np.fill_diagonal(out, 0.0)
    return out


def decomposition_to_json(decomp: SpectralDecomposition) -> str:
    payload = {
        "eigenvalues": [float(x) for x in decomp.eigenvalues],
        "eigenvectors": decomp.eigenvectors.tolist(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def decomposition_from_json(text: str) -> SpectralDecomposition:
    """Read decomposition_to_json output; other keys, such as the "convention" older files carry, are ignored."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid decomposition JSON: {exc}") from exc
    if not isinstance(payload, dict) or "eigenvalues" not in payload or "eigenvectors" not in payload:
        raise MatrixFormatError("decomposition JSON needs 'eigenvalues' and 'eigenvectors'")
    return SpectralDecomposition(
        eigenvalues=_freeze(np.array(payload["eigenvalues"], dtype=np.float64)),
        eigenvectors=_freeze(np.array(payload["eigenvectors"], dtype=np.float64)),
    )
