import json
import math

import numpy as np
import pytest

from graphmetrize import (
    DegenerateVertexError,
    DomainError,
    InvalidParameterError,
    NumericError,
    affinity_matrix,
    decomposition_from_json,
    decomposition_to_json,
    diffusion_distance_matrix,
    eig_symmetric,
    graph_laplacian,
    newtonian_kernel,
    spectral_decomposition,
    write_matrix_csv,
)
from graphmetrize.cli import main

from conftest import random_kernel, tensor_diffusion_distances, traced_peak


def test_laplacian_all_ones_kernel():
    lap = graph_laplacian(affinity_matrix([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(lap, [[-0.5, 0.5], [0.5, -0.5]], rtol=0, atol=1e-15)
    assert np.array_equal(lap, lap.T)


def test_laplacian_diagonal_only_kernel_is_zero():
    lap = graph_laplacian(affinity_matrix([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(lap, 0.0, rtol=0, atol=1e-15)


def test_laplacian_rejects_zero_row():
    with pytest.raises(DegenerateVertexError):
        graph_laplacian(affinity_matrix([[0.0, 0.0], [0.0, 0.0]]))


def test_laplacian_exactly_symmetric_on_random_kernels():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lap = graph_laplacian(random_kernel(rng, int(rng.integers(3, 25))))
        assert np.array_equal(lap, lap.T)


def test_eig_2x2_analytic():
    decomp = eig_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(decomp.eigenvalues, [1.0, 3.0], rtol=0, atol=1e-12)


def test_eig_identity():
    decomp = eig_symmetric(np.eye(4))
    assert np.allclose(decomp.eigenvalues, 1.0, rtol=0, atol=0)
    gram = decomp.eigenvectors.T @ decomp.eigenvectors
    assert np.allclose(gram, np.eye(4), rtol=0, atol=1e-14)


def test_eig_all_ones_laplacian():
    lap = graph_laplacian(affinity_matrix([[1.0, 1.0], [1.0, 1.0]]))
    decomp = eig_symmetric(lap)
    assert np.allclose(decomp.eigenvalues, [-1.0, 0.0], rtol=0, atol=1e-12)


def test_eig_rejects_asymmetric():
    with pytest.raises(DomainError):
        eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        eig_symmetric(np.ones((2, 3)))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(2, 30))
        sym = rng.standard_normal((n, n))
        sym = (sym + sym.T) / 2.0
        decomp = eig_symmetric(sym)
        rebuilt = decomp.eigenvectors @ np.diag(decomp.eigenvalues) @ decomp.eigenvectors.T
        assert np.abs(rebuilt - sym).max() <= 1e-8
        gram = decomp.eigenvectors.T @ decomp.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-8
        assert (np.diff(decomp.eigenvalues) >= 0).all()


def test_eig_agrees_with_library_solver():
    rng = np.random.default_rng(9)
    sym = rng.standard_normal((15, 15))
    sym = (sym + sym.T) / 2.0
    decomp = eig_symmetric(sym)
    expected = np.linalg.eigvalsh(sym)
    assert np.allclose(decomp.eigenvalues, expected, rtol=0, atol=1e-9)
    # An exactly symmetric matrix goes to eigh as it is: the same bits as calling eigh directly.
    for matrix in (sym, graph_laplacian(random_kernel(rng, 60))):
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        decomp = eig_symmetric(matrix)
        assert np.array_equal(decomp.eigenvalues, eigenvalues)
        assert np.array_equal(decomp.eigenvectors, eigenvectors)


def test_eig_lapack_failure_is_numeric_error(tmp_path, monkeypatch):
    def explode(matrix):
        raise np.linalg.LinAlgError("synthetic non-convergence")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    with pytest.raises(NumericError):
        eig_symmetric(np.eye(3))
    kernel = tmp_path / "k.csv"
    write_matrix_csv(newtonian_kernel(8, 1.0, 2.0).values, kernel)
    assert main(["diffusion", "-i", str(kernel), "-o", str(tmp_path / "dt.csv")]) == 3


def test_diffusion_2x2_analytic_case():
    kernel = affinity_matrix([[1.0, 1.0], [1.0, 1.0]])
    dt = diffusion_distance_matrix(spectral_decomposition(kernel), 0.005)
    assert abs(dt[0, 1] - math.sqrt(2.0 * math.exp(-0.01))) <= 1e-6
    assert dt[0, 0] == 0.0


def test_diffusion_requires_positive_time():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    decomp = spectral_decomposition(kernel)
    with pytest.raises(InvalidParameterError):
        diffusion_distance_matrix(decomp, 0.0)


def test_diffusion_symmetric_zero_diagonal_triangle():
    rng = np.random.default_rng(21)
    kernel = random_kernel(rng, 14)
    dt = diffusion_distance_matrix(spectral_decomposition(kernel), 0.05)
    assert np.array_equal(dt, dt.T)
    assert (np.diagonal(dt) == 0).all()
    for mid in range(kernel.n):
        slack = dt - (dt[:, mid][:, None] + dt[mid, :][None, :])
        assert slack.max() <= 1e-12


def test_diffusion_matches_tensor_oracle(corpus):
    for kernel in [newtonian_kernel(60, 1.0, 2.0), *corpus]:
        decomp = spectral_decomposition(kernel)
        for t in (0.005, 0.5, 5.0):
            dt = diffusion_distance_matrix(decomp, t)
            assert np.abs(dt - tensor_diffusion_distances(decomp, t)).max() <= 1e-12


def test_diffusion_distance_memory_is_quadratic():
    n = 300
    decomp = spectral_decomposition(newtonian_kernel(n, 1.0, 2.0))
    peak = traced_peak(diffusion_distance_matrix, decomp, 0.5)
    assert peak < 10 * n * n * 8


def test_spectral_memory_builds_each_square_array_once():
    """At the peak: the generator and one more n x n array, with no identity, copy or average.

    The symmetry check takes its absolute difference in place, and eigh's
    eigenvectors are frozen without a copy.
    """
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    assert traced_peak(graph_laplacian, kernel) < 11 * n * n
    assert traced_peak(spectral_decomposition, kernel) < 18 * n * n


def test_diffusion_monotone_in_time():
    rng = np.random.default_rng(22)
    kernel = random_kernel(rng, 12)
    decomp = spectral_decomposition(kernel)
    times = [0.01, 0.1, 0.5, 2.0]
    previous = diffusion_distance_matrix(decomp, times[0])
    for t in times[1:]:
        current = diffusion_distance_matrix(decomp, t)
        assert (current <= previous + 1e-12).all()
        previous = current


def test_spectral_decomposition_convention_and_spectrum():
    kernel = newtonian_kernel(20, 1.0, 2.0)
    decomp = spectral_decomposition(kernel)
    assert decomp.eigenvalues.min() >= -2.0 - 1e-10
    assert decomp.eigenvalues.max() <= 1e-10


def test_spectral_null_vector_is_sqrt_degrees():
    kernel = newtonian_kernel(12, 1.0, 2.0)
    decomp = spectral_decomposition(kernel)
    null = np.sqrt(kernel.values.sum(axis=1))
    null /= np.linalg.norm(null)
    top = decomp.eigenvectors[:, -1]
    assert abs(decomp.eigenvalues[-1]) <= 1e-10
    assert abs(abs(null @ top) - 1.0) <= 1e-8


def test_decomposition_json_round_trip():
    kernel = newtonian_kernel(5, 1.0, 2.0)
    decomp = spectral_decomposition(kernel)
    back = decomposition_from_json(decomposition_to_json(decomp))
    assert np.array_equal(back.eigenvalues, decomp.eigenvalues)
    assert np.array_equal(back.eigenvectors, decomp.eigenvectors)
    payload = json.loads(decomposition_to_json(decomp))
    assert "convention" not in payload
    # eig.json files written before the tag was dropped carry it; they still read.
    old = decomposition_from_json(json.dumps({**payload, "convention": "symmetric_normalized"}))
    assert np.array_equal(old.eigenvalues, decomp.eigenvalues)
    assert np.array_equal(old.eigenvectors, decomp.eigenvectors)
