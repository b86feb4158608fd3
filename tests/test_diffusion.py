import json
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from graphmetrize import (
    DegenerateVertexError,
    DomainError,
    InvalidParameterError,
    NumericError,
    SpectralDecomposition,
    affinity_matrix,
    diffusion_distance_matrix,
    eig_symmetric,
    graph_laplacian,
    newtonian_kernel,
    spectral_decomposition,
    write_matrix_csv,
)
from graphmetrize.cli import main
from graphmetrize.diffusion import _decomposition_lines, _diffusion_distance_row

from conftest import (
    metrizable_kernels,
    random_kernel,
    reference_coordinates,
    reference_diffusion_distance_matrix,
    tensor_diffusion_distances,
    traced_peak,
)


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


@pytest.mark.parametrize("matrix", (
    [[1.0, np.nan], [0.5, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, -np.inf]],
))
def test_eig_rejects_non_finite_entries(matrix):
    """A NaN above the diagonal passed the 1e-12 check, whose max was NaN, and eigh, reading the lower triangle, gave [0.5, 1.5]."""
    with pytest.raises(DomainError, match="finite"):
        eig_symmetric(np.array(matrix))


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
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            diffusion_distance_matrix(decomp, t)
        with pytest.raises(InvalidParameterError):
            _diffusion_distance_row(decomp, t, 0)


def test_diffusion_symmetric_zero_diagonal_triangle():
    """Exact symmetry rests on numpy forming coords @ coords.T as a mirrored triangle, so several n are tried."""
    rng = np.random.default_rng(21)
    for n in (2, 3, 14, 65, 200):
        kernel = random_kernel(rng, n)
        dt = diffusion_distance_matrix(spectral_decomposition(kernel), 0.05)
        assert np.array_equal(dt, dt.T)
        assert (np.diagonal(dt) == 0).all()
        for mid in range(min(n, 14)):
            slack = dt - (dt[:, mid][:, None] + dt[mid, :][None, :])
            assert slack.max() <= 1e-12


@seed(27)
@given(st.integers(2, 40), st.integers(0, 2**16), st.sampled_from((0.005, 1.0, 100.0)))
@settings(max_examples=60, deadline=None)
def test_diffusion_diagonal_is_exactly_zero_by_the_gram_identity(n, rng_seed, t):
    """|a|^2 + |a|^2 - 2 a.a is 2x - 2x on the diagonal, exact in floats: no distance of a vertex to itself is set after the fact."""
    decomp = spectral_decomposition(random_kernel(np.random.default_rng(rng_seed), n))
    assert (np.diagonal(diffusion_distance_matrix(decomp, t)) == 0).all()


def test_diffusion_matches_reference_bitwise(corpus):
    kernels = [newtonian_kernel(n, alpha, 2.0) for n in (2, 3, 60, 300) for alpha in (1.0, 0.7)]
    for kernel in [*kernels, *corpus[:20]]:
        decomp = spectral_decomposition(kernel)
        for t in (0.005, 0.5, 5.0, 100.0):
            assert np.array_equal(diffusion_distance_matrix(decomp, t), reference_diffusion_distance_matrix(decomp, t))


def row_loop_diffusion_distance_matrix(decomp, t):
    """diffusion_distance_matrix with the distances formed one row of the Gram buffer at a time, as before they were blocked."""
    coords = reference_coordinates(decomp, t)
    out = coords @ coords.T
    norms = np.diagonal(out).copy()
    for norm, row in zip(norms, out):
        np.subtract(norm + norms, 2.0 * row, out=row)
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    np.fill_diagonal(out, 0.0)
    return out


# Coverage only: no known defect.  At block settings 1 to 5 the distances take several row blocks.
@pytest.mark.parametrize("n", (2, 9, 25))
def test_small_tiles_diffusion_distances_match_the_row_loop(small_tiles, n):
    rng = np.random.default_rng(23)
    for kernel in (newtonian_kernel(n, 1.0), random_kernel(rng, n)):
        decomp = spectral_decomposition(kernel)
        for t in (0.005, 1.0, 100.0):
            blocked = diffusion_distance_matrix(decomp, t)
            assert np.array_equal(blocked, row_loop_diffusion_distance_matrix(decomp, t))
            assert np.array_equal(blocked, reference_diffusion_distance_matrix(decomp, t))


def test_diffusion_matches_tensor_oracle(corpus):
    for kernel in [newtonian_kernel(60, 1.0, 2.0), *corpus]:
        decomp = spectral_decomposition(kernel)
        for t in (0.005, 0.5, 5.0):
            dt = diffusion_distance_matrix(decomp, t)
            assert np.abs(dt - tensor_diffusion_distances(decomp, t)).max() <= 1e-12


@pytest.mark.parametrize("t", (0.005, 1.0, 5.0))
def test_distance_row_matches_the_matrix_row(corpus, t):
    """The center's row alone, as balls --metric D and compare --radius-d read it, agrees with the all-pairs matrix."""
    for kernel in corpus[:8] + [newtonian_kernel(60, 1.0), newtonian_kernel(200, 0.5)]:
        decomp = spectral_decomposition(kernel)
        matrix = diffusion_distance_matrix(decomp, t)
        for center in (0, kernel.n // 3, kernel.n - 1):
            row = _diffusion_distance_row(decomp, t, center)
            assert row[center] == 0.0
            assert np.abs(row - matrix[center]).max() <= 1e-12


@seed(24)
@example(newtonian_kernel(30, 1.0), 1e20)
@example(newtonian_kernel(2, 1.0), 1e300)
@given(st.integers(2, 30).flatmap(metrizable_kernels), st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e))
@settings(max_examples=150, deadline=None)
def test_diffusion_distances_stay_in_zero_two_at_any_time(kernel, t):
    """For t log-uniform in [1e-3, 1e300] every distance is finite and in [0, 2]: the scaled rows have norm at most 1.

    The examples' kernels have a top eigenvalue of round-off above 0,
    which overflowed exp before the spectrum was clamped.
    """
    decomp = spectral_decomposition(kernel)
    for distances in (diffusion_distance_matrix(decomp, t), _diffusion_distance_row(decomp, t, kernel.n // 2)):
        assert np.isfinite(distances).all()
        assert distances.min() >= 0.0 and distances.max() <= 2.0


def test_diffusion_distance_memory_is_quadratic():
    n = 300
    decomp = spectral_decomposition(newtonian_kernel(n, 1.0, 2.0))
    peak = traced_peak(diffusion_distance_matrix, decomp, 0.5)
    assert peak < 17 * n * n  # the coordinates and the Gram matrix, which becomes the output


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
    payload = json.loads("".join(_decomposition_lines(decomp)))
    assert sorted(payload) == ["eigenvalues", "eigenvectors"]
    assert np.array_equal(payload["eigenvalues"], decomp.eigenvalues)
    assert np.array_equal(payload["eigenvectors"], decomp.eigenvectors)


def reference_decomposition_json(decomp):
    """The eig.json text built whole: the payload as Python lists, dumped by json at indent 2."""
    payload = {"eigenvalues": decomp.eigenvalues.tolist(), "eigenvectors": decomp.eigenvectors.tolist()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_decomposition_json_matches_json_dumps(corpus):
    cases = [spectral_decomposition(newtonian_kernel(n, 1.0, 2.0)) for n in (2, 3, 60, 200)]
    cases += [spectral_decomposition(kernel) for kernel in corpus[:5]]
    cases += [eig_symmetric(np.zeros((0, 0))), eig_symmetric(np.ones((1, 1)))]
    odd = np.array([[1e-300, -0.0, np.inf], [np.nan, 5e-324, -1.5e300], [1.0, 2.0, 3.0]])
    cases.append(SpectralDecomposition(eigenvalues=np.array([np.nan, -np.inf, -0.0]), eigenvectors=odd))
    for decomp in cases:
        assert "".join(_decomposition_lines(decomp)) == reference_decomposition_json(decomp)


def test_diffusion_eig_output_memory_streams_the_text(tmp_path):
    """eig.json goes out a row at a time: no n**2 Python floats, and no whole text, beside the arrays."""
    n = 300
    kernel, eig = tmp_path / "k.csv", tmp_path / "eig.json"
    write_matrix_csv(newtonian_kernel(n, 1.0, 2.0).values, kernel)
    peak = traced_peak(main, ["diffusion", "-i", str(kernel), "-o", str(tmp_path / "dt.csv"), "--eig-output", str(eig)])
    assert eig.read_text() == reference_decomposition_json(spectral_decomposition(newtonian_kernel(n, 1.0, 2.0)))
    assert peak < 40 * n * n
