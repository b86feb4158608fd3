import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import graphmetrize
from graphmetrize import (
    AffinityMatrix,
    DomainError,
    InvalidParameterError,
    MatrixFormatError,
    SymmetryError,
    affinity_matrix,
    chain_metric,
    compute_lambda_sequence,
    delta_matrix,
    diffusion_distance_matrix,
    load_affinity,
    newtonian_kernel,
    read_matrix_csv,
    save_affinity,
    spectral_decomposition,
    validate_kernel,
    write_matrix_csv,
)
from graphmetrize.kernels import _symmetric

from conftest import reference_write_matrix_csv, traced_peak


def test_public_names_resolve():
    assert len(set(graphmetrize.__all__)) == len(graphmetrize.__all__)
    for name in graphmetrize.__all__:
        assert getattr(graphmetrize, name) is not None, name


def test_newtonian_4x4_values():
    k = newtonian_kernel(4, 1.0, 2.0)
    assert k.values[0, 1] == 1.0
    assert k.values[0, 2] == 0.5
    assert k.values[0, 3] == 1.0 / 3.0
    assert k.values[0, 0] == 2.0


def test_newtonian_unit_gap_is_one_for_any_alpha():
    k = newtonian_kernel(2, 5.0, 2.0)
    assert k.values[0, 1] == 1.0


def test_newtonian_60_min_entry():
    k = newtonian_kernel(60, 1.0, 2.0)
    assert k.values.min() == 59.0 ** -1.0
    assert abs(k.values.min() - 0.0169492) < 5e-8


@pytest.mark.parametrize("n,alpha", [(4, 1.0), (7, 0.5), (12, 2.0), (60, 1.0)])
def test_newtonian_symmetric_positive_min(n, alpha):
    k = newtonian_kernel(n, alpha, 2.0)
    assert np.array_equal(k.values, k.values.T)
    assert (k.values > 0).all()
    assert k.values.min() == (n - 1.0) ** -alpha


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_newtonian_rejects_small_n(bad):
    with pytest.raises(InvalidParameterError):
        newtonian_kernel(bad, 1.0)


def test_newtonian_rejects_bad_alpha_and_diag():
    with pytest.raises(InvalidParameterError):
        newtonian_kernel(4, 0.0)
    with pytest.raises(InvalidParameterError):
        newtonian_kernel(4, 1.0, 0.5)


def test_validate_newtonian_flags_and_min():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    report = validate_kernel(kernel)
    assert report.symmetric and report.diag_dominant and report.tridiagonal_positive
    assert kernel.values.min() == 1.0 / 3.0
    assert kernel.values.max() == 2.0
    assert report.failed_flags() == []


def test_validate_identity_pattern_fails_tridiagonal():
    report = validate_kernel(affinity_matrix([[1.0, 0.0], [0.0, 1.0]]))
    assert not report.tridiagonal_positive
    assert report.failed_flags() == ["tridiagonal_positive"]


def test_validate_weak_diagonal_fails_dominance():
    report = validate_kernel(affinity_matrix([[0.5, 1.0], [1.0, 2.0]]))
    assert not report.diag_dominant


@pytest.mark.parametrize("n,alpha,diag", [(5, 1.0, 2.0), (9, 0.7, 1.5), (20, 2.0, 1.1)])
def test_validate_newtonian_all_flags_whenever_diag_above_one(n, alpha, diag):
    kernel = newtonian_kernel(n, alpha, diag)
    assert validate_kernel(kernel).failed_flags() == []
    assert (kernel.values > 0).all()


def test_load_minimal_csv(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("2,1\n1,2\n")
    k = load_affinity(p)
    assert k.n == 2
    assert k.values[0, 1] == 1.0


def test_load_rejects_asymmetric(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("1,2\n3,4\n")
    with pytest.raises(SymmetryError):
        load_affinity(p)


def test_load_rejects_non_square(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(MatrixFormatError):
        load_affinity(p)


def test_load_rejects_ragged(tmp_path):
    p = tmp_path / "k.csv"
    # In the second, the first four cells alone would fill a 2 x 2 matrix.
    for text in ("1,2\n3\n", "2,1\n1,2,5\n"):
        p.write_text(text)
        with pytest.raises(MatrixFormatError):
            load_affinity(p)


def test_load_rejects_non_numeric(tmp_path):
    p = tmp_path / "k.csv"
    # "#" is a cell, not a comment; an empty or blank-only file has no rows.
    for text in ("1,x\ny,1\n", "1,#\n#,1\n", "2,1 # note\n1,2\n", "", "\n\n", "  \n"):
        p.write_text(text)
        with pytest.raises(MatrixFormatError):
            load_affinity(p)


def test_load_rejects_negative(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("1,-1\n-1,1\n")
    with pytest.raises(DomainError):
        load_affinity(p)


def test_affinity_rejects_single_vertex():
    with pytest.raises(InvalidParameterError):
        affinity_matrix([[1.0]])


def test_affinity_rejects_non_finite():
    with pytest.raises(DomainError):
        affinity_matrix([[1.0, np.inf], [np.inf, 1.0]])


INVALID_KERNELS = {
    "nan": ([[1.0, np.nan], [np.nan, 1.0]], DomainError, "finite"),
    "inf": ([[1.0, np.inf], [np.inf, 1.0]], DomainError, "finite"),
    "-inf": ([[-np.inf, 1.0], [1.0, 1.0]], DomainError, "finite"),
    "negative": ([[1.0, -0.5], [-0.5, 1.0]], DomainError, r"negative affinity at \(0, 1\)"),
    "asymmetric": ([[1.0, 2.0], [3.0, 1.0]], SymmetryError, r"\(0, 1\): 2\.0 != 3\.0"),
    "non-square": ([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]], MatrixFormatError, "square"),
    "one vertex": ([[1.0]], InvalidParameterError, "2 vertices"),
}


def build_kernel(path: str, rows, directory):
    """The kernel from rows through one of the construction paths."""
    if path == "load_affinity":
        csv = Path(directory) / "k.csv"
        write_matrix_csv(np.array(rows), csv)
        return load_affinity(csv)
    if path == "AffinityMatrix":
        return AffinityMatrix(np.array(rows))
    return affinity_matrix(rows)


@pytest.mark.parametrize("path", ("affinity_matrix", "load_affinity", "AffinityMatrix"))
@pytest.mark.parametrize("case", INVALID_KERNELS)
def test_every_construction_path_rejects_an_invalid_kernel(tmp_path, path, case):
    rows, error, message = INVALID_KERNELS[case]
    with pytest.raises(error, match=message):
        build_kernel(path, rows, tmp_path)


@pytest.mark.parametrize("alpha,diag,error", [
    (np.nan, 2.0, InvalidParameterError),
    (-1.0, 2.0, InvalidParameterError),
    (1.0, np.nan, InvalidParameterError),
    (1.0, -np.inf, InvalidParameterError),
    (1.0, np.inf, DomainError),
])
def test_newtonian_kernel_rejects_non_finite_parameters(alpha, diag, error):
    with pytest.raises(error):
        newtonian_kernel(4, alpha, diag)


def test_newtonian_kernel_with_infinite_alpha_is_the_tridiagonal():
    values = newtonian_kernel(5, np.inf).values
    assert np.array_equal(values, 2.0 * np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1))


def test_asymmetry_is_named_at_its_first_entry_in_a_later_row():
    vals = newtonian_kernel(300, 1.0).values.copy()
    vals[250, 200] = 7.0
    with pytest.raises(SymmetryError, match=r"\(200, 250\): 0\.02 != 7\.0"):
        AffinityMatrix(vals)


# Both zeros, two subnormals, and pairs whose difference is exactly a tolerance below (0.5 - 0.0, 1e-12 - 0.0).
SYMMETRY_CELLS = (0.0, -0.0, 5e-324, 2.5e-308, 1e-12, 0.5, 1.0)


@seed(27)
@given(st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_small_tiles_symmetry_check_matches_the_whole_transpose_property(small_tiles, data):
    """_symmetric agrees with np.array_equal(a, a.T) and with np.abs(a - a.T).max() <= tol.

    n is one below, at or one past a tile boundary, or any size up to 25
    (up to 25 tiles a side).  A symmetric array of pooled cells then has up
    to three entries replaced anywhere: in the first or the last tile
    column, inside a diagonal tile or elsewhere.
    """
    width = max(1, small_tiles // 2)
    n = data.draw(st.sampled_from([m for m in (width - 1, width, width + 1) if m]) | st.integers(1, 25))
    cells = st.sampled_from(SYMMETRY_CELLS)
    a = np.array(data.draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
    a = np.where(np.tri(n, dtype=bool), a.T, a)  # mirrored bit for bit, -0.0 included
    for _ in range(data.draw(st.integers(0, 3))):
        a[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = data.draw(cells)
    assert _symmetric(a) == np.array_equal(a, a.T)
    for tol in (0.0, 1e-12, 0.5):
        assert _symmetric(a, tol) == (np.abs(a - a.T).max() <= tol)
    a[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = np.nan
    assert not _symmetric(a, 1.0)


@pytest.mark.parametrize("n", (63, 64, 65, 200))
@pytest.mark.parametrize("where", ("first tile column", "last tile column", "diagonal tile"))
def test_symmetry_check_finds_one_entry_off_its_mirror(n, where):
    """At the default block (tiles 64 wide) one entry moved by the least step is found, and passes within 1e-12."""
    vals = newtonian_kernel(n, 1.0).values.copy()
    assert _symmetric(vals)
    i, j = {"first tile column": (0, min(n, 64) - 1), "last tile column": (0, (n - 1) // 64 * 64 or n - 1),
            "diagonal tile": (33, 32)}[where]
    vals[i, j] = np.nextafter(vals[i, j], np.inf)
    assert not _symmetric(vals) and not _symmetric(vals.T)
    assert _symmetric(vals, 1e-12)


def test_affinity_matrix_constructor_checks_and_freezes_its_array():
    arr = newtonian_kernel(5, 1.0).values.copy()
    k = AffinityMatrix(arr)
    assert k.n == 5 and k.values is arr and not arr.flags.writeable
    for raw in ([[2.0, 1.0], [1.0, 2.0]], np.array([[2, 1], [1, 2]]), np.ones((2, 2), dtype=np.float32)):
        with pytest.raises(MatrixFormatError, match="float64"):
            AffinityMatrix(raw)


def test_affinity_matrix_copies_its_input():
    arr = newtonian_kernel(5, 1.0).values.copy()
    k = affinity_matrix(arr)
    assert arr.flags.writeable
    assert not np.shares_memory(k.values, arr)
    assert not k.values.flags.writeable
    arr[0, 1] = arr[1, 0] = 7.0
    assert k.values[0, 1] == 1.0


def test_load_and_newtonian_hold_the_kernel_once(tmp_path):
    n = 300
    p = tmp_path / "k.csv"
    save_affinity(newtonian_kernel(n, 1.0), p)
    assert traced_peak(load_affinity, p) < 11 * n * n
    assert traced_peak(newtonian_kernel, n, 1.0) < 9 * n * n


def test_csv_round_trip_bit_exact(tmp_path):
    k = newtonian_kernel(17, 0.7, 2.0)
    p = tmp_path / "k.csv"
    save_affinity(k, p)
    back = load_affinity(p)
    assert np.array_equal(back.values, k.values)
    # Random bit patterns cover the whole float64 range; compare the bits so -0.0 != 0.0.
    bits = np.random.default_rng(5).integers(0, 2**64, size=(40, 40), dtype=np.uint64)
    vals = bits.view(np.float64)
    vals[~np.isfinite(vals)] = 1.0
    vals[0, :4] = [5e-324, np.finfo(np.float64).max, 0.0, -0.0]
    m = tmp_path / "m.csv"
    write_matrix_csv(vals, m)
    assert np.array_equal(read_matrix_csv(m).view(np.uint64), vals.view(np.uint64))


def test_matrix_csv_write_memory_is_row_sized(tmp_path):
    n = 300
    vals = np.random.default_rng(3).random((n, n))
    p = tmp_path / "m.csv"
    peak = traced_peak(write_matrix_csv, vals, p)
    assert peak < n * n
    assert np.array_equal(read_matrix_csv(p), vals)


def test_matrix_csv_write_memory_is_row_sized_with_repeated_values(tmp_path):
    n = 300
    kernel = newtonian_kernel(n, 1.0)  # n distinct values: the cache fills and stays in use
    p = tmp_path / "m.csv"
    peak = traced_peak(write_matrix_csv, kernel.values, p)
    assert peak < n * n
    assert np.array_equal(read_matrix_csv(p), kernel.values)


@pytest.mark.parametrize("distinct", (False, True))
def test_matrix_csv_read_memory_and_fallback(tmp_path, monkeypatch, distinct):
    n = 300
    # The kernel repeats n values and is read through the cache; all-distinct values go to np.loadtxt.
    vals = np.random.default_rng(4).random((n, n)) if distinct else newtonian_kernel(n, 1.0).values
    p = tmp_path / "m.csv"
    write_matrix_csv(vals, p)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(args) or loadtxt(*args, **kwargs))
    peak = traced_peak(read_matrix_csv, p)
    assert len(calls) == distinct
    assert peak <= 10 * n * n
    assert np.array_equal(read_matrix_csv(p), vals)


def test_matrix_csv_read_wide_row_allocates_no_square(tmp_path):
    # One row of 5000 cells is too short a file for a 5000 x 5000 table (200 MB): only the row is parsed.
    vals = np.arange(5000.0)[None, :]
    p = tmp_path / "m.csv"
    write_matrix_csv(vals, p)
    assert traced_peak(read_matrix_csv, p) < 2**20
    assert np.array_equal(read_matrix_csv(p), vals)


def test_matrix_csv_read_rejects_underscore_cells(tmp_path):
    # float() reads "1_0" as 10.0; np.loadtxt, and so the reader, rejects it.
    p = tmp_path / "m.csv"
    p.write_text("2.0,1_0\n1_0,2.0\n")
    with pytest.raises(MatrixFormatError):
        read_matrix_csv(p)


def assert_csv_bytes_match_reference(values, directory):
    ours, ref = Path(directory) / "ours.csv", Path(directory) / "ref.csv"
    write_matrix_csv(values, ours)
    reference_write_matrix_csv(values, ref)
    assert ours.read_bytes() == ref.read_bytes()


@pytest.fixture(scope="module")
def written_matrices():
    """The n = 800 pipeline matrices, which repeat few values, and two whose values are nearly all distinct."""
    kernel = newtonian_kernel(800, 1.0)
    seq = compute_lambda_sequence(kernel)
    upper = np.triu(np.random.default_rng(8).random((300, 300)), 1)
    return {
        "kernel": kernel.values,
        "delta": delta_matrix(kernel, seq).values,
        "chain": chain_metric(kernel, seq).values,
        "diffusion": diffusion_distance_matrix(spectral_decomposition(newtonian_kernel(200, 1.0)), 1.0),
        "random": upper + upper.T,
    }


@pytest.mark.parametrize("name", ("kernel", "delta", "chain", "diffusion", "random"))
def test_matrix_csv_bytes_match_reference(written_matrices, name, tmp_path):
    assert_csv_bytes_match_reference(written_matrices[name], tmp_path)


def test_matrix_csv_signed_zeros_and_special_floats(tmp_path):
    # Zeros of both signs in both orders among repeated values: a cached 0.0 would print -0.0 as 0.0.
    vals = np.array([
        [0.0, -0.0, 1.5, 1.5, 0.0, -0.0, 1.5, 0.25],
        [-0.0, 0.0, 1.5, -0.0, 1.5, 0.0, 0.25, 0.25],
        [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 5e-324, np.inf, -np.inf, np.inf, -np.inf],
        [np.nan, -np.nan, np.nan, 1.5, 0.0, -0.0, np.nan, 1.5],
    ])
    assert_csv_bytes_match_reference(vals, tmp_path)
    lines = (tmp_path / "ours.csv").read_text().splitlines()
    assert lines[0] == "0.0,-0.0,1.5,1.5,0.0,-0.0,1.5,0.25"
    assert lines[1] == "-0.0,0.0,1.5,-0.0,1.5,0.0,0.25,0.25"


CSV_VALUE_POOL = (0.0, -0.0, 1.0, 0.5, -1.0 / 3.0, 2.0**-60, 5e-324, np.inf, -np.inf, np.nan)


@seed(8)
@given(st.integers(1, 12).flatmap(
    lambda cols: st.lists(st.lists(st.sampled_from(CSV_VALUE_POOL), min_size=cols, max_size=cols),
                          min_size=1, max_size=8)))
@settings(max_examples=300, deadline=None)
def test_matrix_csv_bytes_match_reference_property(rows):
    with tempfile.TemporaryDirectory() as directory:
        assert_csv_bytes_match_reference(np.array(rows), directory)


@st.composite
def mangled_csv_texts(draw):
    """write_matrix_csv output with LF, CRLF or CR line ends, blank lines and spaces around cells mixed in."""
    rows = draw(st.integers(1, 7))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 7))
    pool = st.sampled_from(CSV_VALUE_POOL) | st.floats(allow_nan=False, allow_infinity=False)
    vals = np.array(draw(st.lists(pool, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        write_matrix_csv(vals, path)
        lines = path.read_text().splitlines()
    if draw(st.booleans()):
        lines = [",".join(f" {cell}  " for cell in line.split(",")) for line in lines]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, draw(st.sampled_from(("", " ", "\r"))))
    # A lone "\r" ends a line for np.loadtxt, while float() takes it for a space.
    ends = st.sampled_from(("\n", "\r\n", "\r"))
    return "".join(line + draw(ends) for line in lines[:-1]) + lines[-1] + draw(ends | st.just(""))


@seed(9)
@given(mangled_csv_texts())
@settings(max_examples=300, deadline=None)
def test_matrix_csv_read_matches_loadtxt_property(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        path.write_bytes(text.encode())
        try:
            expected = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            with pytest.raises(MatrixFormatError):
                read_matrix_csv(path)
            return
        got = read_matrix_csv(path)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_json_kernel_file_raises_matrix_format_error(tmp_path):
    p = tmp_path / "k.json"
    for payload in ({"n": 3, "values": [[2, 1], [1, 2]]}, {"n": 2, "values": 5},
                    {"n": 2, "values": [[2, 1], [1]]}, {"values": 5}):
        p.write_text(json.dumps(payload))
        with pytest.raises(MatrixFormatError):
            load_affinity(p)


def test_matrix_csv_preserves_awkward_floats(tmp_path):
    vals = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.1 + 0.2]])
    p = tmp_path / "m.csv"
    write_matrix_csv(vals, p)
    assert np.array_equal(read_matrix_csv(p), vals)


def test_values_are_immutable():
    k = newtonian_kernel(4, 1.0)
    with pytest.raises(ValueError):
        k.values[0, 0] = 5.0
