import json

import numpy as np
import pytest

import graphmetrize
from graphmetrize import (
    DomainError,
    InvalidParameterError,
    MatrixFormatError,
    SymmetryError,
    affinity_matrix,
    load_affinity,
    newtonian_kernel,
    read_matrix_csv,
    save_affinity,
    validate_kernel,
    write_matrix_csv,
)


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
    p.write_text("1,2\n3\n")
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


def test_json_round_trip(tmp_path):
    k = newtonian_kernel(6, 1.0, 2.0)
    p = tmp_path / "k.json"
    save_affinity(k, p)
    payload = json.loads(p.read_text())
    assert payload["n"] == 6
    back = load_affinity(p)
    assert np.array_equal(back.values, k.values)


def test_json_rejects_mismatched_n(tmp_path):
    p = tmp_path / "k.json"
    p.write_text(json.dumps({"n": 3, "values": [[2, 1], [1, 2]]}))
    with pytest.raises(MatrixFormatError):
        load_affinity(p)


def test_unknown_format_rejected(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("2,1\n1,2\n")
    with pytest.raises(InvalidParameterError):
        load_affinity(p, fmt="parquet")


def test_matrix_csv_preserves_awkward_floats(tmp_path):
    vals = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.1 + 0.2]])
    p = tmp_path / "m.csv"
    write_matrix_csv(vals, p)
    assert np.array_equal(read_matrix_csv(p), vals)


def test_values_are_immutable():
    k = newtonian_kernel(4, 1.0)
    with pytest.raises(ValueError):
        k.values[0, 0] = 5.0
