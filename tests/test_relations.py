import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphmetrize import (
    InvalidParameterError,
    compute_lambda_sequence,
    is_subset,
    level_relations,
    newtonian_kernel,
    power3,
)

from conftest import brute_power3


def tridiagonal_bits(n):
    gaps = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return gaps <= 1


def square_bits(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: hnp.arrays(np.bool_, (n, n))
    )


def test_level_set_tridiagonal_at_one():
    k = newtonian_kernel(4, 1.0, 2.0)
    levels = level_relations(k, compute_lambda_sequence(k))
    assert np.array_equal(levels[-1], tridiagonal_bits(4))
    assert not any(level.flags.writeable for level in levels)


@seed(1)
@given(square_bits(20))
@settings(max_examples=60, deadline=None)
def test_power3_matches_brute_force(bits):
    got = power3(bits)
    assert got.dtype == bool
    assert np.array_equal(got, brute_power3(bits))


def test_is_subset_rejects_shape_mismatch():
    with pytest.raises(InvalidParameterError):
        is_subset(np.eye(3, dtype=bool), np.eye(4, dtype=bool))


def test_tridiagonal_compose_widens_band():
    got = power3(tridiagonal_bits(8))
    gaps = np.abs(np.arange(8)[:, None] - np.arange(8)[None, :])
    assert np.array_equal(got, gaps <= 3)


def test_power3_examples():
    assert power3(tridiagonal_bits(4)).all()
    assert np.array_equal(power3(tridiagonal_bits(8)), brute_power3(tridiagonal_bits(8)))
    ident = np.eye(5, dtype=bool)
    assert np.array_equal(power3(ident), ident)
    assert not power3(np.zeros((5, 5), dtype=bool)).any()


@seed(1)
@given(square_bits(15))
@settings(max_examples=40, deadline=None)
def test_symmetric_reflexive_relations_grow_under_power3(bits):
    sym = bits | bits.T | np.eye(len(bits), dtype=bool)
    cube = power3(sym)
    assert np.array_equal(cube, cube.T)
    assert is_subset(sym, cube)


def test_relation_bits_immutable():
    k = newtonian_kernel(6, 1.0, 2.0)
    for bits in level_relations(k, compute_lambda_sequence(k)):
        assert bits.dtype == bool
        with pytest.raises(ValueError):
            bits[0, 1] = True
