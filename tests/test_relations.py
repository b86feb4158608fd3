import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphmetrize import (
    InvalidParameterError,
    compose,
    is_subset,
    level_set,
    newtonian_kernel,
    power3,
    relation_from_bits,
)

from conftest import brute_compose, brute_power3


def tridiagonal_bits(n):
    gaps = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return gaps <= 1


def square_bits(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: hnp.arrays(np.bool_, (n, n))
    )


def square_bits_pair(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(hnp.arrays(np.bool_, (n, n)), hnp.arrays(np.bool_, (n, n)))
    )


def square_bits_triple(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.bool_, (n, n)),
            hnp.arrays(np.bool_, (n, n)),
            hnp.arrays(np.bool_, (n, n)),
        )
    )


def test_level_set_tridiagonal_at_one():
    k = newtonian_kernel(4, 1.0, 2.0)
    rel = level_set(k, 1.0)
    assert np.array_equal(rel.bits, tridiagonal_bits(4))


@seed(1)
@given(square_bits_pair(20))
@settings(max_examples=60, deadline=None)
def test_compose_matches_brute_force(pair):
    u, v = pair
    got = compose(relation_from_bits(u), relation_from_bits(v))
    assert np.array_equal(got.bits, brute_compose(u, v))


@seed(1)
@given(square_bits_triple(12))
@settings(max_examples=40, deadline=None)
def test_compose_associative(triple):
    u, v, w = (relation_from_bits(b) for b in triple)
    left = compose(compose(u, v), w)
    right = compose(u, compose(v, w))
    assert np.array_equal(left.bits, right.bits)


@seed(1)
@given(square_bits_pair(15), square_bits_pair(15))
@settings(max_examples=40, deadline=None)
def test_compose_monotone(pair_a, pair_b):
    (a, b), (c, d) = pair_a, pair_b
    n = min(len(a), len(c))
    big_u, big_v = relation_from_bits(a[:n, :n]), relation_from_bits(c[:n, :n])
    small_u = relation_from_bits(a[:n, :n] & b[:n, :n])
    small_v = relation_from_bits(c[:n, :n] & d[:n, :n])
    assert is_subset(compose(small_u, small_v), compose(big_u, big_v))


def test_compose_identity_and_empty():
    rng = np.random.default_rng(7)
    v = relation_from_bits(rng.random((6, 6)) < 0.4)
    identity = relation_from_bits(np.eye(6, dtype=bool))
    assert np.array_equal(compose(identity, v).bits, v.bits)
    assert np.array_equal(compose(v, identity).bits, v.bits)
    assert not compose(relation_from_bits(np.zeros((6, 6), dtype=bool)), v).bits.any()


def test_compose_rejects_size_mismatch():
    with pytest.raises(InvalidParameterError):
        compose(relation_from_bits(np.eye(3, dtype=bool)), relation_from_bits(np.eye(4, dtype=bool)))


def test_tridiagonal_compose_widens_band():
    tri = relation_from_bits(tridiagonal_bits(4))
    got = compose(tri, tri)
    gaps = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :])
    assert np.array_equal(got.bits, gaps <= 2)


def test_power3_examples():
    assert power3(relation_from_bits(tridiagonal_bits(4))).bits.all()
    got = power3(relation_from_bits(tridiagonal_bits(8)))
    gaps = np.abs(np.arange(8)[:, None] - np.arange(8)[None, :])
    assert np.array_equal(got.bits, gaps <= 3)
    assert np.array_equal(got.bits, brute_power3(tridiagonal_bits(8)))
    ident = relation_from_bits(np.eye(5, dtype=bool))
    assert np.array_equal(power3(ident).bits, ident.bits)


@seed(1)
@given(square_bits(15))
@settings(max_examples=40, deadline=None)
def test_symmetric_reflexive_relations_grow_under_power3(bits):
    sym = bits | bits.T | np.eye(len(bits), dtype=bool)
    rel = relation_from_bits(sym)
    assert np.array_equal(rel.bits, rel.bits.T)
    assert is_subset(rel, power3(rel))


def test_relation_bits_immutable():
    rel = relation_from_bits(np.eye(3, dtype=bool))
    with pytest.raises(ValueError):
        rel.bits[0, 1] = True
