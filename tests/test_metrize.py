import dataclasses
import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphmetrize import (
    DomainError,
    InvalidParameterError,
    LambdaSequence,
    MatrixFormatError,
    NonMetrizableError,
    PseudoMetricMatrix,
    QuasiMetricMatrix,
    affinity_matrix,
    chain_metric,
    compute_lambda_sequence,
    delta_matrix,
    lambda_from_json,
    lambda_to_json,
    level_nesting,
    level_relations,
    newtonian_kernel,
    quasi_triangle_constant,
    verify_equivalence,
    verify_metrization,
    verify_sandwich,
)
from graphmetrize import metrize
from graphmetrize.metrize import _band_min, _chain_rows, _closure, _delta_rows, _inverse_indices, _Products, _sweep_step

from conftest import (
    brute_equivalence,
    brute_power3,
    brute_quasi_triangle_constant,
    exact_chain_metric,
    exhaustive_chain_metric,
    metrizable_kernels,
    middle_vertex_quasi_triangle_constant,
    random_kernel,
    rank_transform,
    reference_chain_weights,
    reference_joined,
    reference_quasi_triangle_constant,
    reference_sandwich,
    reference_sweep_step,
    scipy_chain_metric,
    traced_peak,
)


def test_lambda_newtonian_4():
    seq = compute_lambda_sequence(newtonian_kernel(4, 1.0, 2.0))
    assert seq.values.tolist() == [1.0 / 3.0, 1.0]
    assert seq.k == 1
    assert seq.values[-1] == 1.0
    assert seq.iterations == 1


def test_lambda_newtonian_60_reproduces_caption():
    seq = compute_lambda_sequence(newtonian_kernel(60, 1.0, 2.0))
    expected = [1.0 / 59.0, 1.0 / 27.0, 1.0 / 9.0, 1.0 / 3.0, 1.0]
    assert seq.values.size == 5
    assert np.allclose(seq.values, expected, rtol=0, atol=1e-12)


def test_lambda_single_level_2x2():
    seq = compute_lambda_sequence(affinity_matrix([[2.0, 1.0], [1.0, 2.0]]))
    assert seq.values.tolist() == [1.0]
    assert seq.iterations == 1


def test_lambda_values_are_harvested_and_ascending(corpus):
    for kernel in corpus[:15]:
        seq = compute_lambda_sequence(kernel)
        assert (np.diff(seq.values) > 0).all()
        entries = set(kernel.values.ravel().tolist())
        assert all(float(v) in entries for v in seq.values)
        assert float(seq.values[0]) == float(kernel.values.min())


def test_lambda_triple_composition_nesting_brute_force():
    for n in (4, 8, 13):
        kernel = newtonian_kernel(n, 1.0, 2.0)
        seq = compute_lambda_sequence(kernel)
        levels = [kernel.values >= t for t in seq.values]
        for i in range(1, seq.k + 1):
            cube = brute_power3(levels[i])
            assert (levels[i - 1] | ~cube).all()
        assert level_nesting(kernel, seq)
    # {K >= 1} is the tridiagonal, whose cube reaches |i - j| = 3 with K = 1/3 < 1/2.
    kernel = newtonian_kernel(10, 1.0, 2.0)
    broken = LambdaSequence(values=np.array([1 / 9, 1 / 2, 1.0]), iterations=0)
    assert not (kernel.values >= 1 / 2)[brute_power3(kernel.values >= 1.0)].all()
    assert not level_nesting(kernel, broken)
    # {K >= 3} is empty above the diagonal of 2, and so is its cube: nesting holds there vacuously.
    above = LambdaSequence(values=np.array([1 / 9, 1.0, 3.0]), iterations=0)
    assert not brute_power3(kernel.values >= 3.0).any()
    assert level_nesting(kernel, above)


def assert_nests_by_construction(kernel, seq):
    """lambda(i - 1) is the sweep's step from lambda(i) at every level, so level_nesting holds."""
    products = _Products(kernel.n)
    floor = kernel.values.min()
    assert [_sweep_step(kernel, t, products, floor) for t in seq.values[1:]] == seq.values[:-1].tolist()
    assert level_nesting(kernel, seq)


@seed(8)
@given(
    st.integers(2, 10).flatmap(metrizable_kernels),
    st.sampled_from((3, 5)),
    st.none() | st.sampled_from((1.0, 0.5)) | st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_swept_sequence_nests_by_construction_property(kernel, band, fraction):
    # verify reports a swept sequence's nesting without cubing its level sets again.
    band_min = _band_min(kernel, (band - 1) // 2)
    override = None if fraction is None or band_min == 0 else band_min * fraction
    assert_nests_by_construction(kernel, compute_lambda_sequence(kernel, band, override))


@seed(8)
@given(st.integers(2, 12).flatmap(metrizable_kernels), st.sampled_from((3, 5)))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_small_tiles_sweep_and_nesting_match_reference_property(small_tiles, kernel, band):
    """In tiles 1 to 5 wide the sweep steps as the untiled reference does, and level_nesting agrees with it."""
    seq = compute_lambda_sequence(kernel, band)
    assert_nests_by_construction(kernel, seq)
    assert_sweep_matches_reference(kernel, seq)


def test_swept_sequence_nests_by_construction_on_corpus(corpus_pipeline):
    for kernel, seq, _, _ in corpus_pipeline:
        assert_nests_by_construction(kernel, seq)


def assert_sharp_bounds(kernel, seq):
    """The metrization lemma's bounds for a nested sequence, far inside the paper's [1/8, 2] and 8.

    d <= delta since the chain's one-step weight is delta, and d >= delta / 2
    by the chain inequality.  Two hops in U(i) join a pair of
    U(i) o U(i) o U(i), inside U(i - 1), so delta(x, z) <= 2 * max(delta(x, y),
    delta(y, z)) and the constant is at most 2.
    """
    sandwich, equivalence, constant = verify_metrization(kernel, seq)
    assert 0.5 <= equivalence.c_lo and equivalence.c_hi <= 1.0
    assert constant <= 2.0
    assert sandwich.tightest_shift is None or sandwich.tightest_shift >= -1


@seed(14)
@given(
    st.integers(2, 10).flatmap(metrizable_kernels),
    st.sampled_from((3, 5)),
    st.none() | st.sampled_from((1.0, 0.5)) | st.floats(0.01, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_sharp_bounds_hold_for_swept_sequences_property(kernel, band, fraction):
    """Swept from the band minimum, or from a lambda0 seed below it."""
    band_min = _band_min(kernel, (band - 1) // 2)
    override = None if fraction is None or band_min == 0 else band_min * fraction
    assert_sharp_bounds(kernel, compute_lambda_sequence(kernel, band, override))


def test_sharp_bounds_hold_on_corpus(corpus_pipeline):
    for kernel, seq, _, _ in corpus_pipeline:
        assert_sharp_bounds(kernel, seq)


def test_strict_form_restatement():
    # {K >= lambda(i)} equals {K > v'} where v' is the largest distinct
    # kernel value below lambda(i), so the strict and non-strict forms
    # describe the same nested sets.
    kernel = newtonian_kernel(9, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    distinct = np.unique(kernel.values)
    levels = level_relations(kernel, seq)
    for i in range(1, seq.k + 1):
        below = distinct[distinct < seq.values[i]]
        assert below.size
        assert np.array_equal(levels[i], kernel.values > below[-1])


def test_lambda_rejects_bad_kernels():
    with pytest.raises(NonMetrizableError, match="tridiagonal_positive"):
        compute_lambda_sequence(affinity_matrix([[2.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(NonMetrizableError, match="diag_dominant"):
        compute_lambda_sequence(affinity_matrix([[0.5, 1.0], [1.0, 2.0]]))


def test_lambda_band_and_override_options():
    kernel = newtonian_kernel(10, 1.0, 2.0)
    five = compute_lambda_sequence(kernel, diagonal_band=5)
    assert five.values[-1] == 0.5
    with pytest.raises(InvalidParameterError):
        compute_lambda_sequence(kernel, diagonal_band=4)
    override = compute_lambda_sequence(kernel, lambda0_override=0.5)
    assert override.values[-1] == 0.5
    with pytest.raises(InvalidParameterError):
        compute_lambda_sequence(kernel, lambda0_override=1.5)
    with pytest.raises(InvalidParameterError):
        compute_lambda_sequence(kernel, lambda0_override=0.0)


def test_lambda_inverse_script_examples():
    seq = compute_lambda_sequence(newtonian_kernel(4, 1.0, 2.0))
    t = np.array([1.0, 0.5, 0.1, 7.0])
    assert _inverse_indices(seq.values, t).tolist() == [2, 1, 0, 2]


def searchsorted_inverse(values, t, variant):
    """A level index from one np.searchsorted call over all of t, in intp.

    script is #{j : lambda(j) <= t}.  upper and lower are paper-style
    conventions: upper is the strict count #{j : lambda(j) < t} clamped
    to 0 .. k, and lower is that count less one, clamped to 0 .. k - 1.
    """
    k = values.size - 1
    if variant == "script":
        return np.searchsorted(values, t, side="right")
    left = np.searchsorted(values, t, side="left")
    return np.minimum(left, k) if variant == "upper" else np.clip(left - 1, 0, max(k - 1, 0))


@seed(7)
@given(
    st.sets(st.integers(0, 12), min_size=1, max_size=13),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9),
               elements=st.integers(-1, 13).map(lambda x: x / 4.0)),
)
@settings(max_examples=300, deadline=None)
def test_inverse_indices_match_searchsorted_property(grid, t):
    # Thresholds and entries share a grid of quarters, so ties are common.
    values = np.array(sorted(grid)) / 4.0
    got = _inverse_indices(values, t)
    assert got.dtype == np.int8
    assert np.array_equal(got, searchsorted_inverse(values, t, "script"))
    assert got.shape == t.shape


@pytest.mark.parametrize("size, dtype", ((126, np.int8), (127, np.int16)))
def test_inverse_indices_widen_past_int8(size, dtype):
    # k + 2 = 127 is the last that int8 holds.
    rng = np.random.default_rng(size)
    values = np.sort(rng.choice(1000, size, replace=False)) / 1000.0
    t = rng.integers(-1, 1001, (100, 100)) / 1000.0
    got = _inverse_indices(values, t)
    assert got.dtype == dtype
    assert np.array_equal(got, searchsorted_inverse(values, t, "script"))
    assert got.max() == size  # t reaches past the top threshold


def test_delta_4x4_script_values():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    dm = delta_matrix(kernel, seq)
    assert dm.values[0, 1] == 0.25
    assert dm.values[0, 2] == 0.5
    assert dm.values[0, 3] == 0.5
    assert (np.diagonal(dm.values) == 0).all()
    assert np.array_equal(dm.values, dm.values.T)
    assert not dm.values.flags.writeable


def test_delta_offdiagonal_values_are_dyadic(corpus):
    for kernel in corpus[:10]:
        seq = compute_lambda_sequence(kernel)
        dm = delta_matrix(kernel, seq)
        off = dm.values[~np.eye(kernel.n, dtype=bool)]
        exponents = -np.log2(off)
        assert np.array_equal(exponents, np.round(exponents))
        assert off.min() >= 2.0 ** -(seq.k + 1)
        assert off.max() <= 0.5


def test_delta_monotone_in_affinity():
    kernel = newtonian_kernel(8, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    dm = delta_matrix(kernel, seq)
    flat_k = kernel.values.ravel()
    flat_d = dm.values.ravel()
    off = ~np.eye(8, dtype=bool).ravel()
    for a in np.nonzero(off)[0][:40]:
        higher = off & (flat_k >= flat_k[a])
        assert (flat_d[higher] <= flat_d[a]).all()


def test_chain_metric_4x4_matches_exhaustive_oracle():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    pm = chain_metric(kernel, seq)
    oracle = exhaustive_chain_metric(delta_matrix(kernel, seq).values)
    assert np.array_equal(pm.values, oracle)
    assert not pm.values.flags.writeable
    assert pm.values[0, 1] == 0.25
    assert pm.values[0, 2] == 0.5
    assert pm.values[0, 3] == 0.5


def test_chain_metric_matches_scipy_shortest_path(corpus_pipeline):
    for kernel, seq, dm, pm in corpus_pipeline:
        assert np.array_equal(dm.values, reference_chain_weights(kernel, seq))
        assert np.array_equal(pm.values, scipy_chain_metric(kernel, seq))


def test_chain_metric_structure(corpus):
    for kernel in corpus[:8]:
        seq = compute_lambda_sequence(kernel)
        pm = chain_metric(kernel, seq)
        d = pm.values
        assert np.array_equal(d, d.T)
        assert (np.diagonal(d) == 0).all()
        assert (d <= delta_matrix(kernel, seq).values).all()
        relaxed = d.copy()
        for mid in range(kernel.n):
            np.minimum(relaxed, relaxed[:, mid][:, None] + relaxed[mid, :][None, :], out=relaxed)
        assert np.array_equal(relaxed, d)


def test_chain_metric_two_vertices():
    kernel = affinity_matrix([[2.0, 1.0], [1.0, 2.0]])
    seq = compute_lambda_sequence(kernel)
    pm = chain_metric(kernel, seq)
    assert pm.values[0, 1] == delta_matrix(kernel, seq).values[0, 1]
    assert pm.values[0, 0] == 0.0


def test_sandwich_4x4_holds_at_shift_minus_one():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    report = verify_sandwich(kernel, seq, chain_metric(kernel, seq))
    assert report.passed
    assert all(report.left_pass)
    assert report.tightest_shift is not None and report.tightest_shift >= -1
    assert report.indices == tuple(range(1, seq.k + 1))


def test_sandwich_single_level_vacuous():
    kernel = affinity_matrix([[2.0, 1.0], [1.0, 2.0]])
    seq = compute_lambda_sequence(kernel)
    report = verify_sandwich(kernel, seq, chain_metric(kernel, seq))
    assert report.passed
    assert report.tightest_shift is None
    assert report.indices == ()


def test_sandwich_level_zero_ball_absorbs_everything():
    kernel = newtonian_kernel(6, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    pm = chain_metric(kernel, seq)
    assert pm.values.max() < 1.0
    levels = level_relations(kernel, seq)
    assert levels[0].all()


@st.composite
def sandwich_cases(draw):
    """A kernel, a sequence and a metric, matched or not.

    The sequence is the kernel's own, seed-overridden, another kernel's,
    or the own one without its bottom threshold.  The metric is the
    kernel's chain metric, the same scaled, another kernel's chain
    metric, or all ones.  The mismatched cases give failing reports,
    empty balls and balls that no level set holds.
    """
    n = draw(st.integers(2, 10))
    kernel = draw(metrizable_kernels(n))
    other = draw(metrizable_kernels(n))
    band = draw(st.sampled_from((3, 5)))
    half = (band - 1) // 2
    gaps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    band_min = float(kernel.values[gaps <= half].min())
    source = draw(st.sampled_from(("own", "override", "other", "truncated")))
    if source == "override" and band_min > 0:
        fraction = draw(st.sampled_from((1.0, 0.5, 0.25)) | st.floats(0.01, 1.0))
        seq = compute_lambda_sequence(kernel, band, lambda0_override=band_min * fraction)
    elif source == "other":
        seq = compute_lambda_sequence(other, band)
    else:
        seq = compute_lambda_sequence(kernel, band)
    if source == "truncated" and seq.k > 0:
        # Without the bottom threshold, pairs below it sit in no level set.
        seq = LambdaSequence(values=seq.values[1:], iterations=seq.iterations)
    own = chain_metric(kernel, compute_lambda_sequence(kernel))
    choice = draw(st.sampled_from(("own", "scaled", "other", "ones")))
    if choice == "own":
        metric = own
    elif choice == "scaled":
        factor = draw(st.sampled_from((0.125, 0.25, 4.0, 16.0)))
        metric = PseudoMetricMatrix(values=own.values * factor)
    elif choice == "other":
        metric = chain_metric(other, compute_lambda_sequence(other))
    else:
        metric = PseudoMetricMatrix(values=np.ones((n, n)))
    return kernel, seq, metric


@seed(4)
@given(sandwich_cases())
@settings(max_examples=300, deadline=None)
def test_sandwich_matches_reference_scan(case):
    kernel, seq, metric = case
    report = verify_sandwich(kernel, seq, metric)
    assert dataclasses.asdict(report) == reference_sandwich(kernel, seq, metric)


@seed(6)
@given(st.integers(2, 10).flatmap(metrizable_kernels), st.sampled_from((3, 5)))
@settings(max_examples=200, deadline=None)
def test_chain_metric_matches_scipy_property(kernel, band):
    seq = compute_lambda_sequence(kernel, band)
    assert np.array_equal(chain_metric(kernel, seq).values, scipy_chain_metric(kernel, seq))


def deep_sequence(size):
    """A random 30-vertex kernel with size of its distinct off-diagonal entries as thresholds (k = size - 1)."""
    rng = np.random.default_rng(size)
    kernel = random_kernel(rng, 30)
    distinct = np.unique(kernel.values[np.triu_indices(30, 1)])
    values = np.sort(rng.choice(distinct, size, replace=False))
    return kernel, LambdaSequence(values=values, iterations=0)


# The closure's largest weight is 2 ** top with top = k + 1 while pairs lie below lambda(0), as
# in deep_sequence, and top = k once lambda(0) is the kernel minimum.  uint8, uint16 and uint32 hold
# top <= 7, 15 and 31: sizes 8, 16 and 32 with the minimum are the last in each, and the other
# sequences of sizes 8/9, 16/17 and 32/33 need the wider type.
@pytest.mark.parametrize("size", (8, 9, 13, 14, 16, 17, 20, 29, 30, 32, 33, 40))
def test_chain_metric_deep_sequences_match_scipy(size):
    kernel, seq = deep_sequence(size)
    floored = LambdaSequence(values=np.append(kernel.values.min(), seq.values[1:]), iterations=0)
    assert seq.values[0] > floored.values[0]
    for s in (seq, floored):
        assert s.k == size - 1
        assert np.array_equal(chain_metric(kernel, s).values, scipy_chain_metric(kernel, s))


def test_chain_metric_sixty_levels_matches_integer_oracle():
    kernel, seq = deep_sequence(61)
    pm = chain_metric(kernel, seq)
    assert pm.values.min(initial=1.0, where=pm.values > 0) == 2.0 ** -61
    assert np.array_equal(pm.values, exact_chain_metric(kernel, seq))


def test_chain_metric_rejects_more_than_sixty_levels():
    kernel, seq = deep_sequence(62)
    with pytest.raises(InvalidParameterError, match="k = 61"):
        chain_metric(kernel, seq)


def test_chain_metric_memory_is_quadratic():
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    peak = traced_peak(chain_metric, kernel, seq)
    assert peak < 12 * n * n


def test_lambda_sequence_memory_reuses_its_buffers():
    """One n x n float32 indicator and a block of the cube, allocated once per sweep or check, and a strip of the square once per step."""
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    assert traced_peak(compute_lambda_sequence, kernel) < 9.5 * n * n
    seq = compute_lambda_sequence(kernel)
    assert traced_peak(level_nesting, kernel, seq) < 9.5 * n * n


def test_delta_matrix_memory_is_quadratic():
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    peak = traced_peak(delta_matrix, kernel, seq)
    assert peak < 10 * n * n


def test_sandwich_and_equivalence_memory_is_a_few_bytes_per_pair():
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    dm, pm = delta_matrix(kernel, seq), chain_metric(kernel, seq)
    assert traced_peak(verify_sandwich, kernel, seq, pm) < 5 * n * n
    assert traced_peak(verify_equivalence, dm, pm) < 5 * n * n


def test_sandwich_matches_reference_scan_on_corpus(corpus_pipeline):
    outcomes = set()
    for kernel, seq, _, pm in corpus_pipeline:
        # Dropping the bottom threshold leaves pairs in no level set, so small balls
        # of a shrunken metric reach them and no level set holds the ball.
        # A one-value sequence has no bottom to drop.
        sequences = (seq, LambdaSequence(values=seq.values[1:], iterations=seq.iterations)) if seq.k else (seq,)
        shrunk = PseudoMetricMatrix(values=pm.values * 0.125)
        for s, metric in itertools.product(sequences, (pm, shrunk)):
            report = verify_sandwich(kernel, s, metric)
            expected = reference_sandwich(kernel, s, metric)
            assert dataclasses.asdict(report) == expected
            outcomes.add(report.passed)
            outcomes.update(
                "none holds" for idx, shift in zip(report.indices, report.right_shift) if shift == -2 * idx - 1
            )
    assert outcomes == {True, False, "none holds"}


def test_equivalence_4x4_ratios_pass():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    report = verify_equivalence(delta_matrix(kernel, seq), chain_metric(kernel, seq))
    assert report.passed
    assert report.c_lo == 1.0
    assert report.c_hi == 1.0
    assert report.pairs == 12


@st.composite
def equivalence_cases(draw):
    """Delta of a metrizable kernel, maybe scaled by a power of two, and the chain metric of it or of another kernel.

    The metric may have one symmetric off-diagonal pair set to zero, as a
    pseudo-metric allows; that pair still counts and breaks the band.
    """
    n = draw(st.integers(2, 10))
    kernel = draw(metrizable_kernels(n))
    band = draw(st.sampled_from((3, 5)))
    dm = delta_matrix(kernel, compute_lambda_sequence(kernel, band))
    scale = draw(st.sampled_from((1.0, 0.0625, 16.0)))
    other = draw(st.just(kernel) | metrizable_kernels(n))
    delta = QuasiMetricMatrix(values=dm.values * scale)
    metric = chain_metric(other, compute_lambda_sequence(other, band))
    if draw(st.booleans()):
        x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        values = metric.values.copy()
        values[x, y] = values[y, x] = 0.0
        metric = dataclasses.replace(metric, values=values)
    return delta, metric


@seed(7)
@given(equivalence_cases())
@settings(max_examples=300, deadline=None)
def test_equivalence_matches_brute_force_ratios(case):
    delta, metric = case
    assert dataclasses.asdict(verify_equivalence(delta, metric)) == brute_equivalence(delta, metric)


def test_equivalence_fails_on_a_nan_ratio():
    """A NaN d is a NaN ratio: c_lo is NaN, not the smallest of the other ratios, and the band fails."""
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    values = chain_metric(kernel, seq).values.copy()
    values[0, 2] = values[2, 0] = np.nan
    report = verify_equivalence(delta_matrix(kernel, seq), PseudoMetricMatrix(values=values))
    assert np.isnan(report.c_lo) and np.isnan(report.c_hi)
    assert not report.passed


def test_equivalence_detects_scaled_violation():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    dm = delta_matrix(kernel, seq)
    scaled = QuasiMetricMatrix(values=dm.values * 100.0)
    report = verify_equivalence(scaled, chain_metric(kernel, seq))
    assert not report.passed


def test_quasi_triangle_4x4_is_one():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    assert quasi_triangle_constant(delta_matrix(kernel, seq)) == 1.0


def test_quasi_triangle_on_true_metric_at_most_one():
    coords = np.array([0.0, 1.0, 3.5, 4.0, 9.0])
    dist = np.abs(coords[:, None] - coords[None, :])
    qm = QuasiMetricMatrix(values=dist)
    assert quasi_triangle_constant(qm) <= 1.0


def euclidean_quasi_metrics(rng):
    """Non-dyadic distance tables of random plane points; repeated points give off-diagonal zeros."""
    out = []
    for n in (3, 4, 7, 12):
        for repeats in (0, 2):
            pts = rng.random((n, 2))
            pts[:repeats] = pts[n - 1]
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            out.append(QuasiMetricMatrix(values=dist))
    out.append(QuasiMetricMatrix(values=np.zeros((3, 3))))
    return out


def searchsorted_delta(kernel, variant):
    """Dyadic quasi-metric 2 ** -index(K) of searchsorted_inverse's variant, with a zero diagonal."""
    values = np.ldexp(1.0, -searchsorted_inverse(compute_lambda_sequence(kernel).values, kernel.values, variant))
    np.fill_diagonal(values, 0.0)
    return QuasiMetricMatrix(values=values)


def diagonal_quasi_metrics(rng):
    """Tables whose diagonal entries are not zero, which x != y != z leaves out.

    In the 4 x 4 one C = 6/7, but with the diagonal left in the indicators the
    pair (2, 3) is joined through vertex 2 itself and reads 1 / (0.1 + 1) =
    10/11.  In the random ones, with off-diagonal entries 0.1 .. 1, a diagonal
    pair left among a product's pairs has a value that may be no level's.
    """
    out = [QuasiMetricMatrix(values=np.array([[0, 0.1, 0.6, 0.6], [0.1, 0, 0.6, 0.6], [0.6, 0.6, 0, 1], [0.6, 0.6, 1, 0]]))]
    for n in (3, 4, 5, 6, 8, 9, 11, 13):
        values = np.triu(rng.integers(1, 11, (n, n)) / 10, 1)
        values += values.T
        np.fill_diagonal(values, rng.choice((0.0, 0.25, 0.5, 1.0, 3.0), n))
        out.append(QuasiMetricMatrix(values=values))
    return out


def rounded_quasi_metrics(rng, count):
    """Tables of random entries rounded to tenths on n = 3 .. 12 vertices, diagonal 0 or 0.5.

    Their off-diagonal zeros need not be transitive, so two zero hops may
    join a positive delta, and no finite C holds.
    """
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 13))
        upper = np.triu(np.round(rng.random((n, n)), 1), 1)
        values = upper + upper.T
        np.fill_diagonal(values, rng.choice((0.0, 0.5), n))
        out.append(QuasiMetricMatrix(values=values))
    return out


def test_quasi_triangle_matches_brute_force_oracle(corpus):
    rng = np.random.default_rng(31)
    script = [delta_matrix(kernel, compute_lambda_sequence(kernel)) for kernel in corpus]
    assert all(np.array_equal(d.values, searchsorted_delta(k, "script").values) for k, d in zip(corpus, script))
    cases = script + [searchsorted_delta(kernel, variant) for kernel in corpus for variant in ("upper", "lower")]
    cases += euclidean_quasi_metrics(rng)
    cases += diagonal_quasi_metrics(rng)
    rounded = rounded_quasi_metrics(np.random.default_rng(63), 600)
    constants = [quasi_triangle_constant(qm) for qm in cases + rounded]
    assert constants == [brute_quasi_triangle_constant(qm.values) for qm in cases + rounded]
    assert np.isfinite(constants[: len(cases)]).all()
    assert np.isinf(constants[len(cases):]).sum() == 155
    asymmetric = np.round(rng.random((9, 9)), 1)
    np.fill_diagonal(asymmetric, 0.0)
    with pytest.raises(DomainError, match="symmetric"):
        quasi_triangle_constant(QuasiMetricMatrix(values=asymmetric))


def newtonian_delta(n):
    kernel = newtonian_kernel(n, 1.0, 2.0)
    return delta_matrix(kernel, compute_lambda_sequence(kernel)).values


# Products go in strips of 128 rows, and tiles of 128 columns once n > 256: n = 129 has a strip of
# one row beside the one whole tile, and n = 300 has three strips and three tiles, the last ones ragged.
@pytest.mark.parametrize("n", (129, 300))
def test_row_blocked_products_match_whole_products(n):
    rng = np.random.default_rng(n)
    kernel = random_kernel(rng, n)
    seq = compute_lambda_sequence(kernel)
    products = _Products(n)
    for t in np.append(seq.values, rng.choice(kernel.values.ravel(), 4)):
        ind = (kernel.values >= t).astype(np.float64)
        assert _sweep_step(kernel, t, products, kernel.values.min()) == kernel.values.min(where=ind @ ind @ ind > 0, initial=np.inf)
    asymmetric = rng.integers(0, 4, (n, n)) / 4.0
    np.fill_diagonal(asymmetric, 0.0)
    for values in (delta_matrix(kernel, seq).values, newtonian_delta(n)):
        qm = QuasiMetricMatrix(values=values)
        assert quasi_triangle_constant(qm) == middle_vertex_quasi_triangle_constant(values)
    with pytest.raises(DomainError, match="symmetric"):
        quasi_triangle_constant(QuasiMetricMatrix(values=asymmetric))


def tiling_cases(n):
    """(kernel, delta) pairs at n: the banded power-law kernel, the same with its vertices permuted (no envelope),
    and an asymmetric delta that doubles a random third of the banded one's entries, which is refused."""
    rng = np.random.default_rng(n)
    banded = newtonian_kernel(n, rng.choice((0.3, 1.0, 3.0)), 2.0)
    order = rng.permutation(n)
    permuted = affinity_matrix(banded.values[order][:, order])
    cases = [(k, delta_matrix(k, compute_lambda_sequence(k)).values) for k in (banded, permuted)]
    asymmetric = cases[0][1] * np.where(rng.random((n, n)) < 1 / 3, 2.0, 1.0)
    return cases + [(None, asymmetric)]


def assert_sweep_matches_reference(kernel, seq):
    """seq steps as reference_sweep_step does, and level_nesting agrees with it on seq and on every other level of seq."""
    steps = [reference_sweep_step(kernel, t) for t in seq.values[1:]]
    assert steps == seq.values[:-1].tolist()
    skipping = LambdaSequence(values=seq.values[::2], iterations=0)  # every other level: nesting may fail
    for s in (seq, skipping):
        expected = all(reference_sweep_step(kernel, s.values[i]) >= s.values[i - 1] for i in range(1, s.k + 1))
        assert level_nesting(kernel, s) == expected


def assert_tiled_products_match_reference_oracles(kernel, delta):
    """The sweep steps, level_nesting, the joined products and the constants of a tiling case against the untiled oracles."""
    n = delta.shape[0]
    if kernel is not None:
        seq = compute_lambda_sequence(kernel)
        thresholds = np.append(seq.values, np.random.default_rng(n).choice(kernel.values.ravel(), 3))
        products = _Products(n)
        for t in thresholds:
            assert _sweep_step(kernel, t, products, -np.inf) == reference_sweep_step(kernel, t)
        assert_sweep_matches_reference(kernel, seq)
        assert verify_metrization(kernel, seq)[2] == reference_quasi_triangle_constant(delta)
    if not np.array_equal(delta, delta.T):
        with pytest.raises(DomainError, match="symmetric"):
            quasi_triangle_constant(QuasiMetricMatrix(values=delta))
        return
    v = np.unique(delta[~np.eye(n, dtype=bool)])
    level = np.searchsorted(v, delta)
    np.fill_diagonal(level, v.size)
    products = _Products(n)
    deepest = partial(np.maximum.reduce, axis=None, initial=v[0])
    for p in range(v.size):
        for q in range(p, v.size):
            left, right = (metrize._Indicator(delta, np.less_equal, v[i], False) for i in (p, q))
            for upper in (False, True) if p == q else (False,):  # a symmetric product
                assert metrize._joined(products, left, right, upper, deepest, np.less_equal, v) == reference_joined(level, p, q, upper)
    assert quasi_triangle_constant(QuasiMetricMatrix(values=delta)) == reference_quasi_triangle_constant(delta)


# Strips are 128 rows; one tile spans the matrix up to n = 256, and beyond it tiles are 128 columns,
# the last one ragged.
@pytest.mark.parametrize("n", (255, 256, 257, 383, 385, 520))
def test_tiled_products_match_reference_oracles(n):
    for kernel, delta in tiling_cases(n):
        assert_tiled_products_match_reference_oracles(kernel, delta)


# With strips and tiles 1 to 5 wide, n = 3 .. 25 forms several tiles, most of them ragged, and skips
# tiles outside the envelopes; gap_kernels below are the cases that need each strip of the square zeroed.
@pytest.mark.parametrize("n", (3, 7, 12, 25))
def test_small_tiles_match_reference_oracles(small_tiles, n):
    for kernel, delta in tiling_cases(n):
        assert_tiled_products_match_reference_oracles(kernel, delta)


def gap_kernels(rng, count):
    """Kernels 1 / |i - j| ** 2 on n = 5 .. 25 vertices with diagonal 2 and one to three symmetric long-range entries of 1/4, 1/2 or 1.

    A far entry makes a row strip of the square form a tile beyond the
    band, with skipped tiles between.  Unless the square's strip is
    zeroed first, it holds the counts of earlier strips there, and the
    cube's tiles read those columns against rows that are nonzero in
    later tiles.
    """
    gaps = np.abs(np.subtract.outer(np.arange(25), np.arange(25)))
    out = []
    for _ in range(count):
        n = int(rng.integers(5, 26))
        values = 1.0 / np.maximum(gaps[:n, :n], 1) ** 2
        np.fill_diagonal(values, 2.0)
        for _ in range(rng.integers(1, 4)):
            x, y = rng.choice(n, 2, replace=False)
            values[x, y] = values[y, x] = rng.choice((0.25, 0.5, 1.0))
        out.append(affinity_matrix(values))
    return out


def test_small_tiles_sweep_clears_the_square_between_formed_tiles(small_tiles):
    """The sweep steps as the untiled reference does on kernels whose row strips skip tiles between formed ones."""
    for kernel in gap_kernels(np.random.default_rng(5), 300):
        seq = compute_lambda_sequence(kernel)
        assert [reference_sweep_step(kernel, t) for t in seq.values[1:]] == seq.values[:-1].tolist()


def test_quasi_triangle_memory_is_quadratic():
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    dm = delta_matrix(kernel, compute_lambda_sequence(kernel))
    peak = traced_peak(quasi_triangle_constant, dm)
    assert peak < 10 * n * n


def test_tiled_stages_memory_at_600():
    """Row strips and column tiles of 128, generated into buffers allocated once per call: no n x n indicator."""
    n = 600
    kernel = newtonian_kernel(n, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    assert traced_peak(compute_lambda_sequence, kernel) < 4 * n * n
    assert traced_peak(level_nesting, kernel, seq) < 4 * n * n
    assert traced_peak(quasi_triangle_constant, delta_matrix(kernel, seq)) < 3 * n * n


def test_two_weight_chain_rows_memory_at_600():
    """k = 1, so no pivot runs: the weights are the closure, formed a row block at a time beside no n x n index."""
    n = 600
    kernel = random_kernel(np.random.default_rng(300), n)
    seq = compute_lambda_sequence(kernel)
    assert seq.k == 1
    assert traced_peak(_chain_rows, kernel, seq) < 1.5 * n * n


def test_verify_metrization_memory_at_600():
    """The quasi-triangle reads its level sets from the kernel, with no n x n index beside its buffers, and the closure comes after it."""
    n = 600
    kernel = newtonian_kernel(n, 1.0)
    assert traced_peak(verify_metrization, kernel, compute_lambda_sequence(kernel)) < 2.5 * n * n


# On newtonian_kernel(60) no off-diagonal pair reaches {K >= 3}, the deepest level of the first
# sequence, and both put lambda(0) above the kernel minimum 1/59, so the shallowest level is delta = 1.
@pytest.mark.parametrize("values, constant", (((1 / 9, 1.0, 3.0), 4 / 3), ((1 / 27, 1 / 9, 1 / 3, 1.0), 16 / 9)))
def test_verify_metrization_constant_over_unreached_and_floor_levels(values, constant):
    kernel = newtonian_kernel(60, 1.0)
    seq = LambdaSequence(values=np.array(values), iterations=0)
    expected = reference_quasi_triangle_constant(delta_matrix(kernel, seq).values)
    assert verify_metrization(kernel, seq)[2] == expected == constant


def test_quasi_triangle_requires_three_vertices():
    """n is read from the values: a 2 x 2 table has 2 vertices."""
    qm = QuasiMetricMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert qm.n == 2
    with pytest.raises(DomainError, match="need at least 3 vertices, got 2"):
        quasi_triangle_constant(qm)


def test_sandwich_and_equivalence_refuse_matrices_of_other_sizes():
    """A 4 x 4 metric against a 6-vertex kernel, or a 4 x 4 delta against a 6 x 6 d, is refused before any row is read."""
    kernel = newtonian_kernel(6, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    small = newtonian_kernel(4, 1.0, 2.0)
    small_seq = compute_lambda_sequence(small)
    with pytest.raises(InvalidParameterError, match="sizes differ: kernel 6, metric 4"):
        verify_sandwich(kernel, seq, chain_metric(small, small_seq))
    with pytest.raises(InvalidParameterError, match="sizes differ: delta 4, metric 6"):
        verify_equivalence(delta_matrix(small, small_seq), chain_metric(kernel, seq))


@pytest.mark.parametrize("entry", (-1.0, np.nan, np.inf))
def test_quasi_triangle_rejects_negative_and_non_finite_entries(entry):
    """The sum bounds that end the products need delta >= 0: a negative, NaN or infinite entry is no quasi-metric."""
    values = np.array([[0.0, 1.0, entry], [1.0, 0.0, 1.0], [entry, 1.0, 0.0]])
    with pytest.raises(DomainError, match="finite and nonnegative"):
        quasi_triangle_constant(QuasiMetricMatrix(values=values))


def test_verify_metrization_forms_at_most_k_plus_one_products(monkeypatch):
    """The diagonal products bound the others: on newtonian_kernel(300), k = 6, at most k + 1 products in all."""
    kernel = newtonian_kernel(300, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    assert seq.k == 6
    calls = []

    def spy(products, indicator, **kwargs):
        calls.append(indicator)
        return strips(products, indicator, **kwargs)

    strips = metrize._Products.strips  # one call per product
    monkeypatch.setattr(metrize._Products, "strips", spy)
    _, _, constant = verify_metrization(kernel, seq)
    assert constant == middle_vertex_quasi_triangle_constant(delta_matrix(kernel, seq).values)
    assert 0 < len(calls) <= seq.k + 1


# Continuous entries give m near n**2 / 2 distinct values (n**2 - n when asymmetric, which is refused):
# the candidate pairs must stay in a heap of one entry per value, never a list of all m**2 / 2 pairs.
@pytest.mark.parametrize("symmetric", (True, False))
def test_quasi_triangle_continuous_delta_matches_brute_force_in_linear_memory(symmetric):
    n = 40
    rng = np.random.default_rng(40 + symmetric)
    values = rng.random((n, n))
    if symmetric:
        values = np.triu(values, 1) + np.triu(values, 1).T
    np.fill_diagonal(values, 0.0)
    m = np.unique(values[~np.eye(n, dtype=bool)]).size
    assert m == (n * n - n) // (2 if symmetric else 1)
    qm = QuasiMetricMatrix(values=values)
    if not symmetric:
        with pytest.raises(DomainError, match="symmetric"):
            quasi_triangle_constant(qm)
        return
    assert quasi_triangle_constant(qm) == brute_quasi_triangle_constant(values)
    assert traced_peak(quasi_triangle_constant, qm) < 10 * n * n + 256 * m


def two_weight_cases():
    """A swept uniform random kernel (k = 1, lambda(0) at the kernel minimum) and a one-threshold sequence inside its range (k = 0)."""
    kernel = random_kernel(np.random.default_rng(300), 300)
    seq = compute_lambda_sequence(kernel)
    assert seq.k == 1 and seq.values[0] == kernel.values.min()
    return [(kernel, seq), (kernel, LambdaSequence(values=np.array([0.5]), iterations=0))]


@pytest.mark.parametrize("case", (0, 1))
def test_two_weight_closure_is_its_weights(case):
    """Every scaled weight is 1 or 2, so no path is relaxed and no n x n scratch is allocated."""
    kernel, seq = two_weight_cases()[case]
    index = _inverse_indices(seq.values, kernel.values)
    assert seq.k + 1 - index.min() == 1  # top: weights 1 and 2
    assert np.array_equal(chain_metric(kernel, seq).values, scipy_chain_metric(kernel, seq))
    n = kernel.n
    assert traced_peak(_closure, kernel, seq) < 1.5 * n * n
    assert_metrization_matches_public_checks(kernel, seq)


def metrization_reports(kernel, seq):
    """verify_metrization's reports and constant, as plain values that compare with ==."""
    sandwich, equivalence, constant = verify_metrization(kernel, seq)
    return dataclasses.asdict(sandwich), dataclasses.asdict(equivalence), constant


def assert_metrization_matches_public_checks(kernel, seq):
    dm, pm = delta_matrix(kernel, seq), chain_metric(kernel, seq)
    expected = (
        dataclasses.asdict(verify_sandwich(kernel, seq, pm)),
        dataclasses.asdict(verify_equivalence(dm, pm)),
        quasi_triangle_constant(dm) if kernel.n >= 3 else 1.0,
    )
    assert metrization_reports(kernel, seq) == expected


def sourced_sequence(kernel, source):
    """The swept sequence, with lambda(0) moved to the kernel minimum, or without it (pairs in no level set)."""
    seq = compute_lambda_sequence(kernel)
    if source == "floored" and kernel.values.min() < seq.values[0]:
        seq = LambdaSequence(values=np.append(kernel.values.min(), seq.values[1:]), iterations=0)
    elif source == "truncated" and seq.k > 0:
        seq = LambdaSequence(values=seq.values[1:], iterations=0)
    return seq


@seed(12)
@given(st.integers(2, 10).flatmap(metrizable_kernels), st.sampled_from(("swept", "floored", "truncated")))
@example(newtonian_kernel(2, 1.0, 2.0), "swept")
@settings(max_examples=300, deadline=None)
def test_verify_metrization_matches_public_checks_property(kernel, source):
    assert_metrization_matches_public_checks(kernel, sourced_sequence(kernel, source))


@seed(12)
@given(st.integers(2, 12).flatmap(metrizable_kernels), st.sampled_from(("swept", "floored", "truncated")))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_small_tiles_verify_metrization_matches_oracles_property(small_tiles, kernel, source):
    """In tiles 1 to 5 wide verify_metrization still matches the public checks, and its constant the triple loop."""
    seq = sourced_sequence(kernel, source)
    assert_metrization_matches_public_checks(kernel, seq)
    if kernel.n >= 3:
        assert verify_metrization(kernel, seq)[2] == brute_quasi_triangle_constant(delta_matrix(kernel, seq).values)


# As for the chain metric: sizes 8/9 and 16/17, with and without lambda(0) at the kernel minimum,
# close in uint8, uint16 or uint32.
@pytest.mark.parametrize("size", (8, 9, 16, 17))
def test_verify_metrization_matches_public_checks_on_deep_sequences(size):
    kernel, seq = deep_sequence(size)
    floored = LambdaSequence(values=np.append(kernel.values.min(), seq.values[1:]), iterations=0)
    for s in (seq, floored):
        assert_metrization_matches_public_checks(kernel, s)


def assert_same_metrization(kernel, seq, other, other_seq):
    """Equal delta, d, reports and constant for two kernels with their sequences."""
    assert np.array_equal(delta_matrix(kernel, seq).values, delta_matrix(other, other_seq).values)
    assert np.array_equal(chain_metric(kernel, seq).values, chain_metric(other, other_seq).values)
    assert metrization_reports(kernel, seq) == metrization_reports(other, other_seq)


# The construction reads the kernel only through comparisons K >= t and the path order, so these
# relations hold exactly, with no oracle.  A sequence without its bottom threshold stands for a
# --lambda file that the sweep would not give.
@seed(13)
@given(st.integers(2, 10).flatmap(metrizable_kernels), st.sampled_from((3, 5)))
@settings(max_examples=200, deadline=None)
def test_rank_transform_changes_only_the_thresholds(kernel, band):
    mapped, f = rank_transform(kernel)
    seq, mapped_seq = compute_lambda_sequence(kernel, band), compute_lambda_sequence(mapped, band)
    assert (mapped_seq.k, mapped_seq.iterations) == (seq.k, seq.iterations)
    assert mapped_seq.values.tolist() == [f[t] for t in seq.values.tolist()]
    assert_same_metrization(kernel, seq, mapped, mapped_seq)
    if seq.k > 0:
        top = LambdaSequence(values=seq.values[1:], iterations=0)
        assert_same_metrization(kernel, top, mapped, LambdaSequence(values=mapped_seq.values[1:], iterations=0))


@seed(14)
@given(
    st.integers(2, 10).flatmap(metrizable_kernels),
    st.sampled_from((3, 5)),
    st.integers(-4, 4),
    st.none() | st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_scaling_by_a_power_of_two_moves_only_the_thresholds(kernel, band, j, fraction):
    scaled = affinity_matrix(np.ldexp(kernel.values, j))
    band_min = _band_min(kernel, (band - 1) // 2)
    override = None if fraction is None or band_min == 0 else band_min * fraction
    seq = compute_lambda_sequence(kernel, band, override)
    scaled_seq = compute_lambda_sequence(scaled, band, None if override is None else np.ldexp(override, j))
    assert (scaled_seq.k, scaled_seq.iterations) == (seq.k, seq.iterations)
    assert scaled_seq.values.tolist() == np.ldexp(seq.values, j).tolist()
    assert_same_metrization(kernel, seq, scaled, scaled_seq)


@seed(15)
@given(st.integers(2, 10).flatmap(metrizable_kernels), st.sampled_from((3, 5)))
@settings(max_examples=200, deadline=None)
def test_reversal_permutes_delta_and_d_alike(kernel, band):
    flipped = affinity_matrix(kernel.values[::-1, ::-1])
    seq, flipped_seq = compute_lambda_sequence(kernel, band), compute_lambda_sequence(flipped, band)
    assert (flipped_seq.values.tolist(), flipped_seq.iterations) == (seq.values.tolist(), seq.iterations)
    assert np.array_equal(delta_matrix(flipped, seq).values, delta_matrix(kernel, seq).values[::-1, ::-1])
    assert np.array_equal(chain_metric(flipped, seq).values, chain_metric(kernel, seq).values[::-1, ::-1])
    assert metrization_reports(flipped, seq) == metrization_reports(kernel, seq)


# Coverage only: no known defect.  Permuted, a kernel's level sets scatter, so their envelopes span
# the rows and few tiles are skipped.  The sweep seeds from the diagonal band, so it is not invariant:
# the sequence swept from K, or every entry of K (where nesting can fail), serves both kernels.
@seed(16)
@given(st.integers(2, 12).flatmap(metrizable_kernels), st.booleans(), st.data())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_small_tiles_permutation_permutes_delta_and_d_alike_property(small_tiles, kernel, every_entry, data):
    order = np.array(data.draw(st.permutations(range(kernel.n))))
    permuted = affinity_matrix(kernel.values[np.ix_(order, order)])
    seq = LambdaSequence(values=np.unique(kernel.values), iterations=0) if every_entry else compute_lambda_sequence(kernel)
    assert level_nesting(permuted, seq) == level_nesting(kernel, seq)
    assert metrization_reports(permuted, seq) == metrization_reports(kernel, seq)
    for build, stream in ((delta_matrix, _delta_rows), (chain_metric, _chain_rows)):
        expected = build(kernel, seq).values[np.ix_(order, order)]
        assert np.array_equal(build(permuted, seq).values, expected)
        assert np.array_equal(np.array(list(stream(permuted, seq))), expected)


def test_lambda_json_round_trip():
    seq = compute_lambda_sequence(newtonian_kernel(10, 1.0, 2.0))
    back = lambda_from_json(lambda_to_json(seq))
    assert np.array_equal(back.values, seq.values)
    assert back.iterations == seq.iterations
    assert back.values[-1] == seq.values[-1]


def test_lambda_json_rejects_malformed():
    with pytest.raises(MatrixFormatError):
        lambda_from_json("[]")
    with pytest.raises(MatrixFormatError):
        lambda_from_json('{"values": [1.0, 0.5], "iterations": 1}')
    with pytest.raises(MatrixFormatError):
        lambda_from_json('{"values": [], "iterations": 0}')
    with pytest.raises(MatrixFormatError):
        lambda_from_json('{"values": [-0.5, 1.0], "iterations": 1}')
    for text in ('{"values": ["x", 1.0]}', '{"values": [[0.1], [0.2, 1.0]]}',
                 '{"values": {"a": 1.0}}', '{"values": [0.1, 1.0], "iterations": "many"}',
                 '{"values": [0.1, 1.0], "iterations": [2]}',
                 '{"values": [0.1, 1.0], "iterations": Infinity}',
                 '{"values": [NaN]}', '{"values": [0.1, Infinity]}',
                 '{"values": [0.1, 1.0], "iterations": true}', '{"values": [0.1, 1.0], "iterations": 1.7}',
                 '{"values": [0.1, 1.0], "iterations": -1}', b'{"values": [\xff]}',
                 '{"values": ["0.25", " 1e0 "]}', '{"values": [false, true]}', '{"values": [0.5, true]}',
                 '{"values": [0.5, null]}', '{"values": "0.5"}'):
        with pytest.raises(MatrixFormatError):
            lambda_from_json(text)


def test_lambda_sequence_constructor_checks_and_freezes_its_array():
    """Every LambdaSequence is checked when it is built: an empty or NaN one passed verify_metrization."""
    arr = np.array([0.25, 0.5, 1.0])
    seq = LambdaSequence(values=arr, iterations=2)
    assert seq.values is arr and not arr.flags.writeable and seq.k == 2
    with pytest.raises(ValueError):
        seq.values[0] = 0.0
    bad_values = ([0.25, 1.0], np.array([1, 2]), np.array([0.25, 1.0], np.float32), np.array([]), np.array([[0.25, 1.0]]),
                  np.array([np.nan]), np.array([0.25, np.nan, 1.0]), np.array([0.25, np.inf]), np.array([-np.inf, 1.0]),
                  np.array([-0.5, 1.0]), np.array([1.0, 0.5]), np.array([0.5, 0.5]))
    for values in bad_values:
        with pytest.raises(MatrixFormatError):
            LambdaSequence(values=values, iterations=0)
    for iterations in (True, 1.7, 2.0, -1, None):
        with pytest.raises(MatrixFormatError):
            LambdaSequence(values=np.array([0.5, 1.0]), iterations=iterations)
