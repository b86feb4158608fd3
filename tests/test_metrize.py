import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed, settings
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
    verify_sandwich,
)
from graphmetrize.metrize import _band_min, _inverse_indices, _product_buffers, _sweep_step

from conftest import (
    brute_equivalence,
    brute_power3,
    brute_quasi_triangle_constant,
    exact_chain_metric,
    exhaustive_chain_metric,
    metrizable_kernels,
    middle_vertex_quasi_triangle_constant,
    random_kernel,
    reference_chain_weights,
    reference_sandwich,
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
    buffers = _product_buffers(kernel.n)
    assert [_sweep_step(kernel, t, buffers) for t in seq.values[1:]] == seq.values[:-1].tolist()
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


def test_swept_sequence_nests_by_construction_on_corpus(corpus_pipeline):
    for kernel, seq, _, _ in corpus_pipeline:
        assert_nests_by_construction(kernel, seq)


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
    assert _inverse_indices(seq.values, t, "script").tolist() == [2, 1, 0, 2]


def test_lambda_inverse_upper_and_lower():
    seq = compute_lambda_sequence(newtonian_kernel(4, 1.0, 2.0))
    t = np.array([0.0, 1.0 / 3.0, 0.5, 7.0])
    assert _inverse_indices(seq.values, t, "upper").tolist() == [0, 0, 1, 1]
    assert _inverse_indices(seq.values, t[2:], "lower").tolist() == [0, 0]


def test_lambda_inverse_rejects_unknown_variant():
    seq = compute_lambda_sequence(newtonian_kernel(4, 1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        _inverse_indices(seq.values, np.array([0.5]), "sideways")


def searchsorted_inverse(values, t, variant):
    """The level index from one np.searchsorted call over all of t, in intp."""
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
    for variant in ("script", "upper", "lower"):
        got = _inverse_indices(values, t, variant)
        assert got.dtype == np.int8
        assert np.array_equal(got, searchsorted_inverse(values, t, variant))
        assert got.shape == t.shape


@pytest.mark.parametrize("size, dtype", ((126, np.int8), (127, np.int16)))
def test_inverse_indices_widen_past_int8(size, dtype):
    # k + 2 = 127 is the last that int8 holds.
    rng = np.random.default_rng(size)
    values = np.sort(rng.choice(1000, size, replace=False)) / 1000.0
    t = rng.integers(-1, 1001, (100, 100)) / 1000.0
    for variant in ("script", "upper", "lower"):
        got = _inverse_indices(values, t, variant)
        assert got.dtype == dtype
        assert np.array_equal(got, searchsorted_inverse(values, t, variant))
    assert _inverse_indices(values, t, "script").max() == size  # t reaches past the top threshold


def test_delta_4x4_script_values():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    dm = delta_matrix(kernel, seq)
    assert dm.values[0, 1] == 0.25
    assert dm.values[0, 2] == 0.5
    assert dm.values[0, 3] == 0.5
    assert (np.diagonal(dm.values) == 0).all()
    assert np.array_equal(dm.values, dm.values.T)


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


def test_delta_variants_differ_at_top():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    up = delta_matrix(kernel, seq, "upper")
    low = delta_matrix(kernel, seq, "lower")
    assert up.values[0, 1] == 0.5
    assert low.values[0, 1] == 1.0


def test_chain_metric_4x4_matches_exhaustive_oracle():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    pm = chain_metric(kernel, seq)
    oracle = exhaustive_chain_metric(delta_matrix(kernel, seq).values)
    assert np.array_equal(pm.values, oracle)
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
        metric = PseudoMetricMatrix(n=n, values=own.values * factor)
    elif choice == "other":
        metric = chain_metric(other, compute_lambda_sequence(other))
    else:
        metric = PseudoMetricMatrix(n=n, values=np.ones((n, n)))
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
    """Two n x n float32 buffers and a block of rows, allocated once for the whole sweep or check."""
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    assert traced_peak(compute_lambda_sequence, kernel) < 12.5 * n * n
    seq = compute_lambda_sequence(kernel)
    assert traced_peak(level_nesting, kernel, seq) < 12.5 * n * n


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
        top = LambdaSequence(values=seq.values[1:], iterations=seq.iterations)
        shrunk = PseudoMetricMatrix(n=pm.n, values=pm.values * 0.125)
        for s, metric in ((seq, pm), (seq, shrunk), (top, pm), (top, shrunk)):
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
    delta = QuasiMetricMatrix(n=n, values=dm.values * scale)
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


def test_equivalence_detects_scaled_violation():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    dm = delta_matrix(kernel, seq)
    scaled = QuasiMetricMatrix(n=dm.n, values=dm.values * 100.0)
    report = verify_equivalence(scaled, chain_metric(kernel, seq))
    assert not report.passed


def test_quasi_triangle_4x4_is_one():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    assert quasi_triangle_constant(delta_matrix(kernel, seq)) == 1.0


def test_quasi_triangle_on_true_metric_at_most_one():
    coords = np.array([0.0, 1.0, 3.5, 4.0, 9.0])
    dist = np.abs(coords[:, None] - coords[None, :])
    qm = QuasiMetricMatrix(n=5, values=dist)
    assert quasi_triangle_constant(qm) <= 1.0


def euclidean_quasi_metrics(rng):
    """Non-dyadic distance tables of random plane points; repeated points give off-diagonal zeros."""
    out = []
    for n in (3, 4, 7, 12):
        for repeats in (0, 2):
            pts = rng.random((n, 2))
            pts[:repeats] = pts[n - 1]
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            out.append(QuasiMetricMatrix(n=n, values=dist))
    out.append(QuasiMetricMatrix(n=3, values=np.zeros((3, 3))))
    return out


def test_quasi_triangle_matches_brute_force_oracle(corpus):
    rng = np.random.default_rng(31)
    cases = [
        delta_matrix(kernel, compute_lambda_sequence(kernel), variant)
        for kernel in corpus
        for variant in ("script", "upper", "lower")
    ]
    cases += euclidean_quasi_metrics(rng)
    asymmetric = np.round(rng.random((9, 9)), 1)
    np.fill_diagonal(asymmetric, 0.0)
    cases.append(QuasiMetricMatrix(n=9, values=asymmetric))
    for qm in cases:
        assert quasi_triangle_constant(qm) == brute_quasi_triangle_constant(qm.values)


def newtonian_delta(n):
    kernel = newtonian_kernel(n, 1.0, 2.0)
    return delta_matrix(kernel, compute_lambda_sequence(kernel)).values


# Products go in blocks of max(n / 4, 128) rows: n = 129 leaves a block of one row, and n = 300
# has three blocks, the last one ragged.
@pytest.mark.parametrize("n", (129, 300))
def test_row_blocked_products_match_whole_products(n):
    rng = np.random.default_rng(n)
    kernel = random_kernel(rng, n)
    seq = compute_lambda_sequence(kernel)
    buffers = _product_buffers(n)
    for t in np.append(seq.values, rng.choice(kernel.values.ravel(), 4)):
        ind = (kernel.values >= t).astype(np.float64)
        assert _sweep_step(kernel, t, buffers) == kernel.values.min(where=ind @ ind @ ind > 0, initial=np.inf)
    asymmetric = rng.integers(0, 4, (n, n)) / 4.0
    np.fill_diagonal(asymmetric, 0.0)
    for values in (delta_matrix(kernel, seq).values, newtonian_delta(n), asymmetric):
        qm = QuasiMetricMatrix(n=n, values=values)
        assert quasi_triangle_constant(qm) == middle_vertex_quasi_triangle_constant(values)


def test_quasi_triangle_memory_is_quadratic():
    n = 300
    kernel = newtonian_kernel(n, 1.0, 2.0)
    dm = delta_matrix(kernel, compute_lambda_sequence(kernel))
    peak = traced_peak(quasi_triangle_constant, dm)
    assert peak < 12 * n * n


def test_quasi_triangle_requires_three_vertices():
    qm = QuasiMetricMatrix(n=2, values=np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(DomainError):
        quasi_triangle_constant(qm)


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
                 '{"values": [0.1, 1.0], "iterations": Infinity}'):
        with pytest.raises(MatrixFormatError):
            lambda_from_json(text)
