import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphmetrize import (
    DomainError,
    InvalidParameterError,
    affinity_bands,
    affinity_matrix,
    annuli,
    bands_to_dot,
    bands_to_json,
    compute_lambda_sequence,
    delta_ball,
    delta_matrix,
    distance_ball,
    euclidean_distances,
    newtonian_kernel,
)

from conftest import metrizable_kernels, traced_peak


@pytest.fixture(scope="module")
def k60():
    kernel = newtonian_kernel(60, 1.0, 2.0)
    return kernel, compute_lambda_sequence(kernel)


def test_delta_ball_matches_sublevel_set(k60):
    kernel, seq = k60
    dm = delta_matrix(kernel, seq)
    ball = delta_ball(kernel, seq, 50, 2.0 ** -3)
    expected = {y for y in range(60) if dm.values[50, y] < 2.0 ** -3}
    assert ball.members == expected
    assert sorted(ball.members) == list(range(47, 54))


def test_delta_ball_radius_one_covers_everything(k60):
    kernel, seq = k60
    ball = delta_ball(kernel, seq, 50, 1.0)
    assert ball.members == set(range(60))


def test_delta_ball_tiny_radius_is_center_only(k60):
    kernel, seq = k60
    ball = delta_ball(kernel, seq, 50, 2.0 ** -7)
    assert ball.members == {50}


def test_delta_ball_monotone_in_radius(k60):
    kernel, seq = k60
    radii = [2.0 ** -q for q in range(7, -1, -1)]
    previous = set()
    for r in radii:
        members = delta_ball(kernel, seq, 13, r).members
        assert previous <= members
        assert 13 in members
        previous = members


def test_delta_ball_identity_all_centers_all_dyadic_radii(k60):
    kernel, seq = k60
    dm = delta_matrix(kernel, seq)
    dyadic = [2.0 ** -q for q in range(0, seq.k + 3)]
    # Non-dyadic radii too: just beside each dyadic one, and uniform ones.
    beside = [np.nextafter(r, side) for r in dyadic for side in (0.0, 1.0)]
    uniform = (1.0 - np.random.default_rng(5).random(20)).tolist()
    for center in range(0, 60, 7):
        for r in dyadic + [r for r in beside if r <= 1.0] + uniform:
            ball = delta_ball(kernel, seq, center, r)
            expected = {y for y in range(60) if dm.values[center, y] < r}
            assert ball.members == expected, (center, r)


def test_delta_ball_members_form_interval(k60):
    kernel, seq = k60
    for center in (0, 17, 42, 59):
        for q in range(0, seq.k + 2):
            members = sorted(delta_ball(kernel, seq, center, 2.0 ** -q).members)
            assert members == list(range(members[0], members[-1] + 1))
            assert members[0] <= center <= members[-1]


def test_delta_ball_rejects_bad_inputs(k60):
    kernel, seq = k60
    with pytest.raises(InvalidParameterError):
        delta_ball(kernel, seq, 50, 0.0)
    with pytest.raises(InvalidParameterError):
        delta_ball(kernel, seq, 50, 1.5)
    with pytest.raises(InvalidParameterError):
        delta_ball(kernel, seq, 60, 0.5)


def test_distance_ball_strict_sublevel():
    row = np.array([0.0, 1.0, 2.0, 3.0])
    ball = distance_ball(row, 0, 2.0)
    assert ball.members == {0, 1}


def test_distance_ball_takes_an_infinite_radius_and_rejects_nan():
    row = np.array([0.0, 1.0, 2.0, 3.0])
    assert distance_ball(row, 0, np.inf).members == {0, 1, 2, 3}
    for r in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidParameterError):
            distance_ball(row, 0, r)


@pytest.mark.parametrize("center", (-1, 12, 2.5))
@pytest.mark.parametrize("call", ("distance_ball", "euclidean_distances", "annuli", "affinity_bands"))
def test_library_calls_reject_a_center_that_is_no_vertex(call, center):
    """Each call checks its own center: -1 would read the last vertex, 12 no vertex of 0..11, and 2.5 none."""
    kernel = newtonian_kernel(12, 1.0)
    row = np.arange(12.0)
    calls = {
        "distance_ball": lambda: distance_ball(row, center, 1.0),
        "euclidean_distances": lambda: euclidean_distances(12, center),
        "annuli": lambda: annuli(row, [1.0, 2.0], center),
        "affinity_bands": lambda: affinity_bands(kernel, compute_lambda_sequence(kernel), center),
    }
    with pytest.raises(InvalidParameterError, match="center"):
        calls[call]()


def test_euclidean_distances_examples():
    assert euclidean_distances(4, 0).tolist() == [0.0, 1.0, 2.0, 3.0]
    assert euclidean_distances(60, 59).max() == 59.0
    for c, j in [(3, 11), (0, 59)]:
        assert euclidean_distances(60, c)[j] == euclidean_distances(60, j)[c]


def test_annuli_counting_example():
    bands = annuli([0.0, 0.25, 0.5, 0.5], [0.3, 0.6])
    assert bands.band_of == (0, 0, 1, 1)
    assert bands.center == 0
    assert bands.palette == ("yellow", "green", "turquoise")


def test_annuli_all_inside_first_radius():
    bands = annuli([0.0, 0.1, 0.2], [5.0])
    assert bands.band_of == (0, 0, 0)


def test_annuli_rejects_bad_radii():
    with pytest.raises(DomainError):
        annuli([0.0, 1.0], [])
    with pytest.raises(DomainError):
        annuli([0.0, 1.0], [2.0, 1.0])
    for radii in ([np.nan], [1.0, np.nan], [np.nan, 1.0]):
        with pytest.raises(DomainError):
            annuli([0.0, 1.0], radii)
    assert annuli([0.0, 1.0, 5.0], [1.0, np.inf]).band_of == (0, 1, 1)


def test_annuli_euclidean_60_against_brute_count():
    radii = [1.0, 3.0, 27.0, 59.0]
    bands = annuli(euclidean_distances(60, 25), radii, 25)
    sizes = [0] * (len(radii) + 1)
    for v in range(60):
        gap = abs(v - 25)
        band = sum(1 for r in radii if r <= gap)
        assert bands.band_of[v] == band
        sizes[band] += 1
    assert sizes == [1, 4, 47, 8, 0]
    assert [b for v, b in enumerate(bands.band_of) if abs(v - 25) <= 2] == [1, 1, 0, 1, 1]


def test_affinity_bands_reproduce_figure_rings(k60):
    kernel, seq = k60
    bands = affinity_bands(kernel, seq, 50)
    groups = {}
    for v, b in enumerate(bands.band_of):
        groups.setdefault(b, set()).add(v)
    assert groups[0] == {50}
    assert groups[1] == {48, 49, 51, 52}
    assert groups[2] == set(range(42, 48)) | set(range(53, 59))
    assert bands.palette[0] == "yellow"
    assert bands.palette[1] == "green"
    assert bands.radii == tuple(float(x) for x in seq.values)


def test_affinity_bands_partition_and_monotone(k60):
    kernel, seq = k60
    for center in (0, 29, 59):
        bands = affinity_bands(kernel, seq, center)
        assert len(bands.band_of) == 60
        assert all(0 <= b <= seq.k + 1 for b in bands.band_of)
        gaps = [abs(v - center) for v in range(60)]
        order = np.argsort(gaps, kind="stable")
        assigned = [bands.band_of[v] for v in order]
        assert assigned == sorted(assigned)
        # band = #{j : lambda(j) >= K}: a vertex whose affinity equals a threshold goes outward.
        row = kernel.values[center]
        assert list(bands.band_of) == [int((seq.values >= a).sum()) for a in row]
        ties = [v for v in range(60) if v != center and row[v] in seq.values]
        assert len(ties) >= 4
        script = np.searchsorted(seq.values, row, side="right")
        assert all(bands.band_of[v] == seq.k + 2 - script[v] for v in ties)


@st.composite
def ball_cases(draw):
    """A metrizable kernel, its sweep, a center and a radius in (0, 1]: dyadic, beside a dyadic one, or any."""
    n = draw(st.integers(2, 10))
    kernel = draw(metrizable_kernels(n))
    seq = compute_lambda_sequence(kernel, draw(st.sampled_from((3, 5))))
    center = draw(st.integers(0, n - 1))
    dyadic = 2.0 ** -draw(st.integers(0, seq.k + 2))
    beside = (dyadic, float(np.nextafter(dyadic, 0.0)), min(float(np.nextafter(dyadic, 2.0)), 1.0))
    radius = draw(st.sampled_from(beside) | st.floats(5e-324, 1.0))
    return kernel, seq, center, radius


@seed(9)
@given(ball_cases())
@settings(max_examples=300, deadline=None)
def test_delta_ball_and_bands_match_delta_sublevel_sets(case):
    kernel, seq, center, radius = case
    row = delta_matrix(kernel, seq).values[center]
    ball = delta_ball(kernel, seq, center, radius)
    assert ball.members == {v for v in range(kernel.n) if row[v] < radius}
    # Bands 0..b are the ball {delta < 2 ** -(k - b)} less the affinities tied with lambda(k - b).
    band_of = np.array(affinity_bands(kernel, seq, center).band_of)
    affinity = kernel.values[center]
    for b in range(seq.k + 1):
        level = seq.k - b
        inner = {v for v in range(kernel.n) if row[v] < 2.0**-level and affinity[v] != seq.values[level]}
        assert set(np.flatnonzero(band_of <= b).tolist()) == inner
    assert band_of.max() <= seq.k + 1


def test_palette_cycles_past_five_bands():
    bands = annuli(np.arange(10, dtype=float), [0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
    assert bands.palette == (
        "yellow", "green", "turquoise", "lavender", "purple", "yellow", "green",
    )


def test_dot_export_contents():
    kernel = newtonian_kernel(4, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    bands = affinity_bands(kernel, seq, 1)
    dot = bands_to_dot(kernel, bands)
    assert dot.startswith("graph affinity {")
    assert "node [style=filled];" in dot
    assert "1 [fillcolor=yellow];" in dot
    assert "0 -- 1;" in dot
    assert "2 -- 3;" in dot
    assert "->" not in dot
    assert dot == bands_to_dot(kernel, bands)
    # Every byte against one line per positive pair, on a kernel with zero affinities.
    vals = newtonian_kernel(7, 1.0).values * (np.add.outer(np.arange(7), np.arange(7)) % 3 != 0)
    kernel = affinity_matrix(np.maximum(vals, np.eye(7, k=1) + np.eye(7, k=-1)) + np.eye(7))
    bands = affinity_bands(kernel, compute_lambda_sequence(kernel), 3)
    expected = ["graph affinity {", "  node [style=filled];"]
    expected += [f"  {v} [fillcolor={bands.palette[b]}];" for v, b in enumerate(bands.band_of)]
    expected += [f"  {i} -- {j};" for i in range(7) for j in range(i + 1, 7) if kernel.values[i, j] > 0]
    assert bands_to_dot(kernel, bands) == "\n".join([*expected, "}"]) + "\n"


def test_dot_export_memory_is_about_the_text():
    n = 300
    kernel = newtonian_kernel(n, 1.0)
    bands = affinity_bands(kernel, compute_lambda_sequence(kernel), 0)
    peak = traced_peak(bands_to_dot, kernel, bands)
    dot = bands_to_dot(kernel, bands)
    assert dot.count(" -- ") == n * (n - 1) // 2
    assert peak < 3 * len(dot)


def test_ball_and_bands_json(k60):
    kernel, seq = k60
    bands = affinity_bands(kernel, seq, 50)
    parsed = json.loads(bands_to_json(bands))
    assert parsed["band_of"][50] == 0
    assert parsed["palette"][:2] == ["yellow", "green"]
    assert parsed["radii"] == list(bands.radii)
