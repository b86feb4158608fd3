import json

import numpy as np
import pytest

from graphmetrize import (
    DomainError,
    InvalidParameterError,
    affinity_bands,
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
    assert ball.metric == "F"


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
    for center in range(0, 60, 7):
        for q in range(0, seq.k + 3):
            r = 2.0 ** -q
            ball = delta_ball(kernel, seq, center, r)
            expected = {y for y in range(60) if dm.values[center, y] < r}
            assert ball.members == expected


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
    ball = distance_ball(row, 0, 2.0, "E")
    assert ball.members == {0, 1}
    assert ball.metric == "E"


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


def test_ball_and_bands_json(k60):
    kernel, seq = k60
    bands = affinity_bands(kernel, seq, 50)
    parsed = json.loads(bands_to_json(bands))
    assert parsed["band_of"][50] == 0
    assert parsed["palette"][:2] == ["yellow", "green"]
    assert parsed["radii"] == list(bands.radii)
