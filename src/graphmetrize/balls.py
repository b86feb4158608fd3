"""Balls, annuli, and DOT export for coloring a graph by bands."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .kernels import AffinityMatrix
from .metrize import LambdaSequence, _delta_block

PALETTE = ("yellow", "green", "turquoise", "lavender", "purple")


@dataclass(frozen=True)
class BallResult:
    """Open ball: the vertices strictly closer to the center than the radius."""

    center: int
    radius: float
    members: frozenset


@dataclass(frozen=True)
class AnnulusBands:
    """Band assignment for every vertex relative to a center.

    band_of[v] counts the radii at or below the distance of v, so band 0
    is the innermost disk and band len(radii) lies beyond the last
    radius.  palette[b] is the fill color for band b, cycling when there
    are more bands than colors.
    """

    center: int
    radii: tuple
    band_of: tuple
    palette: tuple


def _check_center(center: int, n: int) -> int:
    if int(center) != center or not 0 <= center < n:
        raise InvalidParameterError(f"center must be a vertex index in 0..{n - 1}, got {center!r}")
    return int(center)


def delta_ball(
    kernel: AffinityMatrix, seq: LambdaSequence, center: int, r: float
) -> BallResult:
    """Open ball {v : delta(center, v) < r} of the script quasi-metric, for any r in (0, 1].

    The center's row of delta_matrix is formed alone.
    """
    center, r = _check_center(center, kernel.n), _checked_delta_radius(r)
    return distance_ball(_delta_block(kernel, seq, slice(center, center + 1))[0], center, r)


def _checked_delta_radius(r: float) -> float:
    """r; InvalidParameterError unless it lies in (0, 1], where delta's values lie."""
    if not 0.0 < r <= 1.0:  # a NaN fails
        raise InvalidParameterError(f"radius must lie in (0, 1], got {r!r}")
    return r


def distance_ball(distances, center: int, r: float) -> BallResult:
    """Open ball {v : distances[v] < r} for a precomputed distance row."""
    row = np.asarray(distances, dtype=np.float64)
    center = _check_center(center, row.size)
    if not r > 0:  # a NaN fails; an infinite radius holds every vertex
        raise InvalidParameterError(f"radius must be positive, got {r!r}")
    members = frozenset(int(j) for j in np.nonzero(row < r)[0])
    return BallResult(center=center, radius=float(r), members=members)


def euclidean_distances(n: int, center: int) -> np.ndarray:
    """|center - v| for every vertex v on the path 0..n-1."""
    if int(n) != n or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    center = _check_center(center, int(n))
    return np.abs(np.arange(int(n), dtype=np.float64) - float(center))


def _checked_radii(radii) -> np.ndarray:
    """radii as float64; DomainError unless they are non-empty, positive and strictly ascending (an infinite last one is legal)."""
    edges = np.asarray(radii, dtype=np.float64)
    if not (edges.size and edges[0] > 0 and (np.diff(edges) > 0).all()):  # a NaN fails
        raise DomainError(f"radii must be non-empty, positive, strictly ascending and not NaN, got {edges.tolist()}")
    return edges


def _bands(center: int, radii: np.ndarray, band_of: np.ndarray) -> AnnulusBands:
    """AnnulusBands over len(radii) + 1 bands, the palette cycling past its last color."""
    return AnnulusBands(
        center=center,
        radii=tuple(float(x) for x in radii),
        band_of=tuple(int(b) for b in band_of),
        palette=tuple(PALETTE[b % len(PALETTE)] for b in range(radii.size + 1)),
    )


def annuli(distances, radii, center: int | None = None) -> AnnulusBands:
    """Assign each vertex the count of radii at or below its distance."""
    row = np.asarray(distances, dtype=np.float64)
    edges = _checked_radii(radii)
    if center is None:
        center = int(np.argmin(row))
    center = _check_center(center, row.size)
    return _bands(center, edges, np.searchsorted(edges, row, side="right"))


def affinity_bands(
    kernel: AffinityMatrix, seq: LambdaSequence, center: int
) -> AnnulusBands:
    """Annuli of the level structure itself, cut at the thresholds.

    The band of v is #{j : lambda(j) >= K(center, v)}: band 0 holds the
    vertices whose affinity exceeds the top threshold (normally just the
    center), band b those with lambda(k - b) < K <= lambda(k - b + 1),
    and band k + 1 those at or below the bottom threshold.  A tie goes to
    the outer band, as a distance equal to a radius does in annuli; that
    is why this is not k + 1 minus the script index #{j : lambda(j) <= K},
    which puts a tie in the inner level set.  The reported radii are the
    thresholds themselves.
    """
    center = _check_center(center, kernel.n)
    row = kernel.values[center]
    below = np.searchsorted(seq.values, row, side="left")
    return _bands(center, seq.values, (seq.k + 1) - below)


def bands_to_dot(kernel: AffinityMatrix, bands: AnnulusBands) -> str:
    """Undirected DOT graph with nodes filled by band color.

    Edges are emitted for every positive off-diagonal affinity, so dense
    kernels give dense graphs; the point of the export is the coloring.
    """
    return "".join(_dot_lines(np.triu(kernel.values > 0, 1), bands))


def _dot_lines(edges: np.ndarray, bands: AnnulusBands):
    """Yield the text of bands_to_dot in pieces ending in a newline, one per node and one per row of edges, np.triu(kernel.values > 0, 1)."""
    n = len(edges)
    if n != len(bands.band_of):
        raise InvalidParameterError(f"sizes differ: kernel {n}, bands {len(bands.band_of)}")
    yield "graph affinity {\n  node [style=filled];\n"
    for v in range(n):
        yield f"  {v} [fillcolor={bands.palette[bands.band_of[v]]}];\n"
    # One string per row: index lists or strings for all n**2 / 2 edges would outweigh the text.
    names = [str(v) for v in range(n)]
    for i, row in enumerate(edges):
        targets = np.flatnonzero(row).tolist()
        if targets:
            yield f"  {i} -- " + f";\n  {i} -- ".join(map(names.__getitem__, targets)) + ";\n"
    yield "}\n"


def bands_to_json(bands: AnnulusBands) -> str:
    payload = {
        "center": bands.center,
        "radii": list(bands.radii),
        "band_of": list(bands.band_of),
        "palette": list(bands.palette),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
