"""Balls, annuli, and DOT export for coloring a graph by bands."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .kernels import AffinityMatrix
from .metrize import LambdaSequence

PALETTE = ("yellow", "green", "turquoise", "lavender", "purple")


@dataclass(frozen=True)
class BallResult:
    """Open ball: the vertices strictly closer to the center than the radius."""

    center: int
    radius: float
    members: frozenset
    metric: str


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
    """Open ball of the dyadic quasi-metric around a center.

    For dyadic radii this is exactly a kernel sublevel set: the ball of
    radius r collects the vertices whose affinity to the center reaches
    the threshold at depth floor(log2(1 / r)), and only the center
    itself once that depth passes the top of the sequence.
    """
    center = _check_center(center, kernel.n)
    if not 0.0 < r <= 1.0:
        raise InvalidParameterError(f"radius must lie in (0, 1], got {r!r}")
    depth = math.floor(math.log2(1.0 / r)) + 1
    members = {center}
    if depth <= seq.k + 1:
        threshold = float(seq.values[depth - 1])
        row = kernel.values[center]
        members.update(int(j) for j in np.nonzero(row >= threshold)[0])
    return BallResult(center=center, radius=float(r), members=frozenset(members), metric="F")


def distance_ball(distances, center: int, r: float, metric: str) -> BallResult:
    """Open ball {v : distances[v] < r} for a precomputed distance row."""
    row = np.asarray(distances, dtype=np.float64)
    center = _check_center(center, row.size)
    if r <= 0:
        raise InvalidParameterError(f"radius must be positive, got {r!r}")
    members = frozenset(int(j) for j in np.nonzero(row < r)[0])
    return BallResult(center=center, radius=float(r), members=members, metric=metric)


def euclidean_distances(n: int, center: int) -> np.ndarray:
    """|center - v| for every vertex v on the path 0..n-1."""
    if int(n) != n or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    center = _check_center(center, int(n))
    return np.abs(np.arange(int(n), dtype=np.float64) - float(center))


def annuli(distances, radii, center: int | None = None) -> AnnulusBands:
    """Assign each vertex the count of radii at or below its distance."""
    row = np.asarray(distances, dtype=np.float64)
    edges = np.asarray(radii, dtype=np.float64)
    if edges.size == 0:
        raise DomainError("radii must be non-empty")
    if not (np.diff(edges) > 0).all():
        raise DomainError("radii must be strictly ascending")
    if center is None:
        center = int(np.argmin(row))
    center = _check_center(center, row.size)
    band_of = np.searchsorted(edges, row, side="right")
    palette = tuple(PALETTE[b % len(PALETTE)] for b in range(edges.size + 1))
    return AnnulusBands(
        center=center,
        radii=tuple(float(x) for x in edges),
        band_of=tuple(int(b) for b in band_of),
        palette=palette,
    )


def affinity_bands(
    kernel: AffinityMatrix, seq: LambdaSequence, center: int
) -> AnnulusBands:
    """Annuli of the level structure itself, cut between consecutive thresholds.

    Band 0 holds the vertices whose affinity to the center exceeds the
    top threshold (normally just the center); band b holds those between
    thresholds k - b and k - b + 1; band k + 1 is at or below the bottom
    threshold.  The reported radii are the thresholds themselves.
    """
    center = _check_center(center, kernel.n)
    row = kernel.values[center]
    below = np.searchsorted(seq.values, row, side="left")
    band_of = (seq.k + 1) - below
    palette = tuple(PALETTE[b % len(PALETTE)] for b in range(seq.k + 2))
    return AnnulusBands(
        center=center,
        radii=tuple(float(x) for x in seq.values),
        band_of=tuple(int(b) for b in band_of),
        palette=palette,
    )


def bands_to_dot(kernel: AffinityMatrix, bands: AnnulusBands) -> str:
    """Undirected DOT graph with nodes filled by band color.

    Edges are emitted for every positive off-diagonal affinity, so dense
    kernels give dense graphs; the point of the export is the coloring.
    """
    if kernel.n != len(bands.band_of):
        raise InvalidParameterError(
            f"sizes differ: kernel {kernel.n}, bands {len(bands.band_of)}"
        )
    lines = ["graph affinity {", "  node [style=filled];"]
    for v in range(kernel.n):
        lines.append(f"  {v} [fillcolor={bands.palette[bands.band_of[v]]}];")
    for i in range(kernel.n):
        for j in range(i + 1, kernel.n):
            if kernel.values[i, j] > 0:
                lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bands_to_json(bands: AnnulusBands) -> str:
    payload = {
        "center": bands.center,
        "radii": list(bands.radii),
        "band_of": list(bands.band_of),
        "palette": list(bands.palette),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
