"""Threshold levels and the metrics they induce.

The construction has three stages.  First a descending sweep harvests a
finite sequence of thresholds from the kernel: each threshold is the
smallest affinity reachable in three hops inside the current level set,
so the level sets satisfy the nesting

    U(i) o U(i) o U(i)  is contained in  U(i - 1)

where U(i) = {(x, y) : K(x, y) >= lambda(i)} and lambda runs ascending.
Second, the level index of a pair converts to a dyadic quasi-metric
delta = 2 ** -index.  Third, chaining through intermediate vertices
tightens delta into a genuine pseudo-metric d that stays within constant
factors of delta and sandwiches the level sets between its dyadic balls.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidParameterError,
    MatrixFormatError,
    NonMetrizableError,
    NumericError,
)
from .kernels import AffinityMatrix, _freeze, validate_kernel
from .relations import BinaryRelation, level_set, power3

INVERSE_VARIANTS = ("script", "upper", "lower")

# Equivalence band for d against delta: delta / 8 <= d <= 2 * delta.
EQUIVALENCE_LOWER = 0.125
EQUIVALENCE_UPPER = 2.0


@dataclass(frozen=True)
class LambdaSequence:
    """Strictly ascending thresholds lambda(0) .. lambda(k).

    values[-1] is the seed the sweep started from (the top threshold)
    and iterations counts the cube-and-rethreshold rounds performed.
    """

    values: np.ndarray
    iterations: int

    @property
    def k(self) -> int:
        return int(self.values.size) - 1


@dataclass(frozen=True)
class QuasiMetricMatrix:
    """Dyadic quasi-metric 2 ** -index with zero diagonal."""

    n: int
    values: np.ndarray
    variant: str


@dataclass(frozen=True)
class PseudoMetricMatrix:
    """Chain pseudo-metric with the one-step weights (the script delta) it was built from."""

    n: int
    values: np.ndarray
    chain_weights: np.ndarray


@dataclass(frozen=True)
class SandwichReport:
    """Per-level inclusion results for the level sets against dyadic balls.

    For each interior index n the left check is U(n) inside {d < 2**-n};
    right_shift is the largest j - n such that {d < 2**-n} fits inside
    U(j), or -2n - 1 when no level set holds it.  tightest_shift is the
    minimum shift over the levels tested, None when the sequence has a
    single value and nothing is testable.
    """

    indices: tuple
    left_pass: tuple
    right_shift: tuple
    tightest_shift: int | None
    passed: bool


@dataclass(frozen=True)
class EquivalenceReport:
    """Extremes of d / delta over off-diagonal pairs."""

    c_lo: float
    c_hi: float
    pairs: int
    passed: bool


def compute_lambda_sequence(
    kernel: AffinityMatrix,
    diagonal_band: int = 3,
    lambda0_override: float | None = None,
) -> LambdaSequence:
    """Harvest the threshold sequence from a kernel by the descending sweep.

    The seed is the minimum affinity on the central diagonal band (width
    3 or 5).  Each round forms the level set at the current threshold,
    composes it with itself three times, and lowers the threshold to the
    minimum affinity the cube reaches.  The sweep stops when the
    threshold stalls or hits the kernel minimum; the harvested values are
    returned ascending, so values[-1] is the seed and values[0] is the
    kernel minimum.
    """
    report = validate_kernel(kernel)
    bad = [f for f in ("diag_dominant", "tridiagonal_positive") if f in report.failed_flags()]
    if bad:
        raise NonMetrizableError(f"kernel fails required flags: {', '.join(bad)}")
    if diagonal_band not in (3, 5):
        raise InvalidParameterError(f"diagonal_band must be 3 or 5, got {diagonal_band!r}")

    v = kernel.values
    n = kernel.n
    band_min = _band_min(kernel, (diagonal_band - 1) // 2)
    if lambda0_override is None:
        seed = band_min
    else:
        seed = float(lambda0_override)
        if not (0.0 < seed <= band_min):
            raise InvalidParameterError(
                f"lambda0_override must lie in (0, {band_min!r}], got {lambda0_override!r}"
            )

    kernel_min = float(v.min())
    descending = [seed]
    iterations = 0
    cap = n * n
    while True:
        cube = power3(level_set(kernel, descending[-1]))
        next_value = float(v[cube.bits].min())
        iterations += 1
        if iterations > cap:
            raise NumericError(f"threshold sweep did not terminate within {cap} rounds")
        if next_value >= descending[-1]:
            break
        descending.append(next_value)
        if next_value <= kernel_min:
            break

    values = np.array(descending[::-1], dtype=np.float64)
    return LambdaSequence(values=_freeze(values), iterations=iterations)


def _band_min(kernel: AffinityMatrix, half: int) -> float:
    """Smallest affinity at most half steps off the diagonal."""
    v = kernel.values
    return float(min(v.diagonal(offset).min(initial=np.inf) for offset in range(-half, half + 1)))


def level_relations(kernel: AffinityMatrix, seq: LambdaSequence) -> list[BinaryRelation]:
    """The nested level sets U(0) .. U(k) at the sequence thresholds."""
    return [level_set(kernel, float(t)) for t in seq.values]


def _inverse_indices(values: np.ndarray, t: np.ndarray, variant: str) -> np.ndarray:
    k = values.size - 1
    if variant == "script":
        return np.searchsorted(values, t, side="right")
    if variant == "upper":
        return np.minimum(np.searchsorted(values, t, side="left"), k)
    if variant == "lower":
        return np.clip(np.searchsorted(values, t, side="left") - 1, 0, max(k - 1, 0))
    raise InvalidParameterError(
        f"variant must be one of {INVERSE_VARIANTS}, got {variant!r}"
    )


def lambda_inverse(t: float, seq: LambdaSequence, variant: str = "script") -> int:
    """Step extension of the inverse threshold map to all t >= 0.

    script counts the thresholds at or below t, ranging 0..k+1.  upper
    is the smallest index whose threshold reaches t, clamped to k.
    lower is the largest index strictly under t, clamped to k-1.
    """
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t!r}")
    idx = _inverse_indices(seq.values, np.asarray([t], dtype=np.float64), variant)
    return int(idx[0])


def delta_matrix(
    kernel: AffinityMatrix, seq: LambdaSequence, variant: str = "script"
) -> QuasiMetricMatrix:
    """Dyadic quasi-metric 2 ** -inverse(K) with the diagonal forced to zero."""
    idx = _inverse_indices(seq.values, kernel.values.ravel(), variant)
    vals = np.power(2.0, -idx.astype(np.float64)).reshape(kernel.values.shape)
    np.fill_diagonal(vals, 0.0)
    return QuasiMetricMatrix(n=kernel.n, values=_freeze(vals), variant=variant)


def chain_metric(kernel: AffinityMatrix, seq: LambdaSequence) -> PseudoMetricMatrix:
    """Shortest-path pseudo-metric over one-step dyadic weights.

    The one-step weights are the script delta: a pair whose deepest
    containing level set is m gets weight 2 ** -(m + 1), and d is the
    exact shortest path over those weights.  The half step is what makes
    every level set m sit strictly inside the radius 2 ** -m ball of d.

    Scaled by 2 ** (k + 1), every off-diagonal weight is an integer in
    1 .. 2 ** (k + 1), so Floyd-Warshall runs in integers and is exact.
    A relaxed sum is at most 2 ** (k + 2); the narrowest signed type that
    holds it is used: int16 for k <= 12, int32 for k <= 28, int64 for
    k <= 60.  Larger k raises InvalidParameterError.  The distances are
    scaled back into float64, exactly for k <= 52 and rounded to nearest
    from the exact integer beyond.
    """
    scale = seq.k + 1
    fits = [t for t in (np.int16, np.int32, np.int64) if 2 ** (scale + 1) <= np.iinfo(t).max]
    if not fits:
        raise InvalidParameterError(f"chain closure needs at most 61 thresholds (k <= 60), got k = {seq.k}")
    weights = delta_matrix(kernel, seq, "script").values
    dist = np.ldexp(weights, scale).astype(fits[0])
    tmp = np.empty_like(dist)
    for mid in range(kernel.n):
        np.add(dist[:, mid, None], dist[mid], out=tmp)
        np.minimum(dist, tmp, out=dist)
    values = np.ldexp(dist, -scale, dtype=np.float64)
    values.setflags(write=False)
    return PseudoMetricMatrix(n=kernel.n, values=values, chain_weights=weights)


def verify_sandwich(
    kernel: AffinityMatrix, seq: LambdaSequence, metric: PseudoMetricMatrix
) -> SandwichReport:
    """Check the level sets against the dyadic balls of the chain metric.

    Passes when every interior level set U(n) sits inside {d < 2**-n}
    and every such ball sits inside a level set at most one index lower.
    """
    if kernel.n != metric.n:
        raise InvalidParameterError(f"sizes differ: kernel {kernel.n}, metric {metric.n}")
    # U(j) is {level > j}: the largest j whose U(j) holds the ball is one
    # below the smallest level in the ball (k for an empty ball).
    level = _inverse_indices(seq.values, kernel.values, "script")
    indices = tuple(range(1, seq.k + 1))
    left_pass = []
    right_shift = []
    for idx in indices:
        ball = metric.values < 2.0 ** -idx
        left_pass.append(bool((ball | (level <= idx)).all()))
        best = int(level.min(where=ball, initial=seq.k + 1)) - 1
        right_shift.append((best if best >= 0 else -idx - 1) - idx)
    tightest = min(right_shift) if right_shift else None
    passed = all(left_pass) and (tightest is None or tightest >= -1)
    return SandwichReport(
        indices=indices,
        left_pass=tuple(left_pass),
        right_shift=tuple(right_shift),
        tightest_shift=tightest,
        passed=passed,
    )


def verify_equivalence(
    delta: QuasiMetricMatrix, metric: PseudoMetricMatrix
) -> EquivalenceReport:
    """Extremes of d / delta off the diagonal, tested against the dyadic band."""
    if delta.n != metric.n:
        raise InvalidParameterError(f"sizes differ: delta {delta.n}, metric {metric.n}")
    mask = metric.values > 0.0
    if not mask.any():
        return EquivalenceReport(c_lo=float("nan"), c_hi=float("nan"), pairs=0, passed=True)
    ratios = metric.values[mask] / delta.values[mask]
    c_lo = float(ratios.min())
    c_hi = float(ratios.max())
    passed = c_lo >= EQUIVALENCE_LOWER and c_hi <= EQUIVALENCE_UPPER
    return EquivalenceReport(c_lo=c_lo, c_hi=c_hi, pairs=int(mask.sum()), passed=passed)


def quasi_triangle_constant(delta: QuasiMetricMatrix) -> float:
    """Smallest C with delta(x, z) <= C * (delta(x, y) + delta(y, z)) over distinct x, y, z.

    Needs at least 3 vertices; triples whose hops sum to zero are skipped.
    For distinct off-diagonal values v[p], v[q], the float32 product of
    the 0/1 indicators {delta <= v[p]} and {delta <= v[q]} (diagonal
    excluded) marks the pairs (x, z) that two such hops join; the largest
    delta(x, z) among them over v[p] + v[q] bounds C from below, and at
    the worst triple's hops it is C, by the same float division.  Pairs
    go by ascending v[p] + v[q] and stop once max(v) over the sum cannot
    win.  Counts are exact for n < 2**24, and two n x n indicators are
    alive at a time.  The cost is up to m**2 products for m distinct
    values: a few dozen for delta_matrix output (at most k + 2 values),
    but slow for a general matrix with m near n**2 / 2.
    """
    if delta.n < 3:
        raise DomainError(f"need at least 3 vertices, got {delta.n}")
    vals = delta.values
    distinct = np.unique(vals[~np.eye(delta.n, dtype=bool)])
    level = np.searchsorted(distinct, vals)
    np.fill_diagonal(level, distinct.size)  # above every level: no indicator holds the diagonal
    # For symmetric delta, pair (q, p) reaches the transpose of what (p, q) reaches: visit q >= p only.
    symmetric = np.array_equal(vals, vals.T)
    starts = [p if symmetric else 0 for p in range(distinct.size)]
    heap = [(distinct[p] + distinct[q], p, q) for p, q in enumerate(starts)]
    worst = 0.0
    while heap:
        total, p, q = heapq.heappop(heap)
        if q + 1 < distinct.size:
            heapq.heappush(heap, (distinct[p] + distinct[q + 1], p, q + 1))
        if total == 0:
            continue
        if distinct[-1] / total <= worst:
            break
        reach = (level <= p).astype(np.float32) @ (level <= q).astype(np.float32) > 0
        np.fill_diagonal(reach, False)
        top = int(np.max(level, where=reach, initial=-1))
        if top >= 0:
            worst = max(worst, float(distinct[top] / total))
    return worst


def lambda_to_json(seq: LambdaSequence) -> str:
    payload = {"values": [float(x) for x in seq.values], "iterations": seq.iterations}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def lambda_from_json(text: str) -> LambdaSequence:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid threshold JSON: {exc}") from exc
    if not isinstance(payload, dict) or "values" not in payload:
        raise MatrixFormatError("threshold JSON must be an object with 'values'")
    try:
        values = np.array(payload["values"], dtype=np.float64)
        iterations = int(payload.get("iterations", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"threshold JSON values and iterations must be numbers: {exc}") from exc
    if values.ndim != 1 or values.size == 0:
        raise MatrixFormatError("threshold values must be a non-empty flat list")
    if not (np.diff(values) > 0).all():
        raise MatrixFormatError("threshold values must be strictly ascending")
    if values[0] < 0:
        raise MatrixFormatError("threshold values must be nonnegative")
    return LambdaSequence(values=_freeze(values), iterations=iterations)
