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
)
from .kernels import AffinityMatrix, _freeze, validate_kernel

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


@dataclass(frozen=True)
class PseudoMetricMatrix:
    """Chain pseudo-metric: shortest paths over the script delta."""

    n: int
    values: np.ndarray


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

    band_min = _band_min(kernel, (diagonal_band - 1) // 2)
    if lambda0_override is None:
        seed = band_min
    else:
        seed = float(lambda0_override)
        if not (0.0 < seed <= band_min):
            raise InvalidParameterError(
                f"lambda0_override must lie in (0, {band_min!r}], got {lambda0_override!r}"
            )

    kernel_min = float(kernel.values.min())
    buffers = _product_buffers(kernel.n)
    descending = [seed]
    iterations = 0
    while True:
        next_value = _sweep_step(kernel, descending[-1], buffers)
        iterations += 1
        if next_value >= descending[-1]:
            break
        descending.append(next_value)
        if next_value <= kernel_min:
            break

    return LambdaSequence(values=_freeze(descending[::-1]), iterations=iterations)


def _product_buffers(n: int) -> tuple:
    """Two n x n float32 buffers and a flat one for a block of their product's rows (see _product_blocks).

    A block is a quarter of the rows, but at least 128 rows, so that for
    small n the per-call cost of more products does not outweigh their
    work.  Each buffer is allocated on its own: one (3, n, n) block would
    make glibc keep later n x n arrays on its heap instead of handing them
    back.
    """
    rows = min(n, max(-(-n // 4), 128))
    return np.empty((n, n), np.float32), np.empty((n, n), np.float32), np.empty(rows * n, np.float32)


def _sweep_step(kernel: AffinityMatrix, threshold: float, buffers: tuple) -> float:
    """Smallest affinity the cube of the level set {K >= threshold} reaches, inf if none.

    The cube is the positive entries of the float32 path counts of the
    level set's 0/1 indicator.  Every term is a product of nonnegative
    counts, so a sum with a path in it is >= 1 however it rounds.  The
    kernel is symmetric (an AffinityMatrix invariant) and so are the
    counts: those of length 3 are formed a row block at a time, on and
    above the diagonal only, and only their running minimum of K is
    kept.  While the threshold is at most the smallest diagonal entry,
    the cube holds the diagonal and so is never empty.
    """
    ind, square, block = buffers  # from _product_buffers
    values = kernel.values
    np.greater_equal(values, threshold, out=ind)
    np.matmul(ind, ind, out=square)
    low = np.inf
    for rows, cols, cube in _product_blocks(square, ind, block, upper=True):
        low = min(low, values[rows, cols].min(where=cube > 0, initial=np.inf))
    return float(low)


def _product_blocks(a: np.ndarray, b: np.ndarray, block: np.ndarray, upper: bool):
    """Yield (rows, cols, a[rows] @ b[:, cols]) over the row blocks of the n x n product a @ b, each computed into block.

    cols is every column, or with upper only the columns from rows.start
    on: together those blocks hold every entry on and above the diagonal,
    which is all of a symmetric product.
    """
    n = a.shape[0]
    step = block.size // n
    for start in range(0, n, step):
        rows, cols = slice(start, start + step), slice(start if upper else 0, n)
        out = block[: min(step, n - start) * (n - cols.start)].reshape(-1, n - cols.start)
        yield rows, cols, np.matmul(a[rows], b[:, cols], out=out)


def level_nesting(kernel: AffinityMatrix, seq: LambdaSequence) -> bool:
    """True when U(i) o U(i) o U(i) lies inside U(i - 1) at every level i = 1 .. k.

    That holds exactly when the sweep's step from lambda(i), the smallest
    affinity the cube of U(i) reaches, is at least lambda(i - 1).
    """
    buffers = _product_buffers(kernel.n)
    return all(_sweep_step(kernel, seq.values[i], buffers) >= seq.values[i - 1] for i in range(1, seq.k + 1))


def _band_min(kernel: AffinityMatrix, half: int) -> float:
    """Smallest affinity at most half steps off the diagonal."""
    v = kernel.values
    return float(min(v.diagonal(offset).min(initial=np.inf) for offset in range(-half, half + 1)))


def level_relations(kernel: AffinityMatrix, seq: LambdaSequence) -> list[np.ndarray]:
    """The nested level sets U(0) .. U(k) at the sequence thresholds, as read-only bool matrices."""
    return [_freeze(kernel.values >= t, bool) for t in seq.values]


def _row_blocks(n: int):
    """Row slices of an n x n array, about 8192 entries each, with the masks of their off-diagonal entries."""
    step = max(1, 8192 // n)
    for start in range(0, n, step):
        yield slice(start, start + step), np.arange(start, min(start + step, n))[:, None] != np.arange(n)


def _inverse_indices(values: np.ndarray, t: np.ndarray, variant: str) -> np.ndarray:
    """Per entry of t, how many of the variant's cuts lie below it (or at it: script), in the narrowest int type for k + 2."""
    cuts = {"script": values, "upper": values[:-1], "lower": values[1:-1]}
    if variant not in cuts:
        raise InvalidParameterError(f"variant must be one of {INVERSE_VARIANTS}, got {variant!r}")
    index = np.zeros(np.shape(t), np.min_scalar_type(-(values.size + 2)))  # -(k + 3) fits iff k + 2 does
    above = np.greater_equal if variant == "script" else np.greater
    for cut in cuts[variant]:
        index += above(t, cut)
    return index


def delta_matrix(
    kernel: AffinityMatrix, seq: LambdaSequence, variant: str = "script"
) -> QuasiMetricMatrix:
    """Dyadic quasi-metric 2 ** -inverse(K) with the diagonal forced to zero."""
    index = _inverse_indices(seq.values, kernel.values, variant)
    vals = np.ldexp(1.0, np.negative(index, out=index))
    np.fill_diagonal(vals, 0.0)
    vals.setflags(write=False)
    return QuasiMetricMatrix(n=kernel.n, values=vals)


def chain_metric(kernel: AffinityMatrix, seq: LambdaSequence) -> PseudoMetricMatrix:
    """Shortest-path pseudo-metric over one-step dyadic weights.

    The one-step weights are the script delta (delta_matrix, not kept
    here): a pair whose deepest containing level set is m gets weight
    2 ** -(m + 1), and d is the exact shortest path over those weights.
    The half step is what makes every level set m sit strictly inside the
    radius 2 ** -m ball of d.

    Scaled by 2 ** (k + 1), every weight is an integer power of two from
    1 up to 2 ** top, where top is k + 1 less the lowest level index (k
    when lambda(0) is at most the kernel minimum).  Floyd-Warshall runs
    on these integers, stored less one, so it is exact: every stored
    entry stays at most 2 ** top - 1, and a relaxed sum a + b is stored
    as a' + b' + 1 < 2 ** (top + 1).  The narrowest unsigned type that
    holds that is used: uint8 for top <= 7, uint16 for top <= 15, uint32
    for top <= 31, uint64 beyond.  The diagonal keeps its own weight
    during the closure, since a positive self-loop never shortens a path,
    and is set to 0 after.  The kernel is symmetric and so is every step
    of the closure, so the pivot's column is read from its row.  k > 60
    raises InvalidParameterError.  The distances are scaled back into
    float64, exactly for k <= 52 and rounded to nearest from the exact
    integer beyond.
    """
    if seq.k > 60:
        raise InvalidParameterError(f"chain closure needs at most 61 thresholds (k <= 60), got k = {seq.k}")
    scale = seq.k + 1
    level = _inverse_indices(seq.values, kernel.values, "script")
    top = scale - int(level.min())
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if top < np.iinfo(t).bits)
    # The shifts scale - level lie in 0 .. scale, so the unsafe cast to dtype is exact.
    dist = np.left_shift(1, np.subtract(scale, level, out=level), dtype=dtype, casting="unsafe")
    del level
    dist -= 1
    row = np.empty(kernel.n, dtype)
    column = row[:, None]
    tmp = np.empty_like(dist)
    for pivot in dist:
        np.add(pivot, 1, out=row)
        np.add(column, pivot, out=tmp)
        np.minimum(dist, tmp, out=dist)
    del tmp
    dist += 1
    values = np.ldexp(dist, -scale, dtype=np.float64)
    np.fill_diagonal(values, 0.0)
    values.setflags(write=False)
    return PseudoMetricMatrix(n=kernel.n, values=values)


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
    """Extremes of d / delta off the diagonal, taken in row blocks, tested against the dyadic band."""
    if delta.n != metric.n:
        raise InvalidParameterError(f"sizes differ: delta {delta.n}, metric {metric.n}")
    if metric.n < 2:
        return EquivalenceReport(c_lo=float("nan"), c_hi=float("nan"), pairs=0, passed=True)
    c_lo, c_hi = np.inf, -np.inf
    for rows, off in _row_blocks(metric.n):
        ratios = np.divide(metric.values[rows], delta.values[rows], out=None, where=off)
        c_lo = float(np.minimum(c_lo, ratios.min(where=off, initial=np.inf)))  # np.minimum keeps a NaN
        c_hi = float(np.maximum(c_hi, ratios.max(where=off, initial=-np.inf)))
    passed = c_lo >= EQUIVALENCE_LOWER and c_hi <= EQUIVALENCE_UPPER
    return EquivalenceReport(c_lo=c_lo, c_hi=c_hi, pairs=metric.n * (metric.n - 1), passed=passed)


def quasi_triangle_constant(delta: QuasiMetricMatrix) -> float:
    """Smallest C with delta(x, z) <= C * (delta(x, y) + delta(y, z)) over distinct x, y, z.

    Needs at least 3 vertices; triples whose hops sum to zero are skipped.
    For distinct off-diagonal values v[p], v[q], the float32 product of
    the 0/1 indicators {delta <= v[p]} and {delta <= v[q]}, both with the
    diagonal excluded, marks the pairs (x, z) that two such hops join.
    The largest delta(x, z) among them, x != z, over v[p] + v[q] bounds C
    from below, and at the worst triple's hops it is C, by the same float
    division.  Pairs go by ascending v[p] + v[q] and stop once max(v)
    over the sum cannot win.  Counts are exact for n < 2**24.

    The two indicators are filled in place in two float32 buffers, and
    their product is taken a block of rows at a time (_product_buffers)
    with the diagonal zeroed per block, so two n x n float32 buffers and
    a block are alive, beside a level index of one byte per entry for
    m <= 126.  For symmetric delta and p == q the product is symmetric,
    and only its entries on and above the diagonal are formed.
    The cost is up to m**2 products for m distinct values: a few dozen
    for delta_matrix output (at most k + 2), slow for m near n**2 / 2.
    """
    if delta.n < 3:
        raise DomainError(f"need at least 3 vertices, got {delta.n}")
    n, vals = delta.n, delta.values
    distinct = _distinct(np.concatenate([_distinct(vals[rows][off]) for rows, off in _row_blocks(n)]))
    level = _inverse_indices(distinct, vals, "upper")  # distinct[p] is at level p
    np.fill_diagonal(level, distinct.size)  # above every level: no indicator holds the diagonal
    # For symmetric delta, pair (q, p) reaches the transpose of what (p, q) reaches: visit q >= p only.
    symmetric = np.array_equal(vals, vals.T)
    starts = [p if symmetric else 0 for p in range(distinct.size)]
    heap = [(distinct[p] + distinct[q], p, q) for p, q in enumerate(starts)]
    first, second, block = _product_buffers(n)
    worst = 0.0
    while heap:
        total, p, q = heapq.heappop(heap)
        if q + 1 < distinct.size:
            heapq.heappush(heap, (distinct[p] + distinct[q + 1], p, q + 1))
        if total == 0:
            continue
        if distinct[-1] / total <= worst:
            break
        np.less_equal(level, p, out=first)
        np.less_equal(level, q, out=second)
        top = -1
        for rows, cols, reach in _product_blocks(first, second, block, upper=symmetric and p == q):
            np.fill_diagonal(reach[:, rows.start - cols.start:], 0.0)  # x != z
            top = max(top, int(level[rows, cols].max(where=reach > 0, initial=-1)))
        if top >= 0:
            worst = max(worst, float(distinct[top] / total))
    return worst


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D array, as np.unique finds them but without importing numpy.ma (1.3 MB)."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


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
