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

import bisect
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

# Equivalence band for d against delta: delta / 8 <= d <= 2 * delta.
EQUIVALENCE_LOWER = 0.125
EQUIVALENCE_UPPER = 2.0
# Largest quasi-triangle constant of delta that verify accepts.
QUASI_TRIANGLE_LIMIT = 8.0


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
        next_value = _sweep_step(kernel, descending[-1], buffers, kernel_min)
        iterations += 1
        if next_value >= descending[-1]:
            break
        descending.append(next_value)
        if next_value <= kernel_min:
            break

    return LambdaSequence(values=_freeze(descending[::-1]), iterations=iterations)


def _product_buffers(n: int) -> tuple:
    """An n x n float32 right operand, and a row strip of the left one and a block of their product (_product_blocks).

    A block is a quarter of the rows, but at least 128 rows, so that for
    small n the per-call cost of more products does not outweigh their
    work.  Each buffer is allocated on its own: one block for all three
    would make glibc keep later n x n arrays on its heap.
    """
    rows = min(n, max(-(-n // 4), 128))
    return np.empty((n, n), np.float32), np.empty((rows, n), np.float32), np.empty(rows * n, np.float32)


def _sweep_step(kernel: AffinityMatrix, threshold: float, buffers: tuple, floor: float) -> float:
    """Smallest affinity the cube of the level set {K >= threshold} reaches, inf if none.

    The cube is the positive entries of the float32 path counts of the
    level set's 0/1 indicator.  Every term is a product of nonnegative
    counts, so a sum with a path in it is >= 1 however it rounds.  The
    kernel is symmetric (an AffinityMatrix invariant) and so are the
    counts: per row block R, the cube's rows on and above the diagonal
    are (ind[R] @ ind) @ ind[:, R.start:], and only their running minimum
    of K is kept, until it reaches floor, the kernel minimum (the sweep's
    last step).  While the threshold is at most the smallest diagonal
    entry, the cube holds the diagonal and so is never empty.
    """
    ind, strip, block = buffers  # from _product_buffers
    values = kernel.values
    np.greater_equal(values, threshold, out=ind)
    low = np.inf
    for rows, cols, left, out in _product_blocks(strip, block, upper=True):
        cube = np.matmul(np.matmul(ind[rows], ind, out=left), ind[:, cols], out=out)
        low = min(low, values[rows, cols].min(where=cube > 0, initial=np.inf))
        if low <= floor:
            break
    return float(low)


def _product_blocks(strip: np.ndarray, block: np.ndarray, upper: bool):
    """Yield (rows, cols, left, out) per row block of an n x n product: strip and block views for its rows and cols.

    cols is every column, or with upper only the columns from rows.start
    on: together those blocks hold every entry on and above the diagonal,
    which is all of a symmetric product.
    """
    step, n = strip.shape
    for start in range(0, n, step):
        rows, cols = slice(start, start + step), slice(start if upper else 0, n)
        count = min(step, n - start)
        yield rows, cols, strip[:count], block[: count * (n - cols.start)].reshape(count, -1)


def level_nesting(kernel: AffinityMatrix, seq: LambdaSequence) -> bool:
    """True when U(i) o U(i) o U(i) lies inside U(i - 1) at every level i = 1 .. k.

    That holds exactly when the sweep's step from lambda(i), the smallest
    affinity the cube of U(i) reaches, is at least lambda(i - 1).
    """
    buffers, floor = _product_buffers(kernel.n), kernel.values.min()
    return all(_sweep_step(kernel, seq.values[i], buffers, floor) >= seq.values[i - 1] for i in range(1, seq.k + 1))


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


def _inverse_indices(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The script index #{j : values[j] <= t} per entry of t, in the narrowest int type for k + 2."""
    index = np.zeros(np.shape(t), np.min_scalar_type(-(values.size + 2)))  # -(k + 3) fits iff k + 2 does
    for cut in values:
        index += np.greater_equal(t, cut)
    return index


def delta_matrix(kernel: AffinityMatrix, seq: LambdaSequence) -> QuasiMetricMatrix:
    """Dyadic quasi-metric 2 ** -index(K) of the script index, with the diagonal forced to zero."""
    index = _inverse_indices(seq.values, kernel.values)
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
    radius 2 ** -m ball of d.  d is the integer closure (_closure) over
    2 ** (k + 1) in float64, exact for k <= 52 and rounded to nearest
    beyond; k > 60 raises InvalidParameterError.
    """
    scale = _chain_scale(seq)
    values = np.ldexp(_closure(_inverse_indices(seq.values, kernel.values), scale), -scale, dtype=np.float64)
    values.setflags(write=False)
    return PseudoMetricMatrix(n=kernel.n, values=values)


def _chain_scale(seq: LambdaSequence) -> int:
    """The closure's scale exponent k + 1; k > 60 raises InvalidParameterError."""
    if seq.k > 60:
        raise InvalidParameterError(f"chain closure needs at most 61 thresholds (k <= 60), got k = {seq.k}")
    return seq.k + 1


def _closure(index: np.ndarray, scale: int) -> np.ndarray:
    """2 ** scale times the chain metric of the script level index, in unsigned integers with a zero diagonal.

    Every scaled weight 2 ** (scale - index - 1) is a power of two up to
    2 ** top, top = scale - index.min() (k when lambda(0) is at most the
    kernel minimum).  Floyd-Warshall stores them less one, so it is exact
    in the narrowest unsigned type with more than top bits: every entry
    stays below 2 ** top, and a relaxed sum a + b is stored as
    a' + b' + 1 < 2 ** (top + 1).  The diagonal keeps its own weight
    during the closure, since a positive self-loop never shortens a path.
    The closure is symmetric, so the pivot's column is read from its row.
    When top <= 1 the weights are the closure and no pivot runs.
    """
    top = scale - int(index.min())
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if top < np.iinfo(t).bits)
    # The shifts scale - index lie in 0 .. scale, so the unsafe cast to dtype is exact.
    dist = np.subtract(scale, index, out=np.empty(index.shape, dtype), casting="unsafe")
    del index  # chain_metric's index is a temporary: freed before the closure
    np.left_shift(1, dist, out=dist)
    if top > 1:  # with every weight 1 or 2, no path of two steps or more is shorter than one step
        dist -= 1
        row = np.empty(dist.shape[0], dtype)
        column = row[:, None]
        tmp = np.empty_like(dist)
        for pivot in dist:
            np.add(pivot, 1, out=row)
            np.add(column, pivot, out=tmp)
            np.minimum(dist, tmp, out=dist)
        del tmp
        dist += 1
    np.fill_diagonal(dist, 0)
    return dist


def verify_metrization(kernel: AffinityMatrix, seq: LambdaSequence) -> tuple:
    """(verify_sandwich, verify_equivalence, quasi_triangle_constant) of chain_metric and delta_matrix, neither built.

    All three read the script level index and the integer closure: delta
    is 2 ** -index off the diagonal, d < 2 ** -i is closure < 2 ** (s - i)
    for s = k + 1 (exact where d is, k <= 52), and d / delta is the exact
    closure * 2 ** (index - s).  The constant is 1.0 below 3 vertices.
    The quasi-triangle products run first, so their buffers and the
    closure are never alive together.
    """
    scale = _chain_scale(seq)
    index = _inverse_indices(seq.values, kernel.values)
    constant = 1.0
    if kernel.n >= 3:
        level, keys = _ranks(np.negative(index))  # -index ascends as delta = 2 ** -index does
        constant = _quasi_triangle(level, np.ldexp(1.0, keys), symmetric=True)
        del level  # freed before the closure
    closure = _closure(index, scale)
    sandwich = _sandwich(index, seq.k, lambda idx: closure < 1 << (scale - idx))
    equivalence = _equivalence(kernel.n, lambda rows, off: np.ldexp(closure[rows], index[rows] - scale, dtype=np.float64))
    return sandwich, equivalence, constant


def verify_sandwich(
    kernel: AffinityMatrix, seq: LambdaSequence, metric: PseudoMetricMatrix
) -> SandwichReport:
    """Check the level sets against the dyadic balls of the chain metric.

    Passes when every interior level set U(n) sits inside {d < 2**-n}
    and every such ball sits inside a level set at most one index lower.
    """
    if kernel.n != metric.n:
        raise InvalidParameterError(f"sizes differ: kernel {kernel.n}, metric {metric.n}")
    level = _inverse_indices(seq.values, kernel.values)
    return _sandwich(level, seq.k, lambda idx: metric.values < 2.0 ** -idx)


def _sandwich(level: np.ndarray, k: int, ball) -> SandwichReport:
    """The sandwich report from the script level index and ball(idx), the mask of {d < 2**-idx}."""
    # U(j) is {level > j}: the largest j whose U(j) holds the ball is one
    # below the smallest level in the ball (k for an empty ball).
    indices = tuple(range(1, k + 1))
    left_pass = []
    right_shift = []
    for idx in indices:
        mask = ball(idx)
        left_pass.append(bool((mask | (level <= idx)).all()))
        best = int(level.min(where=mask, initial=k + 1)) - 1
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
    return _equivalence(metric.n, lambda rows, off: np.divide(metric.values[rows], delta.values[rows], out=None, where=off))


def _equivalence(n: int, ratios) -> EquivalenceReport:
    """The equivalence report from ratios(rows, off), d / delta on a row block wherever off holds."""
    if n < 2:
        return EquivalenceReport(c_lo=float("nan"), c_hi=float("nan"), pairs=0, passed=True)
    c_lo, c_hi = np.inf, -np.inf
    for rows, off in _row_blocks(n):
        block = ratios(rows, off)
        c_lo = float(np.minimum(c_lo, block.min(where=off, initial=np.inf)))  # np.minimum keeps a NaN
        c_hi = float(np.maximum(c_hi, block.max(where=off, initial=-np.inf)))
    passed = c_lo >= EQUIVALENCE_LOWER and c_hi <= EQUIVALENCE_UPPER
    return EquivalenceReport(c_lo=c_lo, c_hi=c_hi, pairs=n * (n - 1), passed=passed)


def quasi_triangle_constant(delta: QuasiMetricMatrix) -> float:
    """Smallest C with delta(x, z) <= C * (delta(x, y) + delta(y, z)) over distinct x, y, z.

    Needs at least 3 vertices and finite, nonnegative entries, else
    DomainError; triples whose hops sum to zero are skipped.  Each entry's
    rank among the m distinct off-diagonal values, one byte for m <= 127,
    goes to _quasi_triangle.  The cost is up to m**2 products: about k + 1
    for delta_matrix output (m is at most k + 2), slow for m near n**2 / 2.
    """
    if delta.n < 3:
        raise DomainError(f"need at least 3 vertices, got {delta.n}")
    vals = delta.values
    if not (vals.min() >= 0 and vals.max() < np.inf):  # a NaN fails both
        raise DomainError("delta entries must be finite and nonnegative")
    return _quasi_triangle(*_ranks(vals), symmetric=np.array_equal(vals, vals.T))


def _ranks(values: np.ndarray) -> tuple:
    """_quasi_triangle's ranks of a square array's entries among its sorted distinct off-diagonal values, and those values."""
    distinct = _distinct(np.concatenate([_distinct(values[rows][off]) for rows, off in _row_blocks(values.shape[0])]))
    level = _inverse_indices(distinct[1:], values)  # distinct[p] is at level p
    np.fill_diagonal(level, distinct.size)  # above every level: no indicator holds the diagonal
    return level, distinct


def _quasi_triangle(level: np.ndarray, v: np.ndarray, symmetric: bool) -> float:
    """The constant from each entry's rank among the sorted distinct values v, the diagonal ranked above all.

    The float32 product of the 0/1 indicators {level <= p} and
    {level <= q} marks the pairs (x, z) that hops p then q join; its
    largest v, x != z, over v[p] + v[q] bounds C from below, and at the
    worst triple's hops it is C, by the same float division.  Counts are
    exact for n < 2**24.  {level <= q} fills the right operand and
    {level <= p} the strip, a row block at a time.

    For p < q the indicators nest, so the largest level M that hops
    (p, q) or (q, p) join lies between M(p, p) and M(q, q).  The diagonal
    products go first, by ascending v[q], until max(v) / (v[0] + v[q])
    cannot beat the worst ratio so far.  Where M(p, p) = M(q, q) the
    pair's value is known without a product; otherwise
    v[M(q, q)] / (v[p] + v[q]) bounds it, and the pairs are formed by
    descending bound until none beats the worst ratio, from a heap with
    one entry per q.  For symmetric delta only (p, q) is formed, since
    (q, p) reaches the transpose, and a diagonal product only on and
    above the diagonal.
    """
    second, strip, block = _product_buffers(level.shape[0])

    def joined(p: int, q: int, upper: bool) -> int:
        """The largest level that hops p then q join, or -1 if none."""
        np.less_equal(level, q, out=second)
        top = -1
        for rows, cols, left, out in _product_blocks(strip, block, upper):
            reach = np.matmul(np.less_equal(level[rows], p, out=left), second[:, cols], out=out)
            np.fill_diagonal(reach[:, rows.start - cols.start:], 0.0)  # x != z
            top = max(top, int(level[rows, cols].max(where=reach > 0, initial=-1)))
        return top

    worst = 0.0
    diagonal = []  # M(q, q), nondecreasing in q
    for q in range(v.size):
        if v[0] + v[q] > 0 and v[-1] / (v[0] + v[q]) <= worst:
            break
        top = joined(q, q, symmetric)
        diagonal.append(top)
        p = bisect.bisect_left(diagonal, top)  # from p on, M(p, q) = M(q, q)
        if top >= 0 and v[p] + v[q] > 0:
            worst = max(worst, float(v[top] / (v[p] + v[q])))

    # (bound, q, p): q's next pair below its first exact one, the bound negated for the min-heap.
    heap = [(-v[top] / (v[0] + v[q]), q, 0) for q, top in enumerate(diagonal) if diagonal[0] < top]
    heapq.heapify(heap)
    while heap and -heap[0][0] > worst:
        bound, q, p = heapq.heappop(heap)
        top = diagonal[q]
        if diagonal[p + 1] < top:
            heapq.heappush(heap, (-v[top] / (v[p + 1] + v[q]), q, p + 1))
        for a, b in [(p, q)] if symmetric else [(p, q), (q, p)]:
            reached = joined(a, b, False) if -bound > worst else -1
            if reached >= 0:
                worst = max(worst, float(v[reached] / (v[p] + v[q])))
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
