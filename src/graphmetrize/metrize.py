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
from functools import partial

import numpy as np

from .errors import (
    DomainError,
    InvalidParameterError,
    MatrixFormatError,
    NonMetrizableError,
)
from . import kernels
from .kernels import AffinityMatrix, _row_blocks, validate_kernel

# Equivalence band for d against delta: delta / 8 <= d <= 2 * delta.
EQUIVALENCE_LOWER = 0.125
EQUIVALENCE_UPPER = 2.0
# Largest quasi-triangle constant of delta that verify accepts.
QUASI_TRIANGLE_LIMIT = 8.0


@dataclass(frozen=True)
class LambdaSequence:
    """Finite, nonnegative, strictly ascending float64 thresholds lambda(0) .. lambda(k), with read-only values.

    values[-1] is the seed the sweep started from (the top threshold) and
    iterations counts the cube-and-rethreshold rounds performed.  Every
    instance is checked when it is built (MatrixFormatError), and values
    is then frozen in place, so pass an array that nothing else writes to.
    """

    values: np.ndarray
    iterations: int

    @property
    def k(self) -> int:
        return int(self.values.size) - 1

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == 1 and v.size):
            raise MatrixFormatError("threshold values must be a non-empty 1-D float64 array")
        if not (0 <= v[0] and v[-1] < np.inf and (v[1:] > v[:-1]).all()):  # a NaN fails
            raise MatrixFormatError("threshold values must be finite, nonnegative and strictly ascending")
        if type(self.iterations) is not int or self.iterations < 0:  # a bool is no count
            raise MatrixFormatError(f"iterations must be a nonnegative int, got {self.iterations!r}")
        v.setflags(write=False)


@dataclass(frozen=True)
class QuasiMetricMatrix:
    """Dyadic quasi-metric 2 ** -index with zero diagonal."""

    values: np.ndarray
    n = property(lambda self: self.values.shape[0])  # derived, so it cannot disagree with values


@dataclass(frozen=True)
class PseudoMetricMatrix:
    """Chain pseudo-metric: shortest paths over the script delta."""

    values: np.ndarray
    n = property(lambda self: self.values.shape[0])  # derived, so it cannot disagree with values


@dataclass(frozen=True)
class SandwichReport:
    """Per-level inclusion results for the level sets against dyadic balls.

    For each interior index n the left check is U(n) inside {d < 2**-n};
    right_shift is the largest j - n such that {d < 2**-n} fits inside
    U(j), or -2n - 1 when no level set holds it.  indices, tightest_shift
    (the minimum shift over the levels tested, None when the sequence has
    a single value and nothing is testable) and passed are derived.
    """

    left_pass: tuple
    right_shift: tuple
    indices = property(lambda self: tuple(range(1, len(self.left_pass) + 1)))
    tightest_shift = property(lambda self: min(self.right_shift, default=None))
    passed = property(lambda self: all(self.left_pass) and (self.tightest_shift is None or self.tightest_shift >= -1))


@dataclass(frozen=True)
class EquivalenceReport:
    """Extremes of d / delta over off-diagonal pairs; passed is derived, and holds with no pairs (NaN extremes) but not for a NaN ratio."""

    c_lo: float
    c_hi: float
    pairs: int
    passed = property(lambda self: self.pairs == 0 or (self.c_lo >= EQUIVALENCE_LOWER and self.c_hi <= EQUIVALENCE_UPPER))


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
    bad = validate_kernel(kernel).failed_flags()
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
    products = _Products(kernel.n)
    descending = [seed]
    iterations = 0
    while True:
        next_value = _sweep_step(kernel, descending[-1], products, kernel_min)
        iterations += 1
        if next_value >= descending[-1]:
            break
        descending.append(next_value)
        if next_value <= kernel_min:
            break

    return LambdaSequence(values=np.array(descending[::-1]), iterations=iterations)


def _tile_width(n: int) -> int:
    """The column tile width for an n x n product: while one tile spans the matrix, the right operand is generated once."""
    return n if n <= 2 * kernels._BLOCK else kernels._BLOCK


class _Indicator:
    """The 0/1 matrix test(source, cut) made in float32 a block at a time: {K >= t} with or without the diagonal, or {delta <= v} without it.

    source must be symmetric, and so the indicator is.  A plain class: a
    dataclass would cost the import milliseconds.
    """

    def __init__(self, source: np.ndarray, test: np.ufunc, cut, diagonal: bool = True):
        self.source, self.test, self.cut, self.diagonal = source, test, cut, diagonal
        n = source.shape[0]
        self._envelope = ([0], [n]) if _tile_width(n) == n else None

    def fill(self, rows: slice, cols: slice, buffer: np.ndarray) -> np.ndarray:
        """The block [rows, cols], written over the first entries of a flat buffer."""
        block = _view(buffer, rows.stop - rows.start, cols.stop - cols.start)
        self.test(self.source[rows, cols], self.cut, out=block)
        if not self.diagonal:
            _clear_diagonal(block, rows, cols)
        return block

    @property
    def envelope(self) -> tuple:
        """Per column tile, the rows [lo, hi) outside which it is zero ((0, 0) if all of it is): the span of the nonzero columns of the row strip with the tile's indices, row j being column j.

        The diagonal is counted even where it is left out, which only widens a span.
        """
        if self._envelope is None:
            n, width = self.source.shape[0], _tile_width(self.source.shape[0])
            rows = (np.flatnonzero(self.test(self.source[start:start + width], self.cut).any(axis=0)) for start in range(0, n, width))
            self._envelope = tuple(zip(*((r[0], r[-1] + 1) if r.size else (0, 0) for r in rows)))
        return self._envelope


def _view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols entries of a flat buffer as a rows x cols array."""
    return buffer[: rows * cols].reshape(rows, cols)


def _clear_diagonal(block: np.ndarray, rows: slice, cols: slice) -> None:
    """Zero the entries of block, the [rows, cols] part of a square matrix, that lie on its diagonal."""
    start = max(rows.start, cols.start)
    np.fill_diagonal(block[start - rows.start:, start - cols.start:], 0)


class _Products:
    """Products of _Indicator matrices by tiles, in buffers allocated once per call.

    A row strip of the left operand meets a column tile of the right
    indicator only over the rows inside both the strip's nonzero columns
    and the tile's envelope: that span is the inner dimension, and a tile
    sharing none is skipped (the power-law kernel's level sets are
    banded).  While one tile spans the matrix, the tile buffer holds the
    whole right indicator, generated once, and a left operand that is
    the same indicator is read from it.  Each buffer is allocated on its
    own: one block for all would make glibc keep later n x n arrays on
    its heap.
    """

    def __init__(self, n: int):
        self.n, self.rows, self.width = n, min(n, kernels._BLOCK), _tile_width(n)
        self.strip = np.empty(self.rows * n, np.float32)
        self.tile = np.empty(n * self.width, np.float32)
        self.out = np.empty(self.rows * self.width, np.float32)
        self.held = None  # the indicator the tile buffer holds whole, while one tile spans the matrix
        self.whole = _view(self.tile, n, n) if self.width == n else None

    def strips(self, ind: _Indicator, shared: bool = False):
        """Yield (rows, strip, lo) per row strip of the indicator: its columns lo .. lo + width, zero outside them.

        shared says the right operand is the same indicator.  The indicator
        is symmetric, so a strip's nonzero columns are its own column
        tile's envelope, and only they are generated.
        """
        whole = self._whole(ind) if shared and self.width == self.n else None
        for start in range(0, self.n, self.rows):
            rows = slice(start, min(start + self.rows, self.n))
            if whole is not None:
                yield rows, whole[rows], 0
            else:
                lo, hi = (int(edge[start // self.width]) for edge in ind.envelope)
                yield rows, ind.fill(rows, slice(lo, max(lo, hi)), self.strip), lo

    def tiles(self, left: np.ndarray, lo: int, right: _Indicator, start: int = 0, into: np.ndarray | None = None):
        """Yield (cols, left @ right[:, cols]) per column tile from column start on, into[:, cols] or the product buffer.

        left is the columns lo .. lo + width of a strip that is zero outside them.
        """
        n, width, hi = self.n, self.width, lo + left.shape[1]
        whole = self._whole(right) if width == n else None
        tile_lo, tile_hi = right.envelope
        for tile in range(start // width, len(tile_lo)):
            a, b = max(lo, tile_lo[tile]), min(hi, tile_hi[tile])
            if a >= b:
                continue
            cols = slice(max(start, tile * width), min(tile * width + width, n))
            block = right.fill(slice(a, b), cols, self.tile) if whole is None else whole[a:b, cols]
            out = self.out[: len(left) * (cols.stop - cols.start)].reshape(len(left), -1) if into is None else into[:, cols]
            yield cols, np.matmul(left[:, a - lo:b - lo], block, out=out)

    def _whole(self, ind: _Indicator) -> np.ndarray:
        """The whole indicator in the tile buffer, generated unless it is already there."""
        if self.held is not ind:
            self.held = ind
            ind.fill(slice(0, self.n), slice(0, self.n), self.tile)
        return self.whole


def _sweep_step(kernel: AffinityMatrix, threshold: float, products: _Products, floor: float) -> float:
    """Smallest affinity the cube of the level set {K >= threshold} reaches, inf if none.

    The cube is the positive entries of the float32 path counts of the
    level set's 0/1 indicator.  Every term is a product of nonnegative
    counts, so a sum with a path in it is >= 1 however it rounds.  The
    kernel is symmetric (an AffinityMatrix invariant) and so are the
    counts: per row strip R, the square's strip ind[R] @ ind is formed
    tile by tile into a zeroed strip, and then the cube's tiles on and
    above the diagonal, square[R] @ ind[:, C]; only their running
    minimum of K is kept, until it reaches floor, the kernel minimum
    (the sweep's last step).  While the threshold is at most the smallest
    diagonal entry, the cube holds the diagonal and so is never empty.
    """
    level = _Indicator(kernel.values, np.greater_equal, threshold)
    low = np.inf
    buffer = np.empty((products.rows, products.n), np.float32)
    for rows, strip, lo in products.strips(level, shared=True):
        square = buffer[: len(strip)]
        square.fill(0.0)  # a tile the product skips reads 0, whatever an earlier strip left there
        formed = [cols for cols, _ in products.tiles(strip, lo, level, into=square)]
        first, last = (formed[0].start, formed[-1].stop) if formed else (0, 0)
        for cols, cube in products.tiles(square[:, first:last], first, level, start=rows.start):
            low = min(low, kernel.values[rows, cols].min(where=cube > 0, initial=np.inf))
            if low <= floor:
                return float(low)
    return float(low)


def level_nesting(kernel: AffinityMatrix, seq: LambdaSequence) -> bool:
    """True when U(i) o U(i) o U(i) lies inside U(i - 1) at every level i = 1 .. k.

    That holds exactly when the sweep's step from lambda(i), the smallest
    affinity the cube of U(i) reaches, is at least lambda(i - 1).
    """
    products, floor = _Products(kernel.n), kernel.values.min()
    return all(_sweep_step(kernel, seq.values[i], products, floor) >= seq.values[i - 1] for i in range(1, seq.k + 1))


def _band_min(kernel: AffinityMatrix, half: int) -> float:
    """Smallest affinity at most half steps off the diagonal."""
    v = kernel.values
    return float(min(v.diagonal(offset).min(initial=np.inf) for offset in range(-half, half + 1)))


def level_relations(kernel: AffinityMatrix, seq: LambdaSequence) -> list[np.ndarray]:
    """The nested level sets U(0) .. U(k) at the sequence thresholds, as read-only bool matrices."""
    levels = np.less_equal.outer(seq.values, kernel.values)  # t <= K, that is K >= t
    levels.setflags(write=False)
    return list(levels)


def _inverse_indices(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The script index #{j : values[j] <= t} per entry of t, in the narrowest int type for k + 2."""
    index = np.zeros(np.shape(t), np.min_scalar_type(-(values.size + 2)))  # -(k + 3) fits iff k + 2 does
    for cut in values:
        index += np.greater_equal(t, cut)
    return index


def delta_matrix(kernel: AffinityMatrix, seq: LambdaSequence) -> QuasiMetricMatrix:
    """Dyadic quasi-metric 2 ** -index(K) of the script index, with the diagonal forced to zero."""
    vals = _delta_block(kernel, seq, slice(0, kernel.n))
    vals.setflags(write=False)
    return QuasiMetricMatrix(values=vals)


def _delta_block(kernel: AffinityMatrix, seq: LambdaSequence, rows: slice) -> np.ndarray:
    """delta_matrix's values[rows], from the script index of those rows alone."""
    index = _inverse_indices(seq.values, kernel.values[rows])
    block = np.ldexp(1.0, np.negative(index, out=index))
    _clear_diagonal(block, rows, slice(0, kernel.n))
    return block


def _delta_rows(kernel: AffinityMatrix, seq: LambdaSequence):
    """Yield delta_matrix's rows, formed a row block at a time: no float64 n x n array."""
    for rows in _row_blocks(kernel.n):
        yield from _delta_block(kernel, seq, rows)


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
    values = np.ldexp(_closure(kernel, seq), -_chain_scale(seq), dtype=np.float64)
    values.setflags(write=False)
    return PseudoMetricMatrix(values=values)


def _chain_rows(kernel: AffinityMatrix, seq: LambdaSequence):
    """An iterator over chain_metric's rows, formed a row block at a time from the integer closure, the only n x n array held.

    k is checked and the closure built before it returns, so a writer of the rows fails before it opens its output.
    """
    closure, scale = _closure(kernel, seq), _chain_scale(seq)
    return (row for rows in _row_blocks(kernel.n) for row in np.ldexp(closure[rows], -scale, dtype=np.float64))


def _chain_scale(seq: LambdaSequence) -> int:
    """The closure's scale exponent k + 1; k > 60 raises InvalidParameterError."""
    if seq.k > 60:
        raise InvalidParameterError(f"chain closure needs at most 61 thresholds (k <= 60), got k = {seq.k}")
    return seq.k + 1


def _closure(kernel: AffinityMatrix, seq: LambdaSequence) -> np.ndarray:
    """2 ** scale times the chain metric, scale = k + 1, in unsigned integers with a zero diagonal; k > 60 raises InvalidParameterError.

    Every scaled weight 2 ** (scale - index - 1), formed from the kernel a
    row block at a time, is a power of two up to 2 ** top, top = scale -
    index(K.min()) (k when lambda(0) is at most the kernel minimum).
    Floyd-Warshall stores them less one, so it is exact in the narrowest
    unsigned type with more than top bits: every entry stays below
    2 ** top, and a relaxed sum a + b is stored as a' + b' + 1 below
    2 ** (top + 1).  The diagonal keeps its own weight during the
    closure, since a positive self-loop never shortens a path.
    The closure is symmetric, so the pivot's column is read from its row.
    When top <= 1 the weights are the closure and no pivot runs.
    """
    scale = _chain_scale(seq)
    top = scale - int(_inverse_indices(seq.values, kernel.values.min()))
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if top < np.iinfo(t).bits)
    dist = np.empty((kernel.n, kernel.n), dtype)
    for rows in _row_blocks(kernel.n):  # the shifts lie in 0 .. scale, so the unsafe cast to dtype is exact
        np.subtract(scale, _inverse_indices(seq.values, kernel.values[rows]), out=dist[rows], casting="unsafe")
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
        dist += 1
    np.fill_diagonal(dist, 0)
    return dist


def verify_metrization(kernel: AffinityMatrix, seq: LambdaSequence) -> tuple:
    """(verify_sandwich, verify_equivalence, quasi_triangle_constant) of chain_metric and delta_matrix, neither built.

    The quasi-triangle reads the level sets from the kernel: delta <=
    2 ** -c is {index >= c}, that is {K >= lambda(c - 1)} for c = 1 ..
    k + 1, and every pair for c = 0, a level only pairs below lambda(0)
    reach.  The sandwich and equivalence read the script index per row
    block and the integer closure: d < 2 ** -i is closure < 2 ** (s - i)
    for s = k + 1 (exact where d is, k <= 52), and d / delta is the exact
    closure * 2 ** (index - s).  The constant is 1.0 below 3 vertices.
    The quasi-triangle products run first, so their buffers and the
    closure are never alive together.
    """
    scale = _chain_scale(seq)
    constant = 1.0
    if kernel.n >= 3:
        levels = np.arange(seq.k + 1, -1 if kernel.values.min() < seq.values[0] else 0, -1)
        cuts = np.append(seq.values[::-1], 0.0)[: levels.size]  # lambda(c - 1), and 0.0 for c = 0
        constant = _quasi_triangle(kernel.values, np.greater_equal, cuts, np.ldexp(1.0, -levels))
    closure = _closure(kernel, seq)
    sandwich = _sandwich(kernel, seq, lambda rows, idx: closure[rows] < 1 << (scale - idx))
    equivalence = _equivalence(
        kernel.n,
        lambda rows, off: np.ldexp(closure[rows], _inverse_indices(seq.values, kernel.values[rows]) - scale, dtype=np.float64),
    )
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
    return _sandwich(kernel, seq, lambda rows, idx: metric.values[rows] < 2.0 ** -idx)


def _sandwich(kernel: AffinityMatrix, seq: LambdaSequence, ball) -> SandwichReport:
    """The sandwich report from ball(rows, idx), the mask of {d < 2**-idx} on a row block, and the script index of those rows."""
    # U(j) is {level > j}: the largest j whose U(j) holds the ball is one
    # below the smallest level in the ball (k for an empty ball).
    k = seq.k
    indices = tuple(range(1, k + 1))
    left_pass = [True] * k
    smallest = [k + 1] * k
    for rows in _row_blocks(kernel.n):
        level = _inverse_indices(seq.values, kernel.values[rows])
        for i, idx in enumerate(indices):
            mask = ball(rows, idx)
            left_pass[i] = left_pass[i] and bool((mask | (level <= idx)).all())
            smallest[i] = min(smallest[i], int(level.min(where=mask, initial=k + 1)))
    right_shift = tuple((low - 1 if low >= 1 else -idx - 1) - idx for idx, low in zip(indices, smallest))
    return SandwichReport(left_pass=tuple(left_pass), right_shift=right_shift)


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
        return EquivalenceReport(c_lo=float("nan"), c_hi=float("nan"), pairs=0)
    c_lo, c_hi = np.inf, -np.inf
    for rows in _row_blocks(n):
        off = np.arange(rows.start, rows.stop)[:, None] != np.arange(n)
        block = ratios(rows, off)
        c_lo = float(np.minimum(c_lo, block.min(where=off, initial=np.inf)))  # np.minimum keeps a NaN
        c_hi = float(np.maximum(c_hi, block.max(where=off, initial=-np.inf)))
    return EquivalenceReport(c_lo=c_lo, c_hi=c_hi, pairs=n * (n - 1))


def quasi_triangle_constant(delta: QuasiMetricMatrix) -> float:
    """Smallest C with delta(x, z) <= C * (delta(x, y) + delta(y, z)) over distinct x, y, z.

    Needs at least 3 vertices and symmetric, finite, nonnegative entries,
    else DomainError (delta_matrix output always is symmetric).  C is inf
    where two zero hops join a positive delta(x, z); 0 / 0 is skipped.
    The m distinct off-diagonal values go to _quasi_triangle: up to m**2
    products, about k + 1 for delta_matrix output (m is at most k + 2),
    slow for m near n**2 / 2.
    """
    if delta.n < 3:
        raise DomainError(f"need at least 3 vertices, got {delta.n}")
    vals = delta.values
    if not (vals.min() >= 0 and vals.max() < np.inf and kernels._symmetric(vals)):  # a NaN fails
        raise DomainError("delta must be symmetric, finite and nonnegative")
    distinct = _offdiagonal_values(vals)
    return _quasi_triangle(vals, np.less_equal, distinct, distinct)


def _offdiagonal_values(values: np.ndarray) -> np.ndarray:
    """Sorted distinct off-diagonal entries of a symmetric square array, read above the diagonal."""
    n = values.shape[0]
    parts = []
    for rows in _row_blocks(n):
        above = np.greater(np.arange(rows.start, n), np.arange(rows.start, rows.stop)[:, None])
        parts.append(_distinct(values[rows, rows.start:][above]))
    return _distinct(np.concatenate(parts))


def _quasi_triangle(source: np.ndarray, test: np.ufunc, cuts: np.ndarray, v: np.ndarray) -> float:
    """The constant from a matrix whose level p is {test(source, cuts[p])} off the diagonal, the pairs with delta <= v[p].

    v ascends through delta's off-diagonal values.  source is delta itself
    with test <= and cuts = v its distinct values, or the kernel with test
    >= and cuts descending thresholds (verify_metrization), where a level
    that no off-diagonal pair reaches costs at most an empty product.  The
    float32 product of the 0/1 indicators of levels p and q marks the
    pairs (x, z) that hops p then q join; the deepest level among them,
    x != z, has delta v[M], and v[M] / (v[p] + v[q]) bounds C from below;
    at the worst triple's hops it is C, by the same float division.
    Counts are exact for n < 2**24.

    For p < q the levels nest, so the deepest level M that hops (p, q)
    or (q, p) join lies between M(p, p) and M(q, q).  The diagonal
    products go first, by ascending v[q], until max(v) / (v[0] + v[q])
    cannot beat the worst ratio so far.  Where M(p, p) = M(q, q) the
    pair's value is known without a product; otherwise
    v[M(q, q)] / (v[p] + v[q]) bounds it, and the pairs are formed by
    descending bound until none beats the worst ratio, from a heap with
    one entry per q.  source is symmetric, so only (p, q) is formed,
    since (q, p) reaches the transpose, and a diagonal product only on
    and above the diagonal.
    """
    products = _Products(source.shape[0])
    # The deepest of some off-diagonal entries: cuts[0] is the shallowest value any can have.
    deepest = partial((np.maximum if test is np.less_equal else np.minimum).reduce, axis=None, initial=cuts[0])
    indicators = {}  # per level, so that each envelope is found once

    def joined(p: int, q: int, upper: bool) -> int:
        """The deepest level that hops p then q join, or -1 if none."""
        left, right = (indicators.setdefault(i, _Indicator(source, test, cuts[i], False)) for i in (p, q))
        return _joined(products, left, right, upper, deepest, test, cuts)

    worst = 0.0
    diagonal = []  # M(q, q), nondecreasing in q
    for q in range(v.size):
        if v[0] + v[q] > 0 and v[-1] / (v[0] + v[q]) <= worst:
            break
        top = joined(q, q, True)
        if v[q] == 0 < top:  # two zero hops join a positive delta: no finite C
            return np.inf
        diagonal.append(top)
        p = bisect.bisect_left(diagonal, top)  # from p on, M(p, q) = M(q, q)
        if top >= 0 and v[p] + v[q] > 0:
            worst = max(worst, float(v[top] / (v[p] + v[q])))

    # (bound, q, p): q's next pair below its first exact one, the bound negated for the min-heap.
    heap = [(-v[top] / (v[0] + v[q]), q, 0) for q, top in enumerate(diagonal) if diagonal[0] < top]
    heapq.heapify(heap)
    while heap and -heap[0][0] > worst:
        _, q, p = heapq.heappop(heap)
        top = diagonal[q]
        if diagonal[p + 1] < top:
            heapq.heappush(heap, (-v[top] / (v[p + 1] + v[q]), q, p + 1))
        reached = joined(p, q, False)
        if reached >= 0:
            worst = max(worst, float(v[reached] / (v[p] + v[q])))
    return worst


def _joined(products: _Products, left: _Indicator, right: _Indicator, upper: bool, deepest, test: np.ufunc, cuts: np.ndarray) -> int:
    """The first level p whose test(deepest(source), cuts[p]) holds, over the pairs x != z that left @ right joins (with upper, on and above the diagonal); -1 if none."""
    reached = []
    for rows, strip, lo in products.strips(left, shared=left is right):
        for cols, reach in products.tiles(strip, lo, right, rows.start if upper else 0):
            _clear_diagonal(reach, rows, cols)  # x != z
            hit = reach > 0
            if hit.any():
                reached.append(deepest(left.source[rows, cols], where=hit))
    return int(np.argmax(test(deepest(reached), cuts))) if reached else -1


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D array, as np.unique finds them but without importing numpy.ma (1.3 MB)."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])[: x.size]]


def lambda_to_json(seq: LambdaSequence) -> str:
    payload = {"values": [float(x) for x in seq.values], "iterations": seq.iterations}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def lambda_from_json(text: str | bytes) -> LambdaSequence:
    """Parse lambda_to_json's text; LambdaSequence judges the values, and every failure is MatrixFormatError."""
    try:
        payload = json.loads(text)
        if type(payload["values"]) is not list or {type(x) for x in payload["values"]} - {int, float}:
            raise TypeError("values must be a list of JSON numbers; strings, bools and lists are not converted")
        values = np.array(payload["values"], dtype=np.float64)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:  # no JSON or no Unicode; no object; no numbers
        raise MatrixFormatError(f"threshold JSON must be an object whose 'values' are numbers: {exc!r}") from exc
    return LambdaSequence(values=values, iterations=payload.get("iterations", 0))
