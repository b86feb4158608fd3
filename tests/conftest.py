"""Shared fixtures: the random kernel corpus, a Hypothesis strategy for
metrizable kernels, a tracemalloc peak helper, and independent oracles.

The oracles deliberately avoid the library's own code paths: composition
runs as a plain triple loop over python lists, shortest paths in the
small cases are exhaustive over simple paths, the chain metric's
one-step weights count the thresholds at or below each affinity and are
closed by scipy's Floyd-Warshall or one over Python integers, diffusion
distances difference every pair of coordinate rows explicitly, the
quasi-triangle constant is a plain loop over every triple, the
equivalence constants divide every off-diagonal pair, the
sandwich scans every level set {K >= lambda(j)} for every ball,
the CSV writer formats every entry with repr, and the diffusion
distances take the Gram identity with separate temporaries and an
explicit symmetrizing pass.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import strategies as st

from graphmetrize import affinity_matrix, chain_metric, compute_lambda_sequence, delta_matrix, kernels

CORPUS_SEED = 20240817
CORPUS_SIZE = 100


def random_kernel(rng, n):
    """Symmetric kernel with uniform(0,1) off-diagonal entries and diagonal 2."""
    upper = np.triu(rng.random((n, n)), 1)
    vals = upper + upper.T
    np.fill_diagonal(vals, 2.0)
    return affinity_matrix(vals)


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    kernels = []
    for _ in range(CORPUS_SIZE):
        n = int(rng.integers(5, 31))
        kernels.append(random_kernel(rng, n))
    return kernels


@pytest.fixture(scope="session")
def corpus_pipeline(corpus):
    """Kernel, threshold sequence, quasi-metric, and chain metric per instance."""
    out = []
    for kernel in corpus:
        seq = compute_lambda_sequence(kernel)
        dm = delta_matrix(kernel, seq)
        pm = chain_metric(kernel, seq)
        out.append((kernel, seq, dm, pm))
    return out


@pytest.fixture(params=range(1, 6))
def small_tiles(request, monkeypatch):
    """The block setting request.param instead of 128: product strips and column tiles that wide, and row blocks of max(1, param**2 // n) rows.

    Every blocked pass reads kernels._BLOCK at call time, so at n <= 25
    several tiles form, most of them ragged, the envelopes skip some, and
    the row passes (the delta and d streams, the sandwich, the
    equivalence, the distinct values and the diffusion distances) take
    several blocks.  A Hypothesis property that takes this
    fixture keeps one setting for all its examples.
    """
    monkeypatch.setattr(kernels, "_BLOCK", request.param)
    return request.param


@st.composite
def metrizable_kernels(draw, n):
    """Kernels that pass the sweep's flags, with ties and zeros.

    Entries come from a grid of a few values, so ties are common, and 0
    is allowed everywhere off the tridiagonal.  The base is uniform or
    decays like 1 / |i - j| (which gives several levels); either may be
    cut to a band or given dense diagonal blocks.  The diagonal equals
    or exceeds the row maximum.
    """
    grid = draw(st.integers(1, 4))
    cells = np.array(draw(st.lists(st.integers(0, grid), min_size=n * n, max_size=n * n)), dtype=float)
    vals = np.triu(cells.reshape(n, n), 1)
    vals = vals + vals.T
    gaps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    if draw(st.booleans()):
        vals = np.maximum(np.floor(4 * grid / np.maximum(gaps, 1)) - vals % 2, 0.0)
    shape = draw(st.sampled_from(("plain", "banded", "block")))
    if shape == "banded":
        vals[gaps > draw(st.integers(1, n))] = 0.0
    elif shape == "block":
        block = np.arange(n) // draw(st.integers(1, n))
        vals = np.where(block[:, None] == block[None, :], vals.max(), np.minimum(vals, 1.0))
    vals[gaps == 1] = np.maximum(vals[gaps == 1], 1.0)
    np.fill_diagonal(vals, vals.max() + draw(st.integers(0, 1)))
    return affinity_matrix(vals / grid)


def rank_transform(kernel):
    """The kernel under a strictly increasing map of its entries, their dense rank from 1 raised to 1.5, and the map as a dict."""
    distinct, ranks = np.unique(kernel.values, return_inverse=True)
    mapped = np.arange(1, distinct.size + 1) ** 1.5
    return affinity_matrix(mapped[ranks].reshape(kernel.values.shape)), dict(zip(distinct.tolist(), mapped.tolist()))


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_write_matrix_csv(values, path):
    """CSV writer without a cache: repr of every entry, one row per line."""
    arr = np.asarray(values, dtype=np.float64)
    with open(path, "w") as handle:
        for row in arr:
            handle.write(",".join(map(repr, row.tolist())) + "\n")


def brute_compose(left_bits, right_bits):
    """Triple-loop composition over python lists; the set definition verbatim."""
    n = len(left_bits)
    left = [list(map(bool, row)) for row in np.asarray(left_bits)]
    right = [list(map(bool, row)) for row in np.asarray(right_bits)]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        row = left[i]
        for j in range(n):
            for k in range(n):
                if row[k] and right[k][j]:
                    out[i, j] = True
                    break
    return out


def brute_power3(bits):
    return brute_compose(brute_compose(bits, bits), bits)


def exhaustive_chain_metric(weights):
    """Shortest path by enumerating every simple path; only for tiny n."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    assert n <= 7, "exhaustive oracle is factorial in n"
    best = w.copy()
    verts = range(n)
    for i in verts:
        for j in verts:
            if i == j:
                best[i, j] = 0.0
                continue
            others = [v for v in verts if v not in (i, j)]
            for length in range(1, len(others) + 1):
                for mids in itertools.permutations(others, length):
                    path = [i, *mids, j]
                    total = sum(w[a, b] for a, b in zip(path, path[1:]))
                    if total < best[i, j]:
                        best[i, j] = total
    return best


def reference_chain_weights(kernel, seq):
    """Script delta by counting thresholds: 2 ** -#{t <= K(x, y)}, zero diagonal."""
    counts = (kernel.values[:, :, None] >= np.asarray(seq.values)[None, None, :]).sum(axis=2)
    weights = np.power(2.0, -counts.astype(np.float64))
    np.fill_diagonal(weights, 0.0)
    return weights


def scipy_chain_metric(kernel, seq):
    """Chain metric from scipy's Floyd-Warshall over the reference weights; exact while sums fit 53 bits.

    scipy reads dense entries within 1e-8 of zero as missing edges, so the
    weights go in scaled by 2 ** (k + 1), as integers of at least 1.
    """
    scale = 2.0 ** (seq.k + 1)
    return csgraph.shortest_path(reference_chain_weights(kernel, seq) * scale, method="FW") / scale


def exact_chain_metric(kernel, seq):
    """Chain metric by Floyd-Warshall over Python integers (the weights times 2 ** (k + 1)), rounded once to float."""
    scale = 2 ** (seq.k + 1)
    dist = [[int(w * scale) for w in row] for row in reference_chain_weights(kernel, seq).tolist()]
    n = len(dist)
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][mid] + dist[mid][j])
    return np.array([[d / scale for d in row] for row in dist])


def reference_coordinates(decomp, t):
    """Eigenvector rows scaled by exp(t * eigenvalue), the spectrum clamped at 0 and its top (the null eigenvalue) read as 0."""
    spectrum = np.minimum(decomp.eigenvalues, 0.0)
    spectrum[-1] = 0.0
    return decomp.eigenvectors * np.exp(float(t) * spectrum)[None, :]


def tensor_diffusion_distances(decomp, t):
    """Diffusion distances from the n x n x n tensor of row differences; only for small n."""
    coords = reference_coordinates(decomp, t)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.einsum("ijl,ijl->ij", diff, diff))


def reference_diffusion_distance_matrix(decomp, t):
    """diffusion_distance_matrix with separate temporaries and an explicit symmetrizing pass: the judge of its in-place form."""
    coords = reference_coordinates(decomp, t)
    gram = coords @ coords.T
    norms = np.diagonal(gram)
    squared = norms[:, None] + norms[None, :] - 2.0 * gram
    squared = (squared + squared.T) / 2.0
    out = np.sqrt(np.maximum(squared, 0.0))
    np.fill_diagonal(out, 0.0)
    return out


def reference_sweep_step(kernel, threshold):
    """Smallest affinity the cube of {K >= threshold} reaches, inf if none, from the whole n x n float32 indicator.

    The sweep's step as the library formed it before its products were
    tiled: row blocks of a quarter of the rows, at least 128, each block's
    cube (ind[R] @ ind) @ ind[:, R.start:] on and above the diagonal.
    """
    values = kernel.values
    n = kernel.n
    ind = np.greater_equal(values, threshold).astype(np.float32)
    step = min(n, max(-(-n // 4), 128))
    low = np.inf
    for start in range(0, n, step):
        rows, cols = slice(start, start + step), slice(start, n)
        cube = np.matmul(np.matmul(ind[rows], ind), ind[:, cols])
        low = min(low, values[rows, cols].min(where=cube > 0, initial=np.inf))
    return float(low)


def reference_joined(level, p, q, upper):
    """The largest level that hops of level <= p then <= q join, x != z, or -1 if none, from the whole float32 indicator {level <= q}.

    The quasi-triangle product as the library formed it before its
    products were tiled; level ranks the diagonal above every p and q,
    and with upper only the blocks on and above the diagonal are formed.
    """
    n = level.shape[0]
    second = np.less_equal(level, q).astype(np.float32)
    step = min(n, max(-(-n // 4), 128))
    top = -1
    for start in range(0, n, step):
        rows, cols = slice(start, start + step), slice(start if upper else 0, n)
        reach = np.matmul(np.less_equal(level[rows], p).astype(np.float32), second[:, cols])
        np.fill_diagonal(reach[:, rows.start - cols.start:], 0.0)  # x != z
        top = max(top, int(level[rows, cols].max(where=reach > 0, initial=-1)))
    return top


def reference_quasi_triangle_constant(values):
    """The largest v[M(p, q)] / (v[p] + v[q]) over every pair of ranks, M from reference_joined: no pair left out by a bound."""
    values = np.asarray(values, dtype=np.float64)
    off = ~np.eye(values.shape[0], dtype=bool)
    v = np.unique(values[off])
    level = np.searchsorted(v, values)
    level[~off] = v.size
    worst = 0.0
    for p in range(v.size):
        for q in range(v.size):
            top = reference_joined(level, p, q, upper=False)
            if top >= 0 and v[p] + v[q] > 0:
                worst = max(worst, float(v[top] / (v[p] + v[q])))
    return worst


def brute_quasi_triangle_constant(values):
    """Max of delta(x, z) / (delta(x, y) + delta(y, z)) over distinct x, y, z: inf where a zero sum meets a positive delta(x, z), and 0 / 0 skipped."""
    rows = np.asarray(values, dtype=np.float64).tolist()
    n = len(rows)
    worst = 0.0
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            for z in range(n):
                if z in (x, y):
                    continue
                denom = rows[x][y] + rows[y][z]
                if denom > 0:
                    worst = max(worst, rows[x][z] / denom)
                elif rows[x][z] > 0:
                    return float("inf")
    return worst


def middle_vertex_quasi_triangle_constant(values):
    """brute_quasi_triangle_constant in numpy, one middle vertex y at a time: fast enough for n in the hundreds."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    worst = 0.0
    for y in range(n):
        total = values[:, y, None] + values[None, y, :]
        keep = (total > 0) & ~np.eye(n, dtype=bool)
        keep[y, :] = keep[:, y] = False
        if keep.any():
            worst = max(worst, float((values[keep] / total[keep]).max()))
    return worst


def brute_equivalence(delta, metric):
    """Equivalence report fields from d / delta over every off-diagonal pair, in Python floats."""
    ratios = [
        d / q
        for x, (d_row, q_row) in enumerate(zip(metric.values.tolist(), delta.values.tolist()))
        for y, (d, q) in enumerate(zip(d_row, q_row))
        if x != y
    ]
    c_lo, c_hi = min(ratios), max(ratios)
    return {"c_lo": c_lo, "c_hi": c_hi, "pairs": len(ratios), "passed": 0.125 <= c_lo and c_hi <= 2.0}


def reference_sandwich(kernel, seq, metric):
    """Sandwich report fields by the per-level scan: one boolean level set per threshold.

    For each index the left check is U(idx) inside the ball {d < 2**-idx};
    the right shift is the largest j with the ball inside U(j), minus idx,
    or -2 * idx - 1 when no level set holds the ball.
    """
    levels = [kernel.values >= t for t in seq.values]
    d = metric.values
    indices = []
    left_pass = []
    right_shift = []
    for idx in range(1, seq.k + 1):
        ball = d < 2.0 ** -idx
        indices.append(idx)
        left_pass.append(bool((ball | ~levels[idx]).all()))
        best = -idx - 1
        for j in range(seq.k, -1, -1):
            if (levels[j] | ~ball).all():
                best = j
                break
        right_shift.append(best - idx)
    tightest = min(right_shift) if right_shift else None
    return {
        "indices": tuple(indices),
        "left_pass": tuple(left_pass),
        "right_shift": tuple(right_shift),
        "tightest_shift": tightest,
        "passed": all(left_pass) and (tightest is None or tightest >= -1),
    }
