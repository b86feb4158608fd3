"""Shared fixtures: the random kernel corpus and independent oracles.

The oracles deliberately avoid the library's own code paths: composition
runs as a plain triple loop over python lists, shortest paths in the
small cases are exhaustive over simple paths, diffusion distances
difference every pair of coordinate rows explicitly, and the
quasi-triangle constant is a plain loop over every triple.
"""

import itertools

import numpy as np
import pytest

from graphmetrize import affinity_matrix, chain_metric, compute_lambda_sequence, delta_matrix

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


def tensor_diffusion_distances(decomp, t):
    """Diffusion distances from the n x n x n tensor of row differences; only for small n."""
    coords = decomp.eigenvectors * np.exp(t * decomp.eigenvalues)[None, :]
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.einsum("ijl,ijl->ij", diff, diff))


def brute_quasi_triangle_constant(values):
    """Max of delta(x, z) / (delta(x, y) + delta(y, z)) over distinct x, y, z with a positive sum."""
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
    return worst
