"""Binary relations on vertex pairs, stored as dense boolean matrices.

Composition is the support of the matrix product; the product runs in
float32 so BLAS does the inner loop, and its counts, at most n, are exact
for n < 2 ** 24.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, MatrixFormatError
from .kernels import AffinityMatrix, _freeze


@dataclass(frozen=True)
class BinaryRelation:
    """Relation on {0..n-1} x {0..n-1}; bits is a read-only bool matrix."""

    n: int
    bits: np.ndarray


def relation_from_bits(bits) -> BinaryRelation:
    arr = np.asarray(bits, dtype=bool)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(f"relation must be square, got shape {arr.shape}")
    return BinaryRelation(n=int(arr.shape[0]), bits=_freeze(arr, bool))


def level_set(kernel: AffinityMatrix, threshold: float) -> BinaryRelation:
    """Pairs whose affinity reaches the threshold: K >= t."""
    return BinaryRelation(n=kernel.n, bits=_freeze(kernel.values >= threshold, bool))


def compose(left: BinaryRelation, right: BinaryRelation) -> BinaryRelation:
    """(i, j) is in the result iff some k has (i, k) in left and (k, j) in right."""
    if left.n != right.n:
        raise InvalidParameterError(f"relation sizes differ: {left.n} vs {right.n}")
    product = left.bits.astype(np.float32) @ right.bits.astype(np.float32)
    return BinaryRelation(n=left.n, bits=_freeze(product > 0.0, bool))


def power3(relation: BinaryRelation) -> BinaryRelation:
    """Triple composition U o U o U."""
    return compose(compose(relation, relation), relation)


def is_subset(inner: BinaryRelation, outer: BinaryRelation) -> bool:
    """True when every pair of inner also belongs to outer."""
    if inner.n != outer.n:
        raise InvalidParameterError(f"relation sizes differ: {inner.n} vs {outer.n}")
    return bool((outer.bits | ~inner.bits).all())
