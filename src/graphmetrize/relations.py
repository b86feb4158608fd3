"""Triple composition and inclusion for relations stored as square bool matrices.

Nothing in the pipeline imports this module: the sweep and the nesting
check (metrize.level_nesting) cube level sets with metrize's own
buffered step.  The module stays only because the benchmark calls
power3 and is_subset from its corpus workload and its tracer imports the
module; it goes once the benchmark stops doing so.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError


def power3(bits) -> np.ndarray:
    """Triple composition U o U o U of a square bool matrix U, which need not be symmetric.

    U o U o U is where the float32 path counts of U's 0/1 indicator are > 0.
    Every term is a product of nonnegative counts, so a sum with a path in it
    is >= 1 however it rounds, and no count overflows for an n that fits in memory.
    """
    ind = np.asarray(bits, dtype=bool).astype(np.float32)
    return ind @ ind @ ind > 0


def is_subset(inner, outer) -> bool:
    """True when every pair of inner also belongs to outer."""
    inner = np.asarray(inner, dtype=bool)
    outer = np.asarray(outer, dtype=bool)
    if inner.shape != outer.shape:
        raise InvalidParameterError(f"relation shapes differ: {inner.shape} vs {outer.shape}")
    return bool((outer | ~inner).all())
