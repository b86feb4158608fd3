"""Triple composition and inclusion for relations stored as square bool matrices.

Nothing in the pipeline imports this module: the sweep and the nesting
check (metrize.level_nesting) cube level sets with metrize's own helper,
which power3 shares.  The module stays only because the benchmark calls
power3 and is_subset from its corpus workload and its tracer imports the
module; it goes once the benchmark stops doing so.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .metrize import _cube


def power3(bits) -> np.ndarray:
    """Triple composition U o U o U of a square bool matrix."""
    return _cube(np.asarray(bits, dtype=bool))


def is_subset(inner, outer) -> bool:
    """True when every pair of inner also belongs to outer."""
    inner = np.asarray(inner, dtype=bool)
    outer = np.asarray(outer, dtype=bool)
    if inner.shape != outer.shape:
        raise InvalidParameterError(f"relation shapes differ: {inner.shape} vs {outer.shape}")
    return bool((outer | ~inner).all())
