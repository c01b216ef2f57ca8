"""Spherical Bessel tables j_l(x), l = 0..l_max, from scipy.special.spherical_jn."""

from __future__ import annotations

import numpy as np
from scipy.special import spherical_jn


def spherical_jn_table(l_max: int, x) -> np.ndarray:
    """j_l(x) for l = 0..l_max; returns an array of shape (l_max+1, len(x))."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise ValueError("arguments must be >= 0")
    return spherical_jn(np.arange(l_max + 1)[:, None], x[None, :])
