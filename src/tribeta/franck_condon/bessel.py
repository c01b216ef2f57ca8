"""Spherical Bessel functions j_l(x) for high orders.

Upward recursion is unstable once l exceeds x, so the table is built by
Miller's downward recursion: start well above both l_max and the classical
turning point with an arbitrary tiny seed, recurse down, then normalize
against the closed forms for j_0 / j_1 (whichever is larger in magnitude,
since their zeros interlace).  Per-column rescaling guards against
overflow during the downward growth.
"""

from __future__ import annotations

import numpy as np

_SERIES_CUTOFF = 1e-6
_RESCALE_LIMIT = 1e250


def spherical_jn_table(l_max: int, x) -> np.ndarray:
    """j_l(x) for l = 0..l_max; returns an array of shape (l_max+1, len(x))."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise ValueError("arguments must be >= 0")
    out = np.zeros((l_max + 1, x.size))

    small = x < _SERIES_CUTOFF
    if small.any():
        xs = x[small]
        # leading series terms: x^l / (2l+1)!! * (1 - x^2/(2(2l+3)))
        dfact = 1.0
        for l in range(l_max + 1):
            dfact *= 2 * l + 1
            out[l, small] = xs**l / dfact * (1.0 - xs * xs / (2.0 * (2 * l + 3)))

    big = ~small
    if big.any():
        xb = x[big]
        out[:, big] = _miller_downward(l_max, xb)
    return out


def _miller_downward(l_max: int, x: np.ndarray) -> np.ndarray:
    n = x.size
    x_max = float(x.max())
    # start above the turning point with buffer; the seed contamination by
    # the irregular solution decays on the way down
    start = int(max(l_max, np.ceil(x_max))) + 40 + int(2.0 * x_max ** (1.0 / 3.0))
    table = np.zeros((l_max + 2, n))
    j_up = np.zeros(n)              # j_{L+1}
    j_cur = np.full(n, 1e-300)      # j_L (arbitrary seed)
    for ell in range(start, -1, -1):
        j_down = (2 * ell + 3) / x * j_cur - j_up
        j_up, j_cur = j_cur, j_down
        if ell <= l_max + 1:
            table[ell] = j_cur
        too_big = np.abs(j_cur) > _RESCALE_LIMIT
        if too_big.any():
            j_up[too_big] *= 1e-250
            j_cur[too_big] *= 1e-250
            table[:, too_big] *= 1e-250
    j0 = np.sin(x) / x
    j1 = np.sin(x) / (x * x) - np.cos(x) / x
    use0 = np.abs(table[0]) >= np.abs(table[1])
    denom0 = np.where(table[0] == 0.0, 1.0, table[0])
    denom1 = np.where(table[1] == 0.0, 1.0, table[1])
    scale = np.where(use0, j0 / denom0, j1 / denom1)
    return table[: l_max + 1] * scale

