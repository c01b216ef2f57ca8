"""Spherical Bessel table: layout, input checks and mpmath oracles."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import spherical_jn

from tribeta.franck_condon import spherical_jn_table

mp.mp.dps = 40


def jl_mp(l, x):
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    x = mp.mpf(x)
    return float(mp.sqrt(mp.pi / (2 * x)) * mp.besselj(l + mp.mpf(1) / 2, x))


def test_table_layout():
    x = np.concatenate([np.geomspace(1e-3, 300.0, 400), [0.0]])
    table = spherical_jn_table(80, x)
    assert table.shape == (81, x.size)
    for l in range(81):
        assert np.array_equal(table[l], spherical_jn(l, x)), f"l={l}"


@pytest.mark.parametrize("l_max,x", [(-1, [1.0]), (3, [1.0, -1e-9])])
def test_invalid_input(l_max, x):
    with pytest.raises(ValueError):
        spherical_jn_table(l_max, np.array(x))


@pytest.mark.parametrize("l,x", [
    (0, 0.5), (1, 1e-7), (25, 26.156), (60, 26.156), (60, 223.7),
    (90, 120.0), (40, 5.6), (75, 80.0),
])
def test_against_mpmath(l, x):
    ref = jl_mp(l, x)
    val = spherical_jn_table(l, np.array([x]))[l, 0]
    if abs(ref) > 1e-250:
        assert abs(val - ref) <= 1e-11 * abs(ref)
    else:
        assert abs(val) < 1e-240


def test_zero_argument():
    table = spherical_jn_table(5, np.array([0.0]))
    assert table[0, 0] == 1.0
    assert np.all(table[1:, 0] == 0.0)


def test_tiny_argument_series():
    x = 1e-8
    j0, j1 = spherical_jn_table(1, np.array([x]))[:, 0]
    assert j0 == pytest.approx(1.0 - x * x / 6.0, rel=1e-14)
    assert j1 == pytest.approx(x / 3.0, rel=1e-9)


def test_unitarity_sum_rule():
    # sum_l (2l+1) j_l^2(x) = 1
    for x in (3.7, 26.156, 120.0):
        l_top = int(x) + 80
        table = spherical_jn_table(l_top, np.array([x]))
        ls = np.arange(l_top + 1)
        total = float((((2 * ls + 1)[:, None]) * table**2).sum())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_mixed_scale_batch():
    x = np.array([0.5, 2.0, 26.0, 223.7])
    table = spherical_jn_table(60, x)
    ref0 = np.sin(x) / x
    assert np.allclose(table[0], ref0, rtol=1e-12)
