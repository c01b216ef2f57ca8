"""Beta-spectrum evaluation: differential, integral and linearized
forms, plus endpoint bookkeeping.

All forms share the prefactor F(p, Z) E_beta p_beta evaluated at the
electron energy (it sits outside the final-state sum); it depends only on
the energies and Z, so the integral forms accept it precomputed
(`response.Lattice` computes it once per nuclear charge).  The integral
form carries amplitude A/3 with the (.)^{3/2} radicand unscaled.

For m2nu < 0 (fit context) the standard experimental continuation is
used: gate theta(eps_n) with radicand eps_n^2 - m2nu, which is positive.

The linearized sum is the moment form of `fss`, one prefix-sum lookup per
energy.  The exact line sums run over blocks of energies, about
`_BLOCK_ELEMENTS` (energies x lines) elements each, so working memory
stays bounded whatever the number of lines and energies.  The block
buffers are allocated once per call and every block fills views of them
in place, so a call maps no new memory per block.  Energies where every
line is closed are skipped, and that is exact: the lines are sorted, so
when the available energy W0_eff - eps is at or below the lowest line,
eps_n <= 0 for every line, theta(eps_n) closes it and the row sums to 0.
Each sum weights the square roots by P once, P_n (eps_n^2 - m2nu)^{1/2},
and takes every row sum as one `np.einsum` contraction of those weights
(no BLAS call), so a row is the same contraction of the same terms as in
one dense pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import ValidationError
from .fss import FinalStateSpectrum, moment_form_spectrum_term
from .physics import CONSTANTS, fermi_factor

ArrayLike = Union[float, np.ndarray]

#: sanity bound on the neutrino mass-squared fit parameter (eV^2)
M2NU_SANITY_EV2 = 1.0e4

#: elements per (energies x lines) block of a line sum: each of the three
#: float block buffers stays near 256 KB, inside a core's cache; they are
#: allocated once per call and reused by every block
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class SpectrumParams:
    """The fit quadruple (A, W0, m2nu, b) plus model options."""

    amplitude: float
    endpoint_ev: float
    m2nu_ev2: float = 0.0
    background: float = 0.0
    z_daughter: int = 2
    endpoint_drift: bool = False

    def __post_init__(self):
        # `not lo <= x < hi` so that NaN fails too
        if not 0.0 < self.amplitude < math.inf:
            raise ValidationError("amplitude must be finite and positive")
        if not (18000.0 <= self.endpoint_ev <= 19000.0):
            raise ValidationError(
                f"endpoint {self.endpoint_ev} eV outside the physical "
                "configuration range [18000, 19000]")
        if not abs(self.m2nu_ev2) < M2NU_SANITY_EV2:
            raise ValidationError(
                f"|m2nu| = {abs(self.m2nu_ev2)} exceeds sanity bound {M2NU_SANITY_EV2}")
        if not 0.0 <= self.background < math.inf:
            raise ValidationError("background must be finite and >= 0")

    def with_values(self, **kwargs) -> "SpectrumParams":
        return replace(self, **kwargs)


def effective_endpoint(eps_beta: ArrayLike, endpoint_ev: float) -> ArrayLike:
    """Energy-dependent endpoint W0 - (W0 - eps)/M_t (mass ratio units)."""
    return endpoint_ev - (endpoint_ev - np.asarray(eps_beta, dtype=float)) \
        / CONSTANTS.triton_electron_ratio


def _effective_endpoints(eps: np.ndarray,
                         params: SpectrumParams) -> np.ndarray:
    if params.endpoint_drift:
        return effective_endpoint(eps, params.endpoint_ev)
    return np.full_like(eps, params.endpoint_ev)


def spectrum_prefactor(eps: np.ndarray, z_daughter: int) -> np.ndarray:
    """F(p, Z) * E_beta * p_beta on an energy grid (eps > 0 required)."""
    if np.any(eps <= 0.0):
        raise ValidationError("spectrum evaluation requires eps_beta > 0")
    me = CONSTANTS.electron_mass_ev
    pc = np.sqrt(eps * (eps + 2.0 * me))
    return fermi_factor(pc, z_daughter) * (eps + me) * pc


def _line_blocks(eps: np.ndarray, params: SpectrumParams,
                 fss: FinalStateSpectrum):
    """Yield (rows, eps_n, gated radicand, its square root) per energy block.

    eps_n = W0_eff - eps - E_n over all lines, and the radicand
    eps_n^2 - m2nu is gated by theta(eps_n) (eps_n > sqrt(m2nu) for
    m2nu >= 0).  Only rows with available energy above the lowest line are
    yielded, about `_BLOCK_ELEMENTS` elements per block; the sums of the
    other rows are 0.  The arrays are views of buffers allocated once per
    call, which the next block overwrites; the caller may overwrite the
    square root in place.
    """
    avail = _effective_endpoints(eps, params) - eps
    open_rows = np.flatnonzero(avail > fss.energies[0])
    if not open_rows.size:
        return
    step = min(max(1, _BLOCK_ELEMENTS // len(fss)), open_rows.size)
    m2 = params.m2nu_ev2
    threshold = np.sqrt(m2) if m2 >= 0.0 else 0.0
    buffers = [np.empty((step, len(fss))) for _ in range(3)]
    closed_buffer = np.empty((step, len(fss)), dtype=bool)
    for start in range(0, len(open_rows), step):
        rows = open_rows[start:start + step]
        en, rad, root = (b[:len(rows)] for b in buffers)
        closed = closed_buffer[:len(rows)]
        np.subtract(avail[rows, None], fss.energies[None, :], out=en)
        np.multiply(en, en, out=rad)
        np.subtract(rad, m2, out=rad)
        if m2 >= 0.0:
            np.maximum(rad, 0.0, out=rad)
        np.less_equal(en, threshold, out=closed)
        np.copyto(rad, 0.0, where=closed)
        np.sqrt(rad, out=root)
        yield rows, en, rad, root


def _as_grid(eps_beta: ArrayLike):
    eps = np.asarray(eps_beta, dtype=float)
    return np.atleast_1d(eps).ravel(), eps.shape, eps.ndim == 0


def _finalize(values: np.ndarray, shape, scalar: bool):
    if scalar:
        return float(values[0])
    return values.reshape(shape)


def spectral_sum(eps_beta: ArrayLike, params: SpectrumParams,
                 fss: FinalStateSpectrum) -> ArrayLike:
    """Inner integral-spectrum sum  sum_n P_n (eps_n^2 - m2nu)^{3/2} theta."""
    eps, shape, scalar = _as_grid(eps_beta)
    s = np.zeros_like(eps)
    for rows, _, rad, root in _line_blocks(eps, params, fss):
        weighted = np.multiply(fss.probabilities, root, out=root)
        s[rows] = np.einsum("ij,ij->i", weighted, rad)
    return _finalize(s, shape, scalar)


def linearized_sum(eps_beta: ArrayLike, params: SpectrumParams,
                   fss: FinalStateSpectrum) -> ArrayLike:
    """Linearized inner sum  sum_n P_n [eps_n^3 - (3/2) m2nu eps_n] theta(eps_n)
    in its moment form."""
    eps, shape, scalar = _as_grid(eps_beta)
    avail = _effective_endpoints(eps, params) - eps
    return _finalize(moment_form_spectrum_term(fss, avail, params.m2nu_ev2),
                     shape, scalar)


def differential_spectrum(eps_beta: ArrayLike, params: SpectrumParams,
                          fss: FinalStateSpectrum) -> ArrayLike:
    """dN/deps: A F E p sum_n P_n eps_n sqrt(eps_n^2 - m2nu) theta."""
    eps, shape, scalar = _as_grid(eps_beta)
    inner = np.zeros_like(eps)
    for rows, en, _, root in _line_blocks(eps, params, fss):
        # a closed line adds +0 * eps_n (-0 where eps_n < 0) where the theta
        # gate adds +0; the contraction's sums start at +0, so are never -0,
        # and adding -0 or +0 to them gives the same bits
        weighted = np.multiply(fss.probabilities, root, out=root)
        inner[rows] = np.einsum("ij,ij->i", weighted, en)
    out = params.amplitude * spectrum_prefactor(eps, params.z_daughter) * inner
    return _finalize(out, shape, scalar)


def integral_spectrum(eps_beta: ArrayLike, params: SpectrumParams,
                      fss: FinalStateSpectrum, prefactor=None) -> ArrayLike:
    """Integral spectrum  (A/3) F E p sum_n P_n (eps_n^2 - m2nu)^{3/2} theta.

    `prefactor`, the `spectrum_prefactor` of these energies at the params'
    Z, spares computing it again; the result has the same bits."""
    eps, shape, scalar = _as_grid(eps_beta)
    s = spectral_sum(eps, params, fss)
    if prefactor is None:
        prefactor = spectrum_prefactor(eps, params.z_daughter)
    out = (params.amplitude / 3.0) * prefactor * s
    return _finalize(out, shape, scalar)


def integral_spectrum_derivatives(eps_beta: ArrayLike, params: SpectrumParams,
                                  fss: FinalStateSpectrum, prefactor=None):
    """`integral_spectrum` with its derivatives by W0 and by m2nu, in one pass.

    Returns (value, d/dW0, d/dm2nu); the value is bit-identical to
    `integral_spectrum`, and `prefactor` is as there.  Per line, d/dW0
    (eps_n^2 - m2nu)^{3/2} is 3 eps_n (eps_n^2 - m2nu)^{1/2}, times
    1 - 1/M_t with endpoint drift, and d/dm2nu is
    -(3/2) (eps_n^2 - m2nu)^{1/2}.  The term is C^1 at threshold for
    m2nu >= 0; for m2nu < 0 it jumps by |m2nu|^{3/2} at eps_n = 0, and
    these are the derivatives away from that jump.
    """
    eps, shape, scalar = _as_grid(eps_beta)
    s, ds_dw0, ds_dm2 = (np.zeros_like(eps) for _ in range(3))
    for rows, en, rad, root in _line_blocks(eps, params, fss):
        weighted = np.multiply(fss.probabilities, root, out=root)
        s[rows] = np.einsum("ij,ij->i", weighted, rad)
        ds_dm2[rows] = np.einsum("ij->i", weighted)
        ds_dw0[rows] = np.einsum("ij,ij->i", weighted, en)
    # scaled after the loop, so skipped rows get -1.5 * 0 = -0 as well
    ds_dw0 *= 3.0
    ds_dm2 *= -1.5
    if params.endpoint_drift:
        ds_dw0 *= 1.0 - 1.0 / CONSTANTS.triton_electron_ratio
    if prefactor is None:
        prefactor = spectrum_prefactor(eps, params.z_daughter)
    scale = (params.amplitude / 3.0) * prefactor
    return tuple(_finalize(scale * v, shape, scalar)
                 for v in (s, ds_dw0, ds_dm2))


def linearized_spectrum(eps_beta: ArrayLike, params: SpectrumParams,
                        fss: FinalStateSpectrum) -> ArrayLike:
    """Integral spectrum with the linearized neutrino-mass term."""
    eps, shape, scalar = _as_grid(eps_beta)
    s = linearized_sum(eps, params, fss)
    prefactor = spectrum_prefactor(eps, params.z_daughter)
    out = (params.amplitude / 3.0) * prefactor * s
    return _finalize(out, shape, scalar)

