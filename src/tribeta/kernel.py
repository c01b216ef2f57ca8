"""Beta-spectrum evaluation: differential, integral, linearized and
moment forms, plus endpoint bookkeeping.

All forms share the prefactor F(p, Z) E_beta p_beta evaluated at the
electron energy (it sits outside the final-state sum).  The integral
form carries amplitude A/3 with the (.)^{3/2} radicand unscaled.

For m2nu < 0 (fit context) the standard experimental continuation is
used: gate theta(eps_n) with radicand eps_n^2 - m2nu, which is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import ValidationError
from .fss import FinalStateSpectrum
from .physics import CONSTANTS, fermi_factor

ArrayLike = Union[float, np.ndarray]

#: sanity bound on the neutrino mass-squared fit parameter (eV^2)
M2NU_SANITY_EV2 = 1.0e4


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
        if self.amplitude <= 0.0:
            raise ValidationError("amplitude must be positive")
        if not (18000.0 <= self.endpoint_ev <= 19000.0):
            raise ValidationError(
                f"endpoint {self.endpoint_ev} eV outside the physical "
                "configuration range [18000, 19000]")
        if abs(self.m2nu_ev2) >= M2NU_SANITY_EV2:
            raise ValidationError(
                f"|m2nu| = {abs(self.m2nu_ev2)} exceeds sanity bound {M2NU_SANITY_EV2}")
        if self.background < 0.0:
            raise ValidationError("background must be >= 0")

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


def _prefactor(eps: np.ndarray, z_daughter: int) -> np.ndarray:
    """F(p, Z) * E_beta * p_beta on an energy grid (eps > 0 required)."""
    if np.any(eps <= 0.0):
        raise ValidationError("spectrum evaluation requires eps_beta > 0")
    me = CONSTANTS.electron_mass_ev
    pc = np.sqrt(eps * (eps + 2.0 * me))
    return fermi_factor(pc, z_daughter) * (eps + me) * pc


def _open_energies(eps: np.ndarray, params: SpectrumParams,
                   fss: FinalStateSpectrum):
    """eps_n = W0_eff - eps - E_n with the threshold gate; shape (n, lines)."""
    w0eff = _effective_endpoints(eps, params)
    en = w0eff[:, None] - eps[:, None] - fss.energies[None, :]
    m2 = params.m2nu_ev2
    if m2 >= 0.0:
        gate = en > np.sqrt(m2)
        radicand = np.maximum(en * en - m2, 0.0)
    else:
        gate = en > 0.0
        radicand = en * en - m2
    return en, radicand, gate


def _as_grid(eps_beta: ArrayLike):
    eps = np.asarray(eps_beta, dtype=float)
    return np.atleast_1d(eps).ravel(), eps.shape, eps.ndim == 0


def _finalize(values: np.ndarray, shape, scalar: bool):
    if scalar:
        return float(values[0])
    return values.reshape(shape)


def _gated_roots(eps: np.ndarray, params: SpectrumParams,
                 fss: FinalStateSpectrum):
    """eps_n, the gated radicand (eps_n^2 - m2nu) theta and its square root."""
    en, rad, gate = _open_energies(eps, params, fss)
    rad = np.where(gate, rad, 0.0)
    return en, rad, np.sqrt(rad)


def spectral_sum(eps_beta: ArrayLike, params: SpectrumParams,
                 fss: FinalStateSpectrum) -> ArrayLike:
    """Inner integral-spectrum sum  sum_n P_n (eps_n^2 - m2nu)^{3/2} theta."""
    eps, shape, scalar = _as_grid(eps_beta)
    _, rad, root = _gated_roots(eps, params, fss)
    s = (fss.probabilities[None, :] * rad * root).sum(axis=1)
    return _finalize(s, shape, scalar)


def linearized_sum(eps_beta: ArrayLike, params: SpectrumParams,
                   fss: FinalStateSpectrum) -> ArrayLike:
    """Linearized inner sum  sum_n P_n [eps_n^3 - (3/2) m2nu eps_n] theta(eps_n)."""
    eps, shape, scalar = _as_grid(eps_beta)
    en, _, _ = _open_energies(eps, params, fss)
    open_gate = en > 0.0
    term = en**3 - 1.5 * params.m2nu_ev2 * en
    s = (fss.probabilities[None, :] * np.where(open_gate, term, 0.0)).sum(axis=1)
    return _finalize(s, shape, scalar)


def differential_spectrum(eps_beta: ArrayLike, params: SpectrumParams,
                          fss: FinalStateSpectrum) -> ArrayLike:
    """dN/deps: A F E p sum_n P_n eps_n sqrt(eps_n^2 - m2nu) theta."""
    eps, shape, scalar = _as_grid(eps_beta)
    en, rad, gate = _open_energies(eps, params, fss)
    inner = (fss.probabilities[None, :]
             * np.where(gate, en * np.sqrt(np.where(gate, rad, 0.0)), 0.0)).sum(axis=1)
    out = params.amplitude * _prefactor(eps, params.z_daughter) * inner
    return _finalize(out, shape, scalar)


def integral_spectrum(eps_beta: ArrayLike, params: SpectrumParams,
                      fss: FinalStateSpectrum) -> ArrayLike:
    """Integral spectrum  (A/3) F E p sum_n P_n (eps_n^2 - m2nu)^{3/2} theta."""
    eps, shape, scalar = _as_grid(eps_beta)
    s = spectral_sum(eps, params, fss)
    out = (params.amplitude / 3.0) * _prefactor(eps, params.z_daughter) * s
    return _finalize(out, shape, scalar)


def integral_spectrum_derivatives(eps_beta: ArrayLike, params: SpectrumParams,
                                  fss: FinalStateSpectrum):
    """`integral_spectrum` with its derivatives by W0 and by m2nu, in one pass.

    Returns (value, d/dW0, d/dm2nu); the value is bit-identical to
    `integral_spectrum`.  Per line, d/dW0 (eps_n^2 - m2nu)^{3/2} is
    3 eps_n (eps_n^2 - m2nu)^{1/2}, times 1 - 1/M_t with endpoint drift, and
    d/dm2nu is -(3/2) (eps_n^2 - m2nu)^{1/2}.  The term is C^1 at threshold
    for m2nu >= 0; for m2nu < 0 it jumps by |m2nu|^{3/2} at eps_n = 0, and
    these are the derivatives away from that jump.
    """
    eps, shape, scalar = _as_grid(eps_beta)
    en, rad, root = _gated_roots(eps, params, fss)
    prob = fss.probabilities[None, :]
    s = (prob * rad * root).sum(axis=1)
    prob_root = prob * root
    ds_dw0 = 3.0 * (prob_root * en).sum(axis=1)
    if params.endpoint_drift:
        ds_dw0 *= 1.0 - 1.0 / CONSTANTS.triton_electron_ratio
    ds_dm2 = -1.5 * prob_root.sum(axis=1)
    scale = (params.amplitude / 3.0) * _prefactor(eps, params.z_daughter)
    return tuple(_finalize(scale * v, shape, scalar)
                 for v in (s, ds_dw0, ds_dm2))


def linearized_spectrum(eps_beta: ArrayLike, params: SpectrumParams,
                        fss: FinalStateSpectrum) -> ArrayLike:
    """Integral spectrum with the linearized neutrino-mass term."""
    eps, shape, scalar = _as_grid(eps_beta)
    s = linearized_sum(eps, params, fss)
    out = (params.amplitude / 3.0) * _prefactor(eps, params.z_daughter) * s
    return _finalize(out, shape, scalar)

