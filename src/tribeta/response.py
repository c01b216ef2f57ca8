"""Gaussian instrument response and Poisson pseudo-data generation.

Convolution uses trapezoidal quadrature on a uniform offset grid spanning
+-k sigma with step <= sigma/10; the kernel weights are normalized to unit
sum so constants pass through exactly.

Poisson sampling is implemented directly on top of the PCG64 uniform
stream so that datasets are reproducible bit-for-bit from the seed:
multiplication inversion (Knuth) for mu < 30, Hormann's PTRS transformed
rejection above.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, ModelError, ReadOnlyArrays,
                     ValidationError, read_document, write_document,
                     write_table)
from .fss import FinalStateSpectrum
from .kernel import (SpectrumParams, integral_spectrum,
                     integral_spectrum_derivatives, spectrum_prefactor)

_PTRS_SWITCH = 30.0
#: largest expected count sampled (NaN fails the test too): counts are
#: int64, and half its range leaves the draw room above mu
_MU_MAX = 2.0 ** 62
#: the pseudo-data generator's bin range about the endpoint W0
BINS_BELOW_W0_EV = 1000.0
BINS_ABOVE_W0_EV = 50.0


@dataclass(frozen=True)
class ResponseModel:
    """Gaussian resolution function with its convolution grid."""

    sigma_ev: float
    half_width_sigmas: float = 6.0
    step_fraction: float = 0.1   # grid step in units of sigma

    def __post_init__(self):
        # `not lo <= x < hi` so that NaN fails too
        if not 0.0 < self.sigma_ev < math.inf:
            raise ConfigurationError("sigma must be finite and positive")
        if not 6.0 <= self.half_width_sigmas < math.inf:
            raise ConfigurationError(
                "convolution support must be finite and span >= 6 sigma")
        if not 0.0 < self.step_fraction <= 0.1 + 1e-12:
            raise ConfigurationError("grid step must satisfy 0 < step <= sigma/10")

    def offsets(self) -> np.ndarray:
        n = int(math.ceil(self.half_width_sigmas / self.step_fraction))
        return np.arange(-n, n + 1) * (self.step_fraction * self.sigma_ev)

    def weights(self) -> np.ndarray:
        """Trapezoid weights of the normalized Gaussian kernel (unit sum)."""
        x = self.offsets()
        w = np.exp(-x * x / (2.0 * self.sigma_ev ** 2))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w / w.sum()


@dataclass(frozen=True)
class Lattice(ReadOnlyArrays):
    """A binning: the bin centres under a response, with their bins x
    offsets convolution grid reduced to its distinct energies.

    Bin centres on the offset lattice (2 eV bins, sigma/10 = 0.25 eV steps)
    share most grid energies, so a spectrum is evaluated once per distinct
    energy and scattered back onto the grid: `energies[inverse]` is the grid
    c_i - o_k.  Expected counts and the fits of them on the same bins share
    one lattice, built once.  The spectrum prefactor F(p, Z) E p at
    `energies` is computed once per nuclear charge Z and kept for every
    later pass.  Its arrays are read-only, also after unpickling.
    """

    response: ResponseModel
    bin_centers: np.ndarray
    energies: np.ndarray
    inverse: np.ndarray      # shape (bins, offsets)
    weights: np.ndarray
    _prefactors: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @classmethod
    def build(cls, response: ResponseModel, bin_centers) -> "Lattice":
        centers = np.asarray(bin_centers, dtype=float).ravel()
        grid = centers[:, None] - response.offsets()[None, :]
        energies, inverse = np.unique(grid, return_inverse=True)
        return cls(response, centers, energies, inverse.reshape(grid.shape),
                   response.weights())

    def prefactor(self, z_daughter: int) -> np.ndarray:
        """`kernel.spectrum_prefactor` at `energies`, read-only."""
        if z_daughter not in self._prefactors:
            values = spectrum_prefactor(self.energies, z_daughter)
            values.setflags(write=False)
            self._prefactors[z_daughter] = values
        return self._prefactors[z_daughter]

    def smear(self, values: np.ndarray) -> np.ndarray:
        """Convolve values given at `energies`; one result per bin."""
        return np.asarray(values, dtype=float)[self.inverse] @ self.weights

    def counts(self, params: SpectrumParams, fss: FinalStateSpectrum,
               exposure: float) -> np.ndarray:
        """mu_i = exposure * (convolved integral spectrum)(c_i) + background."""
        values = integral_spectrum(self.energies, params, fss,
                                   self.prefactor(params.z_daughter))
        return exposure * self.smear(values) + params.background

    def counts_with_derivatives(self, params: SpectrumParams,
                                fss: FinalStateSpectrum, exposure: float):
        """(mu, dmu/dW0, dmu/dm2nu) from one kernel pass; mu is bit-identical
        to `counts`."""
        values, d_w0, d_m2 = integral_spectrum_derivatives(
            self.energies, params, fss, self.prefactor(params.z_daughter))
        return (exposure * self.smear(values) + params.background,
                exposure * self.smear(d_w0), exposure * self.smear(d_m2))


def convolve(spectrum: Callable, response: ResponseModel) -> Callable:
    """Smeared spectrum  N_exp(e) = int de' R(e - e') N(e').

    Returns a vectorized callable.  The input function must accept a 1-D
    numpy array of energies and act elementwise: it is called once per
    evaluation with the distinct energies of the evaluation's `Lattice`, a
    read-only array.
    """

    def smeared(eps_beta):
        eps = np.asarray(eps_beta, dtype=float)
        lattice = Lattice.build(response, eps)
        out = lattice.smear(spectrum(lattice.energies))
        if eps.ndim == 0:
            return float(out[0])
        return out.reshape(eps.shape)

    return smeared


@dataclass(frozen=True)
class PseudoDataset(ReadOnlyArrays):
    """Binned observed counts with the generating truth record."""

    bin_centers: np.ndarray
    counts: np.ndarray
    exposure: float
    seed: int
    truth: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.counts < 0):
            raise ValidationError("counts must be nonnegative")

    def __len__(self) -> int:
        return len(self.bin_centers)


# ---------------------------------------------------------------------------
# seed-stable Poisson sampling

def _poisson_knuth(rng: np.random.Generator, mu: float) -> int:
    """Inversion by multiplication of uniforms; O(mu), for mu < 30."""
    limit = math.exp(-mu)
    k = 0
    prod = rng.random()
    while prod > limit:
        k += 1
        prod *= rng.random()
    return k


def _poisson_ptrs(rng: np.random.Generator, mu: float) -> int:
    """Hormann's PTRS transformed rejection, valid for mu >= 10."""
    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mu = math.log(mu)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mu + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
                <= k * log_mu - mu - math.lgamma(k + 1.0)):
            return int(k)


def poisson_sample(rng: np.random.Generator, mus: np.ndarray) -> np.ndarray:
    """Draw one Poisson count per expected value, sequentially on one stream."""
    out = np.empty(len(mus), dtype=np.int64)
    for i, mu in enumerate(mus):
        if mu < 0.0:
            raise ModelError(f"negative expected counts mu = {mu} in bin {i}")
        if not mu < _MU_MAX:
            raise ModelError(
                f"expected counts mu = {mu} in bin {i} is not below 2^62")
        if mu == 0.0:
            out[i] = 0
        elif mu < _PTRS_SWITCH:
            out[i] = _poisson_knuth(rng, float(mu))
        else:
            out[i] = _poisson_ptrs(rng, float(mu))
    return out


def expected_counts(params: SpectrumParams, fss: FinalStateSpectrum,
                    response: ResponseModel, bin_centers: np.ndarray,
                    exposure: float) -> np.ndarray:
    """mu_i = exposure * (convolved integral spectrum)(c_i) + background."""
    return Lattice.build(response, bin_centers).counts(params, fss, exposure)


def expected_dataset(params: SpectrumParams, fss: FinalStateSpectrum,
                     lattice: Lattice, exposure: float) -> PseudoDataset:
    """The expected counts mu on the lattice's bins as a dataset (the Asimov
    dataset): float counts, seed -1 and the truth record of
    `generate_pseudodata`, which draws its counts from it.

    exposure = 0 is allowed and yields background-only counts.
    """
    centers = lattice.bin_centers
    if exposure < 0.0:
        raise ValidationError("exposure must be >= 0")
    w0 = params.endpoint_ev
    if np.any(centers < w0 - BINS_BELOW_W0_EV) or \
            np.any(centers > w0 + BINS_ABOVE_W0_EV):
        raise ValidationError(
            f"bins must lie within [W0 - {BINS_BELOW_W0_EV:g} eV, "
            f"W0 + {BINS_ABOVE_W0_EV:g} eV]")
    truth = {
        "params": asdict(params),
        "response": asdict(lattice.response),
        "exposure": exposure,
        "seed": None,
        "fss_lines": len(fss),
        "fss_total_probability": fss.total_probability,
    }
    return PseudoDataset(bin_centers=centers,
                         counts=lattice.counts(params, fss, exposure),
                         exposure=exposure, seed=-1, truth=truth)


def draw_pseudodata(expected: PseudoDataset, seed: int) -> PseudoDataset:
    """Poisson counts drawn from the expected counts of `expected_dataset`;
    deterministic given the seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = poisson_sample(rng, expected.counts)
    return PseudoDataset(bin_centers=expected.bin_centers, counts=counts,
                         exposure=expected.exposure, seed=seed,
                         truth={**expected.truth, "seed": seed})


def generate_pseudodata(params: SpectrumParams, fss: FinalStateSpectrum,
                        response: ResponseModel, bin_centers,
                        exposure: float, seed: int) -> PseudoDataset:
    """Poisson pseudo-experiment; deterministic given the seed.

    exposure = 0 is allowed and yields background-only counts.
    """
    expected = expected_dataset(params, fss,
                                Lattice.build(response, bin_centers), exposure)
    return draw_pseudodata(expected, seed)


def save_dataset(dataset: PseudoDataset, path) -> None:
    """CSV `bin_center_eV, counts` plus the JSON truth sidecar `<path>.json`;
    `path` is a string or an `os.PathLike`.  Counts must be integers, as
    `load_dataset` reads them: the float counts of an `expected_dataset`
    are refused before any file is written."""
    path = os.fspath(path)
    if not np.issubdtype(dataset.counts.dtype, np.integer):
        raise ValidationError(f"{path}: counts must be integers, got "
                              f"{dataset.counts.dtype} counts")
    write_table(path, ["bin_center_eV", "counts"],
                zip(dataset.bin_centers, dataset.counts))
    write_document(path + ".json", dataset.truth)


def load_dataset(path) -> PseudoDataset:
    """Read a `save_dataset` CSV, with exposure and seed from `<path>.json`;
    `path` is a string or an `os.PathLike`."""
    path = os.fspath(path)
    centers, counts = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["bin_center_eV", "counts"]:
            raise ValidationError(f"{path}: unexpected dataset header {header!r}")
        for row in reader:
            if not row:
                continue
            try:
                center, count = float(row[0]), int(row[1])
                # `x < inf` is False for NaN too
                ok = abs(center) < math.inf and count >= 0
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise ValidationError(
                    f"{path} row {reader.line_num}: expected a finite bin "
                    f"centre and an integer count >= 0, got {row!r}")
            centers.append(center)
            counts.append(count)
    sidecar = path + ".json"
    try:
        truth = read_document(sidecar)
    except FileNotFoundError:
        truth, fallback = {}, "not found"
    else:
        fallback = None if "exposure" in truth else "has no exposure"
    if fallback:
        warnings.warn(f"dataset sidecar {sidecar} {fallback}; using "
                      "exposure = 1.0", stacklevel=2)
    exposure = truth.get("exposure", 1.0)
    seed = truth.get("seed", -1)
    # type() excludes bools; `not 0 <= x < inf` fails NaN too
    if type(exposure) not in (int, float) or not 0.0 <= exposure < math.inf:
        raise ValidationError(f"{sidecar} exposure: expected a finite number "
                              f">= 0, got {exposure!r}")
    if type(seed) is not int:
        raise ValidationError(
            f"{sidecar} seed: expected an integer, got {seed!r}")
    return PseudoDataset(bin_centers=np.array(centers), counts=np.array(counts),
                         exposure=exposure, seed=seed, truth=truth)
