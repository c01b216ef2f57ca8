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
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ModelError, ValidationError
from .fss import FinalStateSpectrum
from .kernel import (SpectrumParams, integral_spectrum,
                     integral_spectrum_derivatives)

_PTRS_SWITCH = 30.0
#: largest expected count sampled (NaN fails the test too): counts are
#: int64, and half its range leaves the draw room above mu
_MU_MAX = 2.0 ** 62


@dataclass(frozen=True)
class ResponseModel:
    """Gaussian resolution function with its convolution grid."""

    sigma_ev: float
    half_width_sigmas: float = 6.0
    step_fraction: float = 0.1   # grid step in units of sigma

    def __post_init__(self):
        if self.sigma_ev <= 0.0:
            raise ConfigurationError("sigma must be positive")
        if self.half_width_sigmas < 6.0:
            raise ConfigurationError("convolution support must span >= 6 sigma")
        if self.step_fraction > 0.1 + 1e-12 or self.step_fraction <= 0.0:
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

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Lattice:
    """The bins x offsets convolution grid, reduced to its distinct energies.

    Bin centres on the offset lattice (2 eV bins, sigma/10 = 0.25 eV steps)
    share most grid energies, so a spectrum is evaluated once per distinct
    energy and scattered back onto the grid: `energies[inverse]` is the grid
    c_i - o_k.  It depends only on the response and the bin centres, so a
    fit builds it once.
    """

    energies: np.ndarray
    inverse: np.ndarray      # shape (bins, offsets)
    weights: np.ndarray

    @classmethod
    def build(cls, response: ResponseModel, bin_centers) -> "Lattice":
        centers = np.atleast_1d(np.asarray(bin_centers, dtype=float)).ravel()
        grid = centers[:, None] - response.offsets()[None, :]
        energies, inverse = np.unique(grid, return_inverse=True)
        return cls(energies, inverse.reshape(grid.shape), response.weights())

    def smear(self, values: np.ndarray) -> np.ndarray:
        """Convolve values given at `energies`; one result per bin."""
        return np.asarray(values, dtype=float)[self.inverse] @ self.weights

    def counts(self, params: SpectrumParams, fss: FinalStateSpectrum,
               exposure: float) -> np.ndarray:
        """mu_i = exposure * (convolved integral spectrum)(c_i) + background."""
        values = integral_spectrum(self.energies, params, fss)
        return exposure * self.smear(values) + params.background

    def counts_with_derivatives(self, params: SpectrumParams,
                                fss: FinalStateSpectrum, exposure: float):
        """(mu, dmu/dW0, dmu/dm2nu) from one kernel pass; mu is `counts`."""
        values, d_w0, d_m2 = integral_spectrum_derivatives(
            self.energies, params, fss)
        return (exposure * self.smear(values) + params.background,
                exposure * self.smear(d_w0), exposure * self.smear(d_m2))


def convolve(spectrum: Callable, response: ResponseModel) -> Callable:
    """Smeared spectrum  N_exp(e) = int de' R(e - e') N(e').

    Returns a vectorized callable.  The input function must accept a 1-D
    numpy array of energies and act elementwise: it is called once per
    evaluation with the distinct energies of the evaluation's `Lattice`.
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
class PseudoDataset:
    """Binned observed counts with the generating truth record."""

    bin_centers: np.ndarray
    counts: np.ndarray
    exposure: float
    seed: int
    truth: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.counts < 0):
            raise ValidationError("counts must be nonnegative")
        self.bin_centers.setflags(write=False)
        self.counts.setflags(write=False)

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


def generate_pseudodata(params: SpectrumParams, fss: FinalStateSpectrum,
                        response: ResponseModel, bin_centers,
                        exposure: float, seed: int) -> PseudoDataset:
    """Poisson pseudo-experiment; deterministic given the seed.

    exposure = 0 is allowed and yields background-only counts.
    """
    centers = np.asarray(bin_centers, dtype=float)
    if exposure < 0.0:
        raise ValidationError("exposure must be >= 0")
    w0 = params.endpoint_ev
    if np.any(centers < w0 - 1000.0) or np.any(centers > w0 + 50.0):
        raise ValidationError(
            "bins must lie within [W0 - 1000 eV, W0 + 50 eV]")
    mus = expected_counts(params, fss, response, centers, exposure)
    if np.any(mus < 0.0):
        raise ModelError("model produced negative expected counts")
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = poisson_sample(rng, mus)
    truth = {
        "params": asdict(params),
        "response": response.as_dict(),
        "exposure": exposure,
        "seed": seed,
        "fss_lines": len(fss),
        "fss_total_probability": fss.total_probability,
    }
    return PseudoDataset(bin_centers=centers, counts=counts,
                         exposure=exposure, seed=seed, truth=truth)


def save_dataset(dataset: PseudoDataset, path: str,
                 sidecar_path: Optional[str] = None) -> None:
    """CSV `bin_center_eV, counts` plus a JSON truth sidecar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center_eV", "counts"])
        for c, n in zip(dataset.bin_centers, dataset.counts):
            writer.writerow([f"{c:.12g}", int(n)])
    sidecar = sidecar_path or path + ".json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(dataset.truth, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str, sidecar_path: Optional[str] = None) -> PseudoDataset:
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
                centers.append(float(row[0]))
                counts.append(int(row[1]))
            except (IndexError, ValueError):
                raise ValidationError(
                    f"{path} row {reader.line_num}: expected a bin centre and an "
                    f"integer count, got {row!r}") from None
    truth, exposure, seed = {}, 1.0, -1
    sidecar = sidecar_path or path + ".json"
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            truth = json.load(fh)
        exposure = truth.get("exposure", 1.0)
        seed = truth.get("seed", -1)
    except FileNotFoundError:
        pass
    return PseudoDataset(bin_centers=np.array(centers), counts=np.array(counts),
                         exposure=exposure, seed=seed, truth=truth)
