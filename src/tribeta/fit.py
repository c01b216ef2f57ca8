"""Chi-square estimation of (A, W0, m2nu, b) from binned integral-spectrum data.

The statistic is Pearson chi^2 with a unit floor on the denominator,
Sum_i (n_i - mu_i)^2 / max(mu_i, 1), with mu_i from the forward model that
also generates the pseudo-data (`response.Lattice.counts`, behind
`response.expected_counts`).  Minimization is damped least squares
(Levenberg-style trust parameter) on a closed-form Jacobian: mu is linear
in A and b, and the W0 and m2nu columns come from
`kernel.integral_spectrum_derivatives` in the same kernel pass as mu.  The
(eps_n^2 - m2nu)^{3/2} term is C^1 at threshold for m2nu >= 0; for
m2nu < 0 it jumps by |m2nu|^{3/2} at eps_n = 0, and the Jacobian is the
derivative away from that jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError, ValidationError
from .fss import FinalStateSpectrum
from .kernel import SpectrumParams
from .response import Lattice, PseudoDataset, ResponseModel, expected_counts

PARAM_NAMES = ("amplitude", "endpoint", "m2nu", "background")

#: parameter scales for the gradient and step tolerances:
#: A * 1e-6, 1e-4 eV, 1e-3 eV^2, b * 1e-4
def _param_scales(x0: np.ndarray, names: Sequence[str]) -> np.ndarray:
    scales = []
    for name, value in zip(names, x0):
        if name == "amplitude":
            scales.append(abs(value) * 1e-6)
        elif name == "endpoint":
            scales.append(1e-4)
        elif name == "m2nu":
            scales.append(1e-3)
        else:
            scales.append(max(abs(value), 1.0) * 1e-4)
    return np.array(scales)


@dataclass(frozen=True)
class FitConfig:
    """Window, free-parameter mask, initial guesses and tolerances."""

    window_ev: tuple[float, float]
    initial: SpectrumParams
    response: ResponseModel
    fss: FinalStateSpectrum
    free: tuple[str, ...] = PARAM_NAMES
    max_iterations: int = 100
    chi2_tol: float = 1e-10      # relative chi^2 change
    step_tol: float = 1e-4       # accepted step, in parameter scales
    gradient_tol: float = 1e-8   # scaled gradient max-norm

    def __post_init__(self):
        lo, hi = self.window_ev
        if not lo < hi:
            raise ValidationError("fit window must satisfy lo < hi")
        if hi > self.initial.endpoint_ev + 50.0:
            raise ValidationError("window upper edge beyond W0 + 50 eV")
        if not self.free:
            raise ValidationError("at least one parameter must be free")
        unknown = set(self.free) - set(PARAM_NAMES)
        if unknown:
            raise ValidationError(f"unknown free parameters {sorted(unknown)}")


@dataclass(frozen=True)
class FitResult:
    """Best-fit point with quadratic-expansion covariance."""

    params: SpectrumParams
    free_names: tuple[str, ...]
    errors: Optional[dict]
    covariance: Optional[np.ndarray]
    chi2: float
    dof: int
    n_iterations: int
    converged: bool
    window_ev: tuple[float, float]
    n_bins: int
    message: str = ""


def _window_mask(centers: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    lo, hi = window
    return (centers >= lo) & (centers <= hi)


def _params_vector(params: SpectrumParams) -> dict:
    return {"amplitude": params.amplitude, "endpoint": params.endpoint_ev,
            "m2nu": params.m2nu_ev2, "background": params.background}


def chi_square(params: SpectrumParams, dataset: PseudoDataset,
               config: FitConfig) -> float:
    """Pearson chi^2 of the dataset's window bins under the given params."""
    mask = _window_mask(dataset.bin_centers, config.window_ev)
    if mask.sum() < 1:
        raise ValidationError("window selects no bins")
    mu = expected_counts(params, config.fss, config.response,
                         dataset.bin_centers[mask], dataset.exposure)
    n = dataset.counts[mask].astype(float)
    return float((((n - mu) ** 2) / np.maximum(mu, 1.0)).sum())


class _Residuals:
    """Pearson residuals (n - mu) / sqrt(max(mu, 1)) of a fit's window bins
    as a function of the free-parameter vector, with their Jacobian.

    The window's `Lattice` is built once.  mu is linear in A and b, so it is
    built from the unit-amplitude, zero-background shape, and trial steps
    with A <= 0 or b < 0 are still evaluated; a trial W0 or m2nu outside the
    sane region gives infinite residuals, a rejected step.
    """

    def __init__(self, dataset: PseudoDataset, config: FitConfig):
        mask = _window_mask(dataset.bin_centers, config.window_ev)
        self.n_bins = int(mask.sum())
        self.free = tuple(config.free)
        if self.n_bins < len(self.free) + 1:
            raise ValidationError(
                f"window selects {self.n_bins} bins; "
                f"need at least {len(self.free) + 1}")
        self.counts = dataset.counts[mask].astype(float)
        self.lattice = Lattice.build(config.response,
                                     dataset.bin_centers[mask])
        self.fixed = _params_vector(config.initial)
        self.x0 = np.array([self.fixed[name] for name in self.free])
        self.exposure = dataset.exposure
        self.config = config

    def _split(self, vec: np.ndarray):
        p = dict(self.fixed)
        p.update(zip(self.free, vec))
        try:
            shape = self.config.initial.with_values(
                amplitude=1.0, endpoint_ev=p["endpoint"], m2nu_ev2=p["m2nu"],
                background=0.0)
        except ValidationError:
            shape = None
        return p, shape

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        p, shape = self._split(vec)
        if shape is None:
            return np.full(self.n_bins, np.inf)
        mu = p["amplitude"] * self.lattice.counts(
            shape, self.config.fss, self.exposure) + p["background"]
        return (self.counts - mu) / np.sqrt(np.maximum(mu, 1.0))

    def with_jacobian(self, vec: np.ndarray):
        """(residuals, Jacobian) at a sane point, from one kernel pass."""
        p, shape = self._split(vec)
        unit, d_w0, d_m2 = self.lattice.counts_with_derivatives(
            shape, self.config.fss, self.exposure)
        amplitude = p["amplitude"]
        mu = amplitude * unit + p["background"]
        s = np.sqrt(np.maximum(mu, 1.0))
        r = (self.counts - mu) / s
        dmu = {"amplitude": unit, "endpoint": amplitude * d_w0,
               "m2nu": amplitude * d_m2, "background": np.ones(self.n_bins)}
        dr_dmu = -(1.0 + np.where(mu > 1.0, r / (2.0 * s), 0.0)) / s
        jac = np.column_stack([dmu[name] for name in self.free])
        return r, jac * dr_dmu[:, None]


def minimize(dataset: PseudoDataset, config: FitConfig) -> FitResult:
    """Damped least-squares descent to a local chi^2 minimum.

    Deterministic given the config.  Non-convergence is flagged on the
    result, not raised; a singular Hessian leaves the covariance absent.
    """
    residuals = _Residuals(dataset, config)
    free, n_bins = residuals.free, residuals.n_bins
    x = residuals.x0
    scales = _param_scales(x, free)

    r, jac = residuals.with_jacobian(x)
    jac_x = x
    chi2 = float(r @ r)
    if not np.isfinite(chi2):
        raise ModelError("initial chi^2 is not finite")

    lam = 1e-3
    converged = False
    message = "max iterations reached"
    iteration = 0
    for iteration in range(1, config.max_iterations + 1):
        grad = jac.T @ r
        hess = jac.T @ jac
        if np.max(np.abs(grad * scales)) < config.gradient_tol * max(1.0, chi2):
            converged = True
            message = "gradient below tolerance"
            break
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = max(diag.max(), 1.0) * 1e-12
        accepted = False
        for _ in range(30):
            try:
                delta = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_try = residuals(x + delta)
            chi2_try = float(r_try @ r_try)
            if np.isfinite(chi2_try) and chi2_try < chi2:
                accepted = True
                break
            lam *= 10.0
            if lam > 1e15:
                break
        if not accepted:
            converged = np.max(np.abs(grad * scales)) < 1e-3 * max(1.0, chi2)
            message = "damping exhausted"
            break
        change = chi2 - chi2_try
        x = x + delta
        r = r_try
        chi2 = chi2_try
        lam = max(lam / 3.0, 1e-14)
        small_step = np.max(np.abs(delta) / scales) < config.step_tol
        small_change = change <= config.chi2_tol * max(1.0, chi2)
        if small_step or small_change:
            converged = True
            message = "step and chi^2 change below tolerance"
            break
        _, jac = residuals.with_jacobian(x)
        jac_x = x

    # covariance: inverse of half the Hessian approximation 2 J^T J; x is
    # rebound only by accepted steps, so jac is current unless one came last
    if jac_x is not x:
        _, jac = residuals.with_jacobian(x)
    hess = jac.T @ jac
    covariance = None
    errors = None
    try:
        covariance = np.linalg.inv(hess)
        diag = np.diag(covariance)
        if np.any(diag < 0.0):
            covariance, errors = None, None
        else:
            errors = {name: float(math.sqrt(d))
                      for name, d in zip(free, diag)}
    except np.linalg.LinAlgError:
        covariance = None

    values = dict(residuals.fixed)
    values.update(zip(free, x))
    try:
        fitted = config.initial.with_values(
            amplitude=values["amplitude"], endpoint_ev=values["endpoint"],
            m2nu_ev2=values["m2nu"], background=max(values["background"], 0.0))
    except ValidationError as exc:
        raise ModelError(f"fit left the sane parameter region: {exc}") from exc
    return FitResult(params=fitted, free_names=free, errors=errors,
                     covariance=covariance, chi2=chi2,
                     dof=n_bins - len(free), n_iterations=iteration,
                     converged=converged, window_ev=config.window_ev,
                     n_bins=n_bins, message=message)
