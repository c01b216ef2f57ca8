"""Chi-square estimation of (A, W0, m2nu, b) from binned integral-spectrum data.

The statistic is Pearson chi^2 with a unit floor on the denominator,
Sum_i (n_i - mu_i)^2 / max(mu_i, 1), with mu_i from
`response.expected_counts`, the forward model that also generates the
pseudo-data.  Minimization is damped least squares (Levenberg-style trust
parameter) with central finite-difference sensitivities; the model is
smooth but carries theta gates, so analytic derivatives are deliberately
avoided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError, ValidationError
from .fss import FinalStateSpectrum
from .kernel import SpectrumParams
from .physics import CONSTANTS, Constants
from .response import PseudoDataset, ResponseModel, expected_counts

PARAM_NAMES = ("amplitude", "endpoint", "m2nu", "background")

#: central-difference steps: A * 1e-6, 1e-4 eV, 1e-3 eV^2, b * 1e-4
def _fd_steps(x0: np.ndarray, names: Sequence[str]) -> np.ndarray:
    steps = []
    for name, value in zip(names, x0):
        if name == "amplitude":
            steps.append(abs(value) * 1e-6)
        elif name == "endpoint":
            steps.append(1e-4)
        elif name == "m2nu":
            steps.append(1e-3)
        else:
            steps.append(max(abs(value), 1.0) * 1e-4)
    return np.array(steps)


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
    step_tol: float = 1e-4       # accepted step, in units of the FD steps
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
               config: FitConfig, constants: Constants = CONSTANTS) -> float:
    """Pearson chi^2 of the dataset's window bins under the given params."""
    mask = _window_mask(dataset.bin_centers, config.window_ev)
    if mask.sum() < 1:
        raise ValidationError("window selects no bins")
    mu = expected_counts(params, config.fss, config.response,
                         dataset.bin_centers[mask], dataset.exposure, constants)
    n = dataset.counts[mask].astype(float)
    return float((((n - mu) ** 2) / np.maximum(mu, 1.0)).sum())


def minimize(dataset: PseudoDataset, config: FitConfig,
             constants: Constants = CONSTANTS) -> FitResult:
    """Damped least-squares descent to a local chi^2 minimum.

    Deterministic given the config.  Non-convergence is flagged on the
    result, not raised; a singular Hessian leaves the covariance absent.
    """
    mask = _window_mask(dataset.bin_centers, config.window_ev)
    n_bins = int(mask.sum())
    free = tuple(config.free)
    if n_bins < len(free) + 1:
        raise ValidationError(
            f"window selects {n_bins} bins; need at least {len(free) + 1}")
    centers = dataset.bin_centers[mask]
    counts = dataset.counts[mask].astype(float)

    fixed = _params_vector(config.initial)
    x = np.array([fixed[name] for name in free])
    steps = _fd_steps(x, free)

    def residuals(vec: np.ndarray) -> np.ndarray:
        # mu is linear in A and b, so trial steps with A <= 0 or b < 0 are
        # evaluated through the unit-amplitude, zero-background shape; a
        # trial W0 or m2nu outside the sane region is a rejected step
        p = dict(fixed)
        p.update(zip(free, vec))
        try:
            shape_params = config.initial.with_values(
                amplitude=1.0, endpoint_ev=p["endpoint"], m2nu_ev2=p["m2nu"],
                background=0.0)
        except ValidationError:
            return np.full(n_bins, np.inf)
        mu = p["amplitude"] * expected_counts(
            shape_params, config.fss, config.response, centers,
            dataset.exposure, constants) + p["background"]
        return (counts - mu) / np.sqrt(np.maximum(mu, 1.0))

    def jacobian(vec: np.ndarray) -> np.ndarray:
        cols = []
        for i, s in enumerate(steps):
            up = vec.copy()
            dn = vec.copy()
            up[i] += s
            dn[i] -= s
            cols.append((residuals(up) - residuals(dn)) / (2.0 * s))
        return np.column_stack(cols)

    r = residuals(x)
    chi2 = float(r @ r)
    if not np.isfinite(chi2):
        raise ModelError("initial chi^2 is not finite")

    lam = 1e-3
    converged = False
    message = "max iterations reached"
    iteration = 0
    jac = jacobian(x)
    for iteration in range(1, config.max_iterations + 1):
        grad = jac.T @ r
        hess = jac.T @ jac
        if np.max(np.abs(grad * steps)) < config.gradient_tol * max(1.0, chi2):
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
            converged = np.max(np.abs(grad * steps)) < 1e-3 * max(1.0, chi2)
            message = "damping exhausted"
            break
        change = chi2 - chi2_try
        x = x + delta
        r = r_try
        chi2 = chi2_try
        lam = max(lam / 3.0, 1e-14)
        small_step = np.max(np.abs(delta) / steps) < config.step_tol
        small_change = change <= config.chi2_tol * max(1.0, chi2)
        if small_step or small_change:
            converged = True
            message = "step and chi^2 change below tolerance"
            break
        jac = jacobian(x)

    # covariance: inverse of half the Hessian approximation 2 J^T J
    jac = jacobian(x)
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

    values = dict(fixed)
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
