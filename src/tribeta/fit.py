"""Chi-square estimation of (A, W0, m2nu, b) from binned integral-spectrum data.

The statistic is Pearson chi^2 with a unit floor on the denominator,
Sum_i (n_i - mu_i)^2 / max(mu_i, 1), with mu_i from the forward model that
also generates the pseudo-data (`response.Lattice.counts`).  Minimization
is damped least squares (Levenberg-style trust parameter) on a closed-form
Jacobian: mu is linear in A and b, and the W0 and m2nu columns come from
`kernel.integral_spectrum_derivatives` in the same kernel pass as mu
(`response.Lattice.counts_with_derivatives`), so each trial point costs
one pass for its residuals and Jacobian together.  The
(eps_n^2 - m2nu)^{3/2} term is C^1 at threshold for m2nu >= 0; for
m2nu < 0 it jumps by |m2nu|^{3/2} at eps_n = 0, and the Jacobian is the
derivative away from that jump.

Each iteration first asks whether it is done, from the residuals r and
Jacobian J it holds: a full Gauss-Newton step would lower chi^2 by
g . H^-1 g (g = J^T r, H = J^T J, the Newton decrement), so a fit whose
predicted decrease is within CHI2_TOL stops without evaluating that step.
A fit ends with one of five messages (`FitResult.message`):

- "predicted chi^2 change below tolerance": g . H^-1 g <= CHI2_TOL *
  max(1, chi^2); converged.
- "gradient below tolerance": the scaled gradient max-norm is below
  GRADIENT_TOL * max(1, chi^2), where H is singular or the predicted
  change is above tolerance; converged.
- "step and chi^2 change below tolerance": an accepted step moved every
  parameter by less than STEP_TOL of its scale, or lowered chi^2 by at
  most CHI2_TOL * max(1, chi^2); converged.
- "damping exhausted": no damped step lowered chi^2 before the damping
  grew past 1e15; converged only if the scaled gradient is below
  1e-3 * max(1, chi^2).
- "max iterations reached": not converged.

The CLI exits 2 on every unconverged fit, so on the last message always and
on "damping exhausted" when its gradient test fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError, ValidationError
from .fss import FinalStateSpectrum
from .kernel import SpectrumParams
from .response import Lattice, PseudoDataset, ResponseModel

PARAM_NAMES = ("amplitude", "endpoint", "m2nu", "background")

CHI2_TOL = 1e-10      # relative chi^2 change
STEP_TOL = 1e-4       # accepted step, in parameter scales
GRADIENT_TOL = 1e-8   # scaled gradient max-norm

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
    """Window, free-parameter mask, initial guesses and iteration limit."""

    window_ev: tuple[float, float]
    initial: SpectrumParams
    response: ResponseModel
    fss: FinalStateSpectrum
    free: tuple[str, ...] = PARAM_NAMES
    max_iterations: int = 100

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
        if len(set(self.free)) < len(self.free):
            raise ValidationError(
                f"free repeats a parameter name: {list(self.free)}")
        if self.max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be >= 1, got {self.max_iterations}")


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
    message: str = ""


def _window_mask(centers: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    lo, hi = window
    return (centers >= lo) & (centers <= hi)


def _params_vector(params: SpectrumParams) -> dict:
    return {"amplitude": params.amplitude, "endpoint": params.endpoint_ev,
            "m2nu": params.m2nu_ev2, "background": params.background}


def _unit_shape(config: FitConfig, vec: np.ndarray) -> SpectrumParams:
    """The unit-amplitude, zero-background shape at the free-parameter
    vector; a ValidationError if its W0 or m2nu leaves the sane region."""
    p = _params_vector(config.initial)
    p.update(zip(config.free, vec))
    return config.initial.with_values(
        amplitude=1.0, endpoint_ev=p["endpoint"], m2nu_ev2=p["m2nu"],
        background=0.0)


class _Residuals:
    """Pearson residuals (n - mu) / sqrt(max(mu, 1)) of a fit's window bins
    as a function of the free-parameter vector, with their Jacobian, both
    from one kernel pass.

    The `Lattice` of the window's bins is built once, or given.  mu is
    linear in A and b, so it is built from the unit-amplitude,
    zero-background shape, and trial steps with A <= 0 or b < 0 are still
    evaluated; a trial W0 or m2nu outside the sane region gives infinite
    residuals and no Jacobian, a rejected step.
    """

    def __init__(self, dataset: PseudoDataset, config: FitConfig,
                 lattice: Optional[Lattice] = None):
        mask = _window_mask(dataset.bin_centers, config.window_ev)
        self.n_bins = int(mask.sum())
        self.free = tuple(config.free)
        if self.n_bins < len(self.free) + 1:
            raise ValidationError(
                f"window selects {self.n_bins} bins; "
                f"need at least {len(self.free) + 1}")
        self.counts = dataset.counts[mask].astype(float)
        if lattice is None:
            lattice = Lattice.build(config.response,
                                    dataset.bin_centers[mask])
        self.lattice = lattice
        self.fixed = _params_vector(config.initial)
        self.x0 = np.array([self.fixed[name] for name in self.free])
        self.exposure = dataset.exposure
        self.config = config

    def __call__(self, vec: np.ndarray):
        """(residuals, Jacobian) at vec; (inf residuals, None) if insane."""
        try:
            shape = _unit_shape(self.config, vec)
        except ValidationError:
            return np.full(self.n_bins, np.inf), None
        return self.from_pass(vec, self.lattice.counts_with_derivatives(
            shape, self.config.fss, self.exposure))

    def from_pass(self, vec: np.ndarray, kernel_pass):
        """(residuals, Jacobian) at vec from its kernel pass: the unit mu,
        dmu/dW0 and dmu/dm2nu."""
        unit, d_w0, d_m2 = kernel_pass
        p = dict(self.fixed)
        p.update(zip(self.free, vec))
        amplitude = p["amplitude"]
        mu = amplitude * unit + p["background"]
        s = np.sqrt(np.maximum(mu, 1.0))
        r = (self.counts - mu) / s
        dmu = {"amplitude": unit, "endpoint": amplitude * d_w0,
               "m2nu": amplitude * d_m2, "background": np.ones(self.n_bins)}
        dr_dmu = -(1.0 + np.where(mu > 1.0, r / (2.0 * s), 0.0)) / s
        jac = np.column_stack([dmu[name] for name in self.free])
        return r, jac * dr_dmu[:, None]


@dataclass(frozen=True, eq=False)
class FitModel:
    """What a fit computes before it reads any counts: the `Lattice` of the
    bins inside the fit window, and the first kernel pass, the unit-amplitude
    mu with its W0 and m2nu columns at the config's initial point.

    It depends on the dataset's bin centres and exposure and on the config,
    not on the counts, so fits of datasets that share the first two can
    share one: `minimize(dataset, model.config, model)`.  Its arrays are
    read-only.
    """

    bin_centers: np.ndarray   # every bin of the dataset, inside the window or not
    exposure: float
    config: FitConfig
    lattice: Lattice
    first_pass: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        for array in (self.bin_centers, *self.first_pass):
            array.setflags(write=False)

    @classmethod
    def build(cls, dataset: PseudoDataset, config: FitConfig,
              lattice: Optional[Lattice] = None) -> "FitModel":
        """The model of `dataset`'s bins and exposure.  `lattice`, the
        `Lattice` of all its bins under the config's response (a
        ValidationError if it is not), serves the fit when every bin lies
        inside the window."""
        if lattice is not None and not lattice.is_of(config.response,
                                                     dataset.bin_centers):
            raise ValidationError("lattice was built for other bins or "
                                  "another response than the fit's")
        if not _window_mask(dataset.bin_centers, config.window_ev).all():
            lattice = None
        residuals = _Residuals(dataset, config, lattice)
        first_pass = residuals.lattice.counts_with_derivatives(
            _unit_shape(config, residuals.x0), config.fss, dataset.exposure)
        return cls(dataset.bin_centers, dataset.exposure, config,
                   residuals.lattice, first_pass)


def minimize(dataset: PseudoDataset, config: FitConfig,
             model: Optional[FitModel] = None) -> FitResult:
    """Damped least-squares descent to a local chi^2 minimum.

    Deterministic given the config.  Non-convergence is flagged on the
    result, not raised; a singular Hessian leaves the covariance absent.
    The result's message is one of the five stops listed in the module
    docstring.  Whichever ends the fit, its params, chi^2 and covariance
    are those of the last point evaluated and accepted, and n_iterations
    counts the iteration in which the stop was found.

    The fit starts from a `FitModel`, its window's `Lattice` and the kernel
    pass at its initial point; without `model` it builds its own.  Fits of
    datasets on the same bins with the same exposure can share one:
    `bias_scan` builds one per window and config, and each replication's two
    fits read theirs.  It must have been built for the dataset's bin centres
    and exposure and for this config, the FSS compared by identity (a
    ValidationError otherwise).  The result is bit-identical either way.
    """
    if model is None:
        model = FitModel.build(dataset, config)
    if not (np.array_equal(model.bin_centers, dataset.bin_centers)
            and model.exposure == dataset.exposure):
        raise ValidationError("fit model was built for other bin centres "
                              "or another exposure than the dataset's")
    if model.config != config:
        raise ValidationError("fit model was built for another fit config")
    residuals = _Residuals(dataset, config, model.lattice)
    r, jac = residuals.from_pass(residuals.x0, model.first_pass)
    free, n_bins = residuals.free, residuals.n_bins
    x = residuals.x0
    scales = _param_scales(x, free)

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
        # a full Gauss-Newton step lowers the linearized chi^2 by
        # grad . hess^-1 grad; a singular hess skips this test
        try:
            predicted = float(grad @ np.linalg.solve(hess, grad))
        except np.linalg.LinAlgError:
            predicted = math.inf
        if predicted <= CHI2_TOL * max(1.0, chi2):
            converged = True
            message = "predicted chi^2 change below tolerance"
            break
        if np.max(np.abs(grad * scales)) < GRADIENT_TOL * max(1.0, chi2):
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
            r_try, jac_try = residuals(x + delta)
            chi2_try = float(r_try @ r_try)
            if np.isfinite(chi2_try) and chi2_try < chi2:
                accepted = True
                break
            lam *= 10.0
            if lam > 1e15:
                break
        if not accepted:
            converged = bool(
                np.max(np.abs(grad * scales)) < 1e-3 * max(1.0, chi2))
            message = "damping exhausted"
            break
        change = chi2 - chi2_try
        x = x + delta
        r, jac = r_try, jac_try
        chi2 = chi2_try
        lam = max(lam / 3.0, 1e-14)
        small_step = np.max(np.abs(delta) / scales) < STEP_TOL
        small_change = change <= CHI2_TOL * max(1.0, chi2)
        if small_step or small_change:
            converged = True
            message = "step and chi^2 change below tolerance"
            break

    # covariance: inverse of half the Hessian approximation 2 J^T J, with J
    # the Jacobian of the last accepted point
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
                     message=message)
