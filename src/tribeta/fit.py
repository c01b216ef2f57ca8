"""Chi-square estimation of (A, W0, m2nu, b) from binned integral-spectrum data.

The statistic is Pearson chi^2 with a unit floor on the denominator,
Sum_i (n_i - mu_i)^2 / max(mu_i, 1), with mu_i from the forward model that
also generates the pseudo-data (`response.Lattice.counts`).  Minimization
is Levenberg-Marquardt, damped on diag(J^T J), with a closed-form
Jacobian: mu is linear in A and b, and the W0 and m2nu columns come from
`kernel.integral_spectrum_derivatives` in the same kernel pass as mu
(`response.Lattice.counts_with_derivatives`), so each trial point costs
one pass for its residuals and Jacobian together.  A fit point is one
vector (A, W0, m2nu, b) in PARAM_NAMES order; a step moves only the free
entries (`FitModel.free`), so fixed ones keep their initial bits.  The
(eps_n^2 - m2nu)^{3/2} term is C^1 at threshold for m2nu >= 0; for
m2nu < 0 it jumps by |m2nu|^{3/2} at eps_n = 0, and the Jacobian is the
derivative away from that jump.

The damping starts at 0, so the first trial of every fit is the plain
Gauss-Newton step.  A rejected trial (chi^2 not lower, or an insane W0 or
m2nu) or a singular damped system sets it to max(10 * damping, 1e-3), so
the first rejection engages 1e-3 and later ones grow it tenfold; an
accepted step divides it by 3.

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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelError, ReadOnlyArrays, ValidationError
from .fss import FinalStateSpectrum
from .kernel import SpectrumParams
from .response import Lattice

PARAM_NAMES = ("amplitude", "endpoint", "m2nu", "background")

CHI2_TOL = 1e-10      # relative chi^2 change
STEP_TOL = 1e-4       # accepted step, in parameter scales
GRADIENT_TOL = 1e-8   # scaled gradient max-norm


def _param_scales(x: np.ndarray) -> np.ndarray:
    """The scales of the gradient and step tolerances at the parameter
    vector x: A * 1e-6, 1e-4 eV, 1e-3 eV^2, max(b, 1) * 1e-4."""
    return np.array([abs(x[0]) * 1e-6, 1e-4, 1e-3, max(abs(x[3]), 1.0) * 1e-4])


@dataclass(frozen=True)
class FitConfig:
    """Window, free-parameter mask, initial guesses and iteration limit."""

    window_ev: tuple[float, float]
    initial: SpectrumParams
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

    def window_mask(self, bin_centers: np.ndarray) -> np.ndarray:
        """Which of `bin_centers` lie inside the window; a ValidationError
        if they are fewer than the free parameters plus one."""
        lo, hi = self.window_ev
        mask = (bin_centers >= lo) & (bin_centers <= hi)
        n_bins, need = int(mask.sum()), len(self.free) + 1
        if n_bins < need:
            raise ValidationError(
                f"window selects {n_bins} bins; need at least {need}")
        return mask


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


@dataclass(frozen=True, eq=False)
class FitModel(ReadOnlyArrays):
    """Everything a fit reads but the counts: the config and exposure, which
    of the dataset's bins lie inside the window (`mask`), the `Lattice` of
    those bins, the initial parameter vector (`x0`, all four parameters in
    PARAM_NAMES order), and the first kernel pass, the unit-amplitude mu
    with its W0 and m2nu columns at x0.  `free` holds the positions of
    `config.free` in PARAM_NAMES, in that order: a fit moves those entries
    of the vector and leaves the others at their initial bits.

    Fits of datasets on the same bins with the same exposure share one:
    `minimize(counts, model)`.  Its arrays are read-only, also after
    unpickling.

    The Pearson residuals (n - mu) / sqrt(max(mu, 1)) of the window's counts
    n and their Jacobian in the free parameters come from one kernel pass
    per parameter vector.  mu is linear in A and b, so it is built from the
    unit-amplitude, zero-background shape, and trial steps with A <= 0 or
    b < 0 are still evaluated; a trial W0 or m2nu outside the sane region
    gives infinite residuals and no Jacobian, a rejected step.
    """

    config: FitConfig
    exposure: float
    mask: np.ndarray
    lattice: Lattice
    x0: np.ndarray
    first_pass: tuple[np.ndarray, np.ndarray, np.ndarray]
    free: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "free", np.array(
            [PARAM_NAMES.index(name) for name in self.config.free]))
        super().__post_init__()

    @classmethod
    def build(cls, lattice: Lattice, exposure: float,
              config: FitConfig) -> "FitModel":
        """The model of a dataset's binning, its `Lattice`, and exposure.
        The fit reads that lattice when every bin lies inside the window,
        and otherwise one of the window's bins under the same response."""
        mask = config.window_mask(lattice.bin_centers)
        if not mask.all():
            lattice = Lattice.build(lattice.response,
                                    lattice.bin_centers[mask])
        initial = config.initial
        x0 = np.array([initial.amplitude, initial.endpoint_ev,
                       initial.m2nu_ev2, initial.background])
        first_pass = lattice.counts_with_derivatives(
            initial.with_values(amplitude=1.0, background=0.0), config.fss,
            exposure)
        return cls(config, exposure, mask, lattice, x0, first_pass)

    def residuals(self, counts: np.ndarray, x: np.ndarray):
        """(residuals, Jacobian) of the window's `counts` at the parameter
        vector x, from one kernel pass; (inf residuals, None) if x's W0 or
        m2nu is insane."""
        try:
            shape = self.config.initial.with_values(
                amplitude=1.0, endpoint_ev=x[1], m2nu_ev2=x[2], background=0.0)
        except ValidationError:
            return np.full(len(counts), np.inf), None
        kernel_pass = self.lattice.counts_with_derivatives(
            shape, self.config.fss, self.exposure)
        return self.from_pass(counts, x, kernel_pass)

    def from_pass(self, counts: np.ndarray, x: np.ndarray, kernel_pass):
        """(residuals, Jacobian in the `free` entries) of the window's
        `counts` at x from its kernel pass: unit mu, dmu/dW0, dmu/dm2nu."""
        unit, d_w0, d_m2 = kernel_pass
        amplitude = x[0]
        mu = amplitude * unit + x[3]
        s = np.sqrt(np.maximum(mu, 1.0))
        r = (counts - mu) / s
        dmu = (unit, amplitude * d_w0, amplitude * d_m2, np.ones(len(counts)))
        dr_dmu = -(1.0 + np.where(mu > 1.0, r / (2.0 * s), 0.0)) / s
        jac = np.column_stack([dmu[i] for i in self.free])
        return r, jac * dr_dmu[:, None]


def minimize(counts: np.ndarray, model: FitModel) -> FitResult:
    """Levenberg-Marquardt descent from the model's initial point to a
    local chi^2 minimum of `counts`, one per bin of the dataset the model
    was built for (a ValidationError naming both sizes otherwise).  Each
    fit's first trial is the undamped Gauss-Newton step; damping engages
    only after a rejected trial or a singular system (module docstring).

    Deterministic given the counts and the model.  Non-convergence is
    flagged on the result, not raised; a singular Hessian leaves the
    covariance absent.  The result's message is one of the five stops
    listed in the module docstring.  Whichever ends the fit, its params,
    chi^2 and covariance are those of the last point evaluated and
    accepted, and n_iterations counts the iteration in which the stop was
    found.

    Fits of datasets on the same bins with the same exposure share one
    model: `bias_scan` builds one per window and config, and each
    replication's two fits read theirs.
    """
    if np.shape(counts) != model.mask.shape:
        raise ValidationError(f"{np.size(counts)} counts for a fit model of "
                              f"{model.mask.size} bins")
    config = model.config
    counts = np.asarray(counts)[model.mask].astype(float)
    free = model.free
    x = model.x0
    r, jac = model.from_pass(counts, x, model.first_pass)
    scales = _param_scales(x)[free]

    chi2 = float(r @ r)
    if not np.isfinite(chi2):
        raise ModelError("initial chi^2 is not finite")

    lam = 0.0
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
                lam = max(10.0 * lam, 1e-3)
                continue
            trial = x.copy()
            trial[free] += delta
            r_try, jac_try = model.residuals(counts, trial)
            chi2_try = float(r_try @ r_try)
            if np.isfinite(chi2_try) and chi2_try < chi2:
                accepted = True
                break
            lam = max(10.0 * lam, 1e-3)
            if lam > 1e15:
                break
        if not accepted:
            converged = bool(
                np.max(np.abs(grad * scales)) < 1e-3 * max(1.0, chi2))
            message = "damping exhausted"
            break
        change = chi2 - chi2_try
        x = trial
        r, jac = r_try, jac_try
        chi2 = chi2_try
        lam /= 3.0
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
                      for name, d in zip(config.free, diag)}
    except np.linalg.LinAlgError:
        covariance = None

    amplitude, endpoint, m2nu, background = x
    try:
        fitted = config.initial.with_values(
            amplitude=amplitude, endpoint_ev=endpoint, m2nu_ev2=m2nu,
            background=max(background, 0.0))
    except ValidationError as exc:
        raise ModelError(f"fit left the sane parameter region: {exc}") from exc
    return FitResult(params=fitted, free_names=config.free, errors=errors,
                     covariance=covariance, chi2=chi2,
                     dof=len(counts) - len(free), n_iterations=iteration,
                     converged=converged, window_ev=config.window_ev,
                     message=message)
