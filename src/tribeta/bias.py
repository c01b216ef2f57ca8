"""Orchestrated studies: linearization accuracy and the negative-m2nu
fit-bias mechanism.

The bias scan generates Poisson pseudo-experiments whose truth carries the
energy-dependent effective endpoint (drift on) and fits them with the
conventional fixed-endpoint model (drift off).  A matched-model control
fit runs on the same datasets.  The exposure is set high enough that a
100-replication ensemble resolves the ~0.1 eV^2 mechanism; it is a scale
choice only and does not affect runtimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import partial
from typing import Optional

import numpy as np

from .errors import ValidationError, write_table
from .fit import FitConfig, FitModel, minimize
from .franck_condon import RecoilEngine, default_model
from .fss import FinalStateSpectrum, from_lines
from .kernel import SpectrumParams, integral_spectrum, linearized_sum, spectral_sum
from .physics import momentum_from_kinetic
from .response import (BINS_BELOW_W0_EV, Lattice, PseudoDataset,
                       ResponseModel, draw_pseudodata, expected_dataset)

DEFAULT_ENDPOINT_EV = 18575.0

#: the fixed design of the bias study, recorded with each scan's `ScanSpec`
STUDY_DESIGN = {"generator_drift": True, "fitter_drift": False,
                "endpoint_ev": DEFAULT_ENDPOINT_EV, "sigma_ev": 2.5,
                "bin_spacing_ev": 2.0, "window_top_margin_ev": 20.0,
                "anchor_depth_ev": 200.0, "anchor_counts": 2.56e11,
                "background_fraction": 0.04}


def build_study_fss() -> FinalStateSpectrum:
    """Compact FSS for fit studies: the default model's ground-channel
    pseudo-spectrum (v <= 24) at q of the 18575 eV endpoint, plus the
    model's lumped excited-electronic lines.

    A few dozen lines keep ensemble fitting fast.  Their channel-0 mean
    matches the full recoil FSS (1.75529 eV at the endpoint), but not their
    variance (0.0083 against 0.1864 eV^2): the pseudo-spectrum has no
    rotational broadening.
    """
    model, v_max = default_model(), 24
    q_au = momentum_from_kinetic(DEFAULT_ENDPOINT_EV).recoil_q_au
    ground = RecoilEngine(model, j_max=0, v_max=v_max).pseudo_spectrum(q_au)
    blocks = [(ground.energies, ground.probabilities, ground.channels,
               ground.rotations, ground.vibrations)]
    blocks += [(ch.offset_ev, ch.weight, ic, -1, -1)
               for ic, ch in enumerate(model.channels)
               if ch.kind == "line" and ch.weight > 0.0]
    return from_lines(blocks, q_ref=q_au,
                      provenance={"study_fss": True, "v_max": v_max,
                                  "model_hash": model.parameter_hash()})


# ---------------------------------------------------------------------------
# linearization accuracy study

@dataclass(frozen=True, eq=False)
class Fig2Result:
    depth_ev: np.ndarray      # W0 - eps_beta
    exact: np.ndarray
    linear: np.ndarray
    difference: np.ndarray
    trend: np.ndarray         # (m_nu c^2)^4 / depth
    c_fit: float          # difference <= c_fit * trend at every grid point
    m_nu_ev: float
    endpoint_ev: float
    n_lines: int          # FSS lines in each exact and linearized sum

    def bound_holds(self) -> bool:
        """difference <= c_fit * trend at every depth, up to rounding; a NaN
        difference fails.

        The allowance is derived from the arithmetic, not fitted.  c_fit *
        trend reaches the argmax depth's difference through four roundings
        (difference * depth, / m^4, m^4 / depth, their product) of at most
        half an ulp each, so it may lie 2 eps of it below.  Each difference
        also holds the rounding of two sums over n_lines lines, each within
        about n_lines half-ulps of its size (Higham's gamma_n): together
        n_lines eps of the larger sum.  At m = 0, where c_fit is 0 and the
        two sums are equal in exact arithmetic, that rounding is all the
        difference there is.
        """
        eps = float(np.finfo(float).eps)
        return bool(np.all(
            self.difference <= self.c_fit * self.trend * (1.0 + 2.0 * eps)
            + self.n_lines * eps * np.maximum(np.abs(self.exact),
                                              np.abs(self.linear))))


def fig2_study(fss: FinalStateSpectrum, endpoint_ev: float = DEFAULT_ENDPOINT_EV,
               m_nu_ev: float = 1.0) -> Fig2Result:
    """|exact - linearized| spectral sum versus depth below the endpoint (240
    depths, geometric from 2 to 300 eV), with the m_nu^4 / depth trend and
    its fitted coefficient."""
    # `not 0 <= x < inf` so that NaN fails too
    if not 0.0 <= m_nu_ev < math.inf:
        raise ValidationError(f"m_nu must be finite and >= 0, got {m_nu_ev}")
    depths = np.geomspace(2.0, 300.0, 240)
    params = SpectrumParams(amplitude=1.0, endpoint_ev=endpoint_ev,
                            m2nu_ev2=m_nu_ev ** 2)
    eps = endpoint_ev - depths
    exact = spectral_sum(eps, params, fss)
    linear = linearized_sum(eps, params, fss)
    diff = np.abs(exact - linear)
    if m_nu_ev == 0.0:
        c_fit = 0.0
    else:
        c_fit = float(np.max(diff * depths) / m_nu_ev ** 4)
    return Fig2Result(depth_ev=depths, exact=exact, linear=linear,
                      difference=diff, trend=m_nu_ev ** 4 / depths,
                      c_fit=c_fit, m_nu_ev=m_nu_ev, endpoint_ev=endpoint_ev,
                      n_lines=len(fss))


def save_fig2_csv(result: Fig2Result, path: str) -> None:
    write_table(path, ["depth_eV", "exact_sum", "linear_sum", "abs_difference",
                       "trend"],
                zip(result.depth_ev, result.exact, result.linear,
                    result.difference, result.trend))


# ---------------------------------------------------------------------------
# negative-m2nu bias scan

@dataclass(frozen=True)
class ScanSpec:
    """Window depths, replications and seed of a bias scan.  The depths
    increase strictly, each above 0 and at most 1000 eV, the pseudo-data
    generator's range below W0.  The rest is `STUDY_DESIGN`: drift on in
    the data and the control fit, off in the mismatch fit; W0 = 18575 eV;
    2.5 eV resolution; 2 eV bins up to W0 + 20 eV; 2.56e11 counts at 200 eV
    depth, and 4% of that as background."""

    window_depths_ev: tuple[float, ...] = (100.0, 200.0, 400.0)
    replications: int = 100
    base_seed: int = 20240901

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("need at least one replication")
        depths = self.window_depths_ev
        # `not 0 < x < inf` so that NaN fails too
        if not all(0.0 < d < math.inf for d in depths):
            raise ValidationError(
                f"window depths must be finite and > 0, got {depths}")
        deep = [d for d in depths if d > BINS_BELOW_W0_EV]
        if deep:
            raise ValidationError(
                f"window depths must be at most {BINS_BELOW_W0_EV:g} eV, the "
                f"pseudo-data generator's range below W0, got {deep[0]:g}")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValidationError("window depths must be strictly increasing")


@dataclass(frozen=True)
class WindowSummary:
    depth_ev: float
    n_fits: int
    n_excluded: int
    mean_m2nu: float
    se_m2nu: float
    mean_w0_shift: float
    se_w0_shift: float
    control_mean_m2nu: float
    control_se_m2nu: float
    control_mean_w0_shift: float


@dataclass(frozen=True)
class BiasScanResult:
    spec: ScanSpec
    windows: tuple[WindowSummary, ...]
    flagged: bool = False   # >10% exclusions somewhere

    def to_dict(self) -> dict:
        return {"spec": {**asdict(self.spec), **STUDY_DESIGN},
                "flagged": self.flagged,
                "windows": [asdict(w) for w in self.windows]}


def _mean_se(arr: np.ndarray) -> tuple[float, float]:
    if arr.size < 2:
        return float(arr.mean()) if arr.size else math.nan, math.nan
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


@dataclass(frozen=True, eq=False)
class _Window:
    """One window's forward model, built once and shared by its
    replications: the expected counts mu of the truth on the window's bins
    (an `expected_dataset`), and one `FitModel` per fit config, the mismatch
    fit first.  A replication fits its Poisson counts with each model,
    `minimize(counts, model)`.  mu and the fit models share one `Lattice` of
    the bins, unless the fit window leaves a bin out.  All their arrays are
    read-only, in pool workers too, since each class unpickles through its
    constructor."""

    expected: PseudoDataset
    fits: tuple[FitModel, ...]


def _one_replication(task, windows, truth):
    """(both fits converged, then m2nu and W0 shift of each fit) for one
    `(window index, seed)` task: the Poisson draw of the seed, fitted with
    each of the window's fit models."""
    iw, seed = task
    window = windows[iw]
    counts = draw_pseudodata(window.expected, seed).counts
    fits = [minimize(counts, model) for model in window.fits]
    outcome = [all(fit.converged for fit in fits)]
    for fit in fits:
        outcome += [fit.params.m2nu_ev2,
                    fit.params.endpoint_ev - truth.endpoint_ev]
    return outcome


#: a pool worker's (windows, truth), set once per worker by `_share`
_shared: tuple = ()


def _share(windows, truth):
    global _shared
    _shared = (windows, truth)


def _shared_replication(task):
    """`_one_replication` on the windows `_share` gave this pool worker."""
    return _one_replication(task, *_shared)


def bias_scan(spec: ScanSpec, fss: Optional[FinalStateSpectrum] = None,
              jobs: int = 1) -> BiasScanResult:
    """Ensemble of drift-on pseudo-experiments fitted drift-off, window by
    window, with the drift-matched control on the same datasets.

    Each window's forward model is built once, before any replication: the
    `Lattice` of its bins, the expected counts mu of the truth on it, and
    for each of the two fit configs a `FitModel`, which holds the first
    kernel pass at the initial point.  Each replication then only draws its
    Poisson counts from mu with its seed and fits them with both models,
    `minimize(counts, model)`.  The results are bit-identical to generating
    and fitting each replication from scratch.

    Every window's replications form one task list of (window index,
    seed).  With jobs > 1 one process pool serves all windows: each worker
    gets the window models once, when it starts, and each task sends only
    its index and seed.  Outcomes come back and are reduced in replication
    order, so results are identical for any job count.
    """
    fss = fss or build_study_fss()
    design = STUDY_DESIGN
    response = ResponseModel(sigma_ev=design["sigma_ev"])
    w0 = design["endpoint_ev"]

    # exposure anchored at a fixed depth so window choice does not change
    # the endpoint-region statistics
    probe = SpectrumParams(amplitude=1.0, endpoint_ev=w0)
    anchor_rate = float(integral_spectrum(w0 - design["anchor_depth_ev"],
                                          probe, fss))
    exposure = design["anchor_counts"] / anchor_rate
    background = design["background_fraction"] * design["anchor_counts"]

    truth = SpectrumParams(amplitude=1.0, endpoint_ev=w0, m2nu_ev2=0.0,
                           background=background,
                           endpoint_drift=design["generator_drift"])
    guess = truth.with_values(amplitude=1.01, m2nu_ev2=0.3,
                              endpoint_ev=w0 - 0.05,
                              background=background * 1.05)

    spacing, top = design["bin_spacing_ev"], design["window_top_margin_ev"]
    windows = []
    for depth in spec.window_depths_ev:
        n_edge = int(round(depth / spacing))
        n_top = int(round(top / spacing))
        centers = w0 + (np.arange(-n_edge, n_top + 1) * spacing)
        lattice = Lattice.build(response, centers)
        expected = expected_dataset(truth, fss, lattice, exposure)
        window_ev = (w0 - depth - 1e-9, w0 + top + 1e-9)
        # the mismatch fit, then the control
        fits = tuple(
            FitModel.build(lattice, exposure, FitConfig(
                window_ev=window_ev, fss=fss,
                initial=guess.with_values(endpoint_drift=drift)))
            for drift in (design["fitter_drift"], design["generator_drift"]))
        windows.append(_Window(expected, fits))
    tasks = [(iw, spec.base_seed + 1009 * iw + rep)
             for iw in range(len(windows)) for rep in range(spec.replications)]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs, initializer=_share,
                                 initargs=(windows, truth)) as pool:
            outcomes = list(pool.map(_shared_replication, tasks))
    else:
        outcomes = list(map(partial(_one_replication, windows=windows,
                                    truth=truth), tasks))
    # (window, replication, outcome of `_one_replication`)
    outcomes = np.reshape(outcomes, (-1, spec.replications, 5))

    windows = []
    for depth, rows in zip(spec.window_depths_ev, outcomes):
        kept = rows[rows[:, 0] == 1.0, 1:]
        ((mean_m2, se_m2), (mean_w0, se_w0), (mean_m2c, se_m2c),
         (mean_w0c, _)) = map(_mean_se, kept.T)
        windows.append(WindowSummary(
            depth_ev=depth, n_fits=len(kept),
            n_excluded=spec.replications - len(kept),
            mean_m2nu=mean_m2, se_m2nu=se_m2, mean_w0_shift=mean_w0,
            se_w0_shift=se_w0, control_mean_m2nu=mean_m2c,
            control_se_m2nu=se_m2c, control_mean_w0_shift=mean_w0c))
    flagged = any(w.n_excluded > 0.1 * spec.replications for w in windows)
    return BiasScanResult(spec=spec, windows=tuple(windows), flagged=flagged)


def save_bias_csv(result: BiasScanResult, path: str) -> None:
    write_table(path, ["depth_eV", "n_fits", "n_excluded", "mean_m2nu_eV2",
                       "se_m2nu_eV2", "mean_W0_shift_eV", "se_W0_shift_eV",
                       "control_mean_m2nu_eV2", "control_se_m2nu_eV2",
                       "control_mean_W0_shift_eV"],
                [(w.depth_ev, w.n_fits, w.n_excluded, w.mean_m2nu, w.se_m2nu,
                  w.mean_w0_shift, w.se_w0_shift, w.control_mean_m2nu,
                  w.control_se_m2nu, w.control_mean_w0_shift)
                 for w in result.windows])
