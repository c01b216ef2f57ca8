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

import csv
import json
import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .errors import ValidationError
from .fit import FitConfig, minimize
from .franck_condon import MoleculeModel, default_model, pseudo_spectrum
from .fss import FinalStateSpectrum, FssLine, from_lines
from .kernel import SpectrumParams, integral_spectrum, linearized_sum, spectral_sum
from .physics import momentum_from_kinetic
from .response import ResponseModel, generate_pseudodata

DEFAULT_ENDPOINT_EV = 18575.0


def build_study_fss(model: Optional[MoleculeModel] = None,
                    q_au: Optional[float] = None,
                    v_max: int = 24) -> FinalStateSpectrum:
    """Compact FSS for fit studies: ground-channel pseudo-spectrum plus the
    model's lumped excited-electronic lines.

    A few dozen lines keep ensemble fitting fast.  Their channel-0 mean
    matches the full recoil FSS (1.75529 eV at the endpoint), but not their
    variance (0.0083 against 0.1864 eV^2): the pseudo-spectrum has no
    rotational broadening.
    """
    model = model or default_model()
    if q_au is None:
        q_au = momentum_from_kinetic(DEFAULT_ENDPOINT_EV).recoil_q_au
    lines = pseudo_spectrum(model, q_au, v_max=v_max).lines
    lines += tuple(FssLine(ch.offset_ev, ch.weight, channel=ic)
                   for ic, ch in enumerate(model.channels)
                   if ch.kind == "line" and ch.weight > 0.0)
    return from_lines(lines, q_ref=q_au,
                      provenance={"study_fss": True, "v_max": v_max,
                                  "model_hash": model.parameter_hash()})


# ---------------------------------------------------------------------------
# linearization accuracy study

@dataclass(frozen=True)
class Fig2Row:
    depth_ev: float       # W0 - eps_beta
    exact: float
    linear: float
    difference: float
    trend: float          # (m_nu c^2)^4 / depth


@dataclass(frozen=True)
class Fig2Result:
    rows: tuple[Fig2Row, ...]
    c_fit: float          # difference <= c_fit * trend at every grid point
    m_nu_ev: float
    endpoint_ev: float

    def bound_holds(self) -> bool:
        return all(r.difference <= self.c_fit * r.trend + 1e-300
                   for r in self.rows)


def fig2_study(fss: FinalStateSpectrum, endpoint_ev: float = DEFAULT_ENDPOINT_EV,
               m_nu_ev: float = 1.0, depth_min_ev: float = 2.0,
               depth_max_ev: float = 300.0,
               n_points: int = 240) -> Fig2Result:
    """|exact - linearized| spectral sum versus depth below the endpoint,
    with the m_nu^4 / depth trend and its fitted coefficient."""
    if m_nu_ev < 0.0:
        raise ValidationError("m_nu must be >= 0")
    depths = np.geomspace(depth_min_ev, depth_max_ev, n_points)
    params = SpectrumParams(amplitude=1.0, endpoint_ev=endpoint_ev,
                            m2nu_ev2=m_nu_ev ** 2)
    eps = endpoint_ev - depths
    exact = np.atleast_1d(spectral_sum(eps, params, fss))
    linear = np.atleast_1d(linearized_sum(eps, params, fss))
    diff = np.abs(exact - linear)
    trend = np.where(depths > 0, m_nu_ev ** 4 / depths, np.inf)
    if m_nu_ev == 0.0:
        c_fit = 0.0
    else:
        c_fit = float(np.max(diff * depths) / m_nu_ev ** 4)
    rows = tuple(Fig2Row(float(d), float(e), float(l), float(df), float(t))
                 for d, e, l, df, t in zip(depths, exact, linear, diff, trend))
    return Fig2Result(rows=rows, c_fit=c_fit, m_nu_ev=m_nu_ev,
                      endpoint_ev=endpoint_ev)


def save_fig2_csv(result: Fig2Result, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth_eV", "exact_sum", "linear_sum",
                         "abs_difference", "trend"])
        for r in result.rows:
            writer.writerow([f"{r.depth_ev:.12g}", f"{r.exact:.12g}",
                             f"{r.linear:.12g}", f"{r.difference:.12g}",
                             f"{r.trend:.12g}"])


# ---------------------------------------------------------------------------
# negative-m2nu bias scan

@dataclass(frozen=True)
class ScanSpec:
    """Window scan configuration for the bias study."""

    window_depths_ev: tuple[float, ...] = (100.0, 200.0, 400.0)
    replications: int = 100
    base_seed: int = 20240901
    generator_drift: bool = True
    fitter_drift: bool = False
    endpoint_ev: float = DEFAULT_ENDPOINT_EV
    sigma_ev: float = 2.5
    bin_spacing_ev: float = 2.0
    window_top_margin_ev: float = 20.0
    anchor_depth_ev: float = 200.0
    anchor_counts: float = 2.56e11
    background_fraction: float = 0.04

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("need at least one replication")
        depths = self.window_depths_ev
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
        return {"spec": asdict(self.spec), "flagged": self.flagged,
                "windows": [asdict(w) for w in self.windows]}


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return float(arr.mean()) if arr.size else math.nan, math.nan
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _one_replication(args) -> tuple[bool, float, float, float, float]:
    (truth, fss, response, centers, exposure, seed, mismatch_cfg,
     control_cfg) = args
    dataset = generate_pseudodata(truth, fss, response, centers, exposure,
                                  seed)
    fit_mis = minimize(dataset, mismatch_cfg)
    fit_ctl = minimize(dataset, control_cfg)
    ok = fit_mis.converged and fit_ctl.converged
    w0 = truth.endpoint_ev
    return (ok, fit_mis.params.m2nu_ev2, fit_mis.params.endpoint_ev - w0,
            fit_ctl.params.m2nu_ev2, fit_ctl.params.endpoint_ev - w0)


def bias_scan(spec: ScanSpec, fss: Optional[FinalStateSpectrum] = None,
              jobs: int = 1) -> BiasScanResult:
    """Ensemble of drift-on pseudo-experiments fitted drift-off, window by
    window, with the drift-matched control on the same datasets.

    Replications are independent; with jobs > 1 they run in a process pool
    and are reduced in replication order, so results are identical for any
    job count.
    """
    fss = fss or build_study_fss()
    response = ResponseModel(sigma_ev=spec.sigma_ev)
    w0 = spec.endpoint_ev

    # exposure anchored at a fixed depth so window choice does not change
    # the endpoint-region statistics
    probe = SpectrumParams(amplitude=1.0, endpoint_ev=w0)
    anchor_rate = float(integral_spectrum(w0 - spec.anchor_depth_ev, probe,
                                          fss))
    exposure = spec.anchor_counts / anchor_rate
    background = spec.background_fraction * spec.anchor_counts

    truth = SpectrumParams(amplitude=1.0, endpoint_ev=w0, m2nu_ev2=0.0,
                           background=background,
                           endpoint_drift=spec.generator_drift)

    windows = []
    flagged = False
    for iw, depth in enumerate(spec.window_depths_ev):
        n_edge = int(round(depth / spec.bin_spacing_ev))
        n_top = int(round(spec.window_top_margin_ev / spec.bin_spacing_ev))
        centers = w0 + (np.arange(-n_edge, n_top + 1) * spec.bin_spacing_ev)
        window = (w0 - depth - 1e-9, w0 + spec.window_top_margin_ev + 1e-9)

        guess = truth.with_values(amplitude=1.01, m2nu_ev2=0.3,
                                  endpoint_ev=w0 - 0.05,
                                  background=background * 1.05)
        mismatch_cfg = FitConfig(window_ev=window,
                                 initial=guess.with_values(
                                     endpoint_drift=spec.fitter_drift),
                                 response=response, fss=fss)
        control_cfg = FitConfig(window_ev=window,
                                initial=guess.with_values(
                                    endpoint_drift=spec.generator_drift),
                                response=response, fss=fss)

        tasks = [(truth, fss, response, centers, exposure,
                  spec.base_seed + 1009 * iw + rep, mismatch_cfg,
                  control_cfg)
                 for rep in range(spec.replications)]
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(_one_replication, tasks))
        else:
            outcomes = [_one_replication(task) for task in tasks]

        m2_mis, w0_mis, m2_ctl, w0_ctl = [], [], [], []
        excluded = 0
        for ok, m2m, w0m, m2c, w0c in outcomes:
            if not ok:
                excluded += 1
                continue
            m2_mis.append(m2m)
            w0_mis.append(w0m)
            m2_ctl.append(m2c)
            w0_ctl.append(w0c)
        if excluded > 0.1 * spec.replications:
            flagged = True
        mean_m2, se_m2 = _mean_se(m2_mis)
        mean_w0, se_w0 = _mean_se(w0_mis)
        mean_m2c, se_m2c = _mean_se(m2_ctl)
        mean_w0c, _ = _mean_se(w0_ctl)
        windows.append(WindowSummary(
            depth_ev=depth, n_fits=len(m2_mis), n_excluded=excluded,
            mean_m2nu=mean_m2, se_m2nu=se_m2, mean_w0_shift=mean_w0,
            se_w0_shift=se_w0, control_mean_m2nu=mean_m2c,
            control_se_m2nu=se_m2c, control_mean_w0_shift=mean_w0c))
    return BiasScanResult(spec=spec, windows=tuple(windows), flagged=flagged)


def save_bias_csv(result: BiasScanResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth_eV", "n_fits", "n_excluded", "mean_m2nu_eV2",
                         "se_m2nu_eV2", "mean_W0_shift_eV", "se_W0_shift_eV",
                         "control_mean_m2nu_eV2", "control_se_m2nu_eV2",
                         "control_mean_W0_shift_eV"])
        for w in result.windows:
            writer.writerow([f"{w.depth_ev:.12g}", w.n_fits, w.n_excluded,
                             f"{w.mean_m2nu:.12g}", f"{w.se_m2nu:.12g}",
                             f"{w.mean_w0_shift:.12g}", f"{w.se_w0_shift:.12g}",
                             f"{w.control_mean_m2nu:.12g}",
                             f"{w.control_se_m2nu:.12g}",
                             f"{w.control_mean_w0_shift:.12g}"])


def save_bias_json(result: BiasScanResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
