"""Command-line front end.

Subcommands: `constants dump`, `fss gen`, `fss moments`, `spectrum`,
`convolve`, `fit`, `bias-scan`, `fig2`.  Exit status: 0 success,
1 validation/usage error, 2 numerical-convergence failure.

A run with `--out` that returns (exit 0, or 2 for an unconverged fit or
a flagged scan) also writes `<output>.manifest.json`: the command, the
hashes of the input-flag files and a TRIBETA_CONSTANTS file, constants
version, seed, `jobs` (`bias-scan --jobs`), `libraries` (the numpy and
scipy versions) and `blas_threads` (`OPENBLAS_NUM_THREADS` and
`OMP_NUM_THREADS` in effect, taken from the environment).  Re-runs with
identical inputs produce byte-identical primary outputs; their manifests
differ only in the timestamp field when `--jobs` and the BLAS variables
are also the same.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys
import time
import warnings

# BLAS on one thread unless the user chose otherwise, set before numpy loads
# it: the dense radial solves round differently on more threads, and the
# rotational solves already run on two threads of their own
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in _BLAS_THREADS:
    os.environ.setdefault(_var, "1")

import numpy as np
import scipy

from . import __version__
from .errors import (AccuracyError, ConfigurationError, ModelError,
                     ValidationError, document_text, naming, read_document,
                     write_document, write_table)

try:
    from .fit import PARAM_NAMES, FitConfig, FitModel, minimize
    from .franck_condon import (TRUNCATION_WARN_FRACTION, MoleculeModel,
                                RecoilEngine, check_recoil_momentum,
                                default_model, truncation_warned)
    from .fss import cumulative_moments, load_fss, save_fss
    from .kernel import (SpectrumParams, differential_spectrum,
                         integral_spectrum, linearized_spectrum)
    from .physics import CONSTANTS, CONSTANTS_ENV_VAR
    from .response import Lattice, ResponseModel, convolve, load_dataset
    from .bias import (ScanSpec, bias_scan, build_study_fss, fig2_study,
                       save_bias_csv, save_fig2_csv)
except ConfigurationError as exc:
    # physics reads the TRIBETA_CONSTANTS file at import, before main runs
    sys.exit(f"error: {exc}")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args: argparse.Namespace) -> None:
    inputs = [getattr(args, flag, None) for flag in
              ("model", "fss", "params", "rates", "dataset", "config")]
    write_document(args.out + ".manifest.json", {
        "tool": f"tribeta {__version__}",
        "command": args.command,
        "argv": sys.argv[1:],
        "constants_version": CONSTANTS.version,
        "inputs": {p: _sha256(p)
                   for p in inputs + [os.environ.get(CONSTANTS_ENV_VAR)]
                   if p and os.path.exists(p)},
        "seeds": {"base_seed": args.seed} if "seed" in args else None,
        "jobs": getattr(args, "jobs", None),
        "libraries": {"numpy": np.__version__, "scipy": scipy.__version__},
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREADS},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    })


def _load_model(path: str | None) -> MoleculeModel:
    if path is None:
        return default_model()
    return MoleculeModel.from_dict(read_document(path), path)


def _load_rates(path: str) -> np.ndarray:
    """(energy, rate) rows of a rate CSV, after its header row: finite
    values, energies strictly increasing.  A first row of two numbers is
    data without a header, and is refused rather than dropped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    try:
        numbers = [float(value) for value in header]
    except ValueError:
        numbers = []
    if len(numbers) == 2:
        raise ValidationError(f"{path} row 1: expected a header row, got "
                              f"{header!r}")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data, last = [], -math.inf
    for lineno, row in enumerate(rows, start=2):
        try:
            energy, rate = map(float, row)
        except ValueError:
            raise ValidationError(f"{path} row {lineno}: expected two numbers "
                                  f"epsilon_beta_eV,rate, got {row!r}") from None
        # `not a < b < inf` so that NaN fails too
        if not (last < energy < math.inf and abs(rate) < math.inf):
            raise ValidationError(
                f"{path} row {lineno}: expected finite values, energies "
                f"strictly increasing, got {row!r}")
        data.append((energy, rate))
        last = energy
    return np.array(data)


_RATE_HEADER = ["epsilon_beta_eV", "rate"]


def _energy_grid(args) -> np.ndarray:
    # `not x > 0` and `not a < b` so that NaN fails too
    if args.step is not None and not args.step > 0.0:
        raise ValidationError(f"--step must be > 0, got {args.step}")
    if args.points < 1:
        raise ValidationError(f"--points must be >= 1, got {args.points}")
    if not args.emin < args.emax:
        raise ValidationError(
            f"--emin must be below --emax, got {args.emin} and {args.emax}")
    if args.step is not None:
        return np.arange(args.emin, args.emax + 1e-9, args.step)
    return np.linspace(args.emin, args.emax, args.points)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_constants_dump(args) -> int:
    if args.out:
        write_document(args.out, CONSTANTS.as_dict())
    else:
        sys.stdout.write(document_text(CONSTANTS.as_dict()))
    return 0


def _cmd_fss_gen(args) -> int:
    check_recoil_momentum(args.q)
    model = _load_model(args.model)
    engine = RecoilEngine(model, j_max=args.j_max, v_max=args.v_max,
                          convergence_check=not args.no_grid_check)
    spectrum = engine.overlaps(args.q)
    save_fss(spectrum, args.out)
    write_document(args.out + ".json", {
        **spectrum.provenance,
        "line_count": len(spectrum),
        "total_probability": spectrum.total_probability})
    for label, deficit in spectrum.provenance["truncation_deficit"].items():
        if truncation_warned(deficit):
            print(f"warning: channel {label} keeps less than "
                  f"{TRUNCATION_WARN_FRACTION:.0%} of its weight (deficit "
                  f"{deficit:.3g}); raise --j-max or --v-max", file=sys.stderr)
    return 0


def _cmd_fss_moments(args) -> int:
    spectrum = load_fss(args.fss)
    rows = [(eps, cumulative_moments(spectrum, eps)) for eps in args.eps]
    if args.out:
        write_table(args.out, ["eps_eV", "P_eps", "mean_E_eV", "mean_E2_eV2",
                               "mean_E3_eV3"],
                    [[eps, m.p_open] + ([m.mean_e, m.mean_e2, m.mean_e3]
                                        if m.open else ["absent"] * 3)
                     for eps, m in rows])
    else:
        for eps, m in rows:
            if m.open:
                print(f"eps={eps:.12g}  P={m.p_open:.12g}  <E>={m.mean_e:.12g}  "
                      f"<E2>={m.mean_e2:.12g}  <E3>={m.mean_e3:.12g}")
            else:
                print(f"eps={eps:.12g}  P=0  moments absent (no open channels)")
    return 0


def _cmd_spectrum(args) -> int:
    spectrum_fss = load_fss(args.fss)
    doc = read_document(args.params)
    with naming(args.params):
        params = SpectrumParams(**doc)
    grid = _energy_grid(args)
    form = {"integral": integral_spectrum,
            "differential": differential_spectrum,
            "linearized": linearized_spectrum}[args.form]
    rates = form(grid, params, spectrum_fss)
    write_table(args.out, _RATE_HEADER, zip(grid, np.atleast_1d(rates)))
    return 0


def _cmd_convolve(args) -> int:
    data = _load_rates(args.rates)
    response = ResponseModel(sigma_ev=args.sigma)
    smeared = convolve(
        lambda e: np.interp(e, data[:, 0], data[:, 1]), response)
    energies = data[:, 0]
    write_table(args.out, _RATE_HEADER, zip(energies, smeared(energies)))
    # np.interp holds the table constant beyond its ends, and a row's smear
    # reaches one response half-width either side of it: the end rows
    # always reach past the table
    reach = response.offsets()[-1]
    clamped = np.count_nonzero((energies - reach < energies[0])
                               | (energies + reach > energies[-1]))
    print(f"warning: {clamped} of {energies.size} output rows lie within the "
          f"response half-width ({reach:.6g} eV) of an end of {args.rates}, "
          "where the rates are held constant", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataset = load_dataset(args.dataset)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    doc = read_document(args.config)
    window = doc.get("window_ev")
    free = doc.get("free", list(PARAM_NAMES))
    max_iterations = doc.get("max_iterations", 100)
    for key, ok, expected in (
            ("window_ev", isinstance(window, list) and len(window) == 2
             and all(type(x) in (int, float) for x in window), "[lo, hi] in eV"),
            ("free", isinstance(free, list), "a list of parameter names"),
            ("max_iterations", type(max_iterations) is int, "an integer")):
        if not ok:
            raise ValidationError(
                f"{args.config} {key}: expected {expected}, got {doc.get(key)!r}")
    spectrum_fss = load_fss(args.fss)
    with naming(f"{args.config} initial"):
        params = SpectrumParams(**doc["initial"])
    with naming(f"{args.config} response"):
        response = ResponseModel(**doc.pop("response", {"sigma_ev": 2.5}))
    with naming(args.config):
        config = FitConfig(**{**doc, "window_ev": tuple(window),
                              "initial": params, "fss": spectrum_fss,
                              "free": tuple(free)})
    with naming(f"{args.config} window_ev"):
        mask = config.window_mask(dataset.bin_centers)
    # the model's lowest energy is its lowest bin centre less the reach
    lowest, reach = dataset.bin_centers[mask].min(), response.offsets()[-1]
    if lowest - reach <= 0.0:
        raise ValidationError(
            f"{args.dataset}: the window's lowest bin centre, {lowest:g} eV, "
            f"lies within the response half-width ({reach:g} eV) of 0 eV; "
            "the spectrum needs eps_beta > 0")
    result = minimize(dataset.counts[mask], FitModel.build(
        Lattice.build(response, dataset.bin_centers[mask]),
        dataset.exposure, config))
    write_document(args.out, {
        "values": {
            "amplitude": result.params.amplitude,
            "endpoint_ev": result.params.endpoint_ev,
            "m2nu_ev2": result.params.m2nu_ev2,
            "background": result.params.background,
        },
        "errors": result.errors,
        "covariance": None if result.covariance is None
        else result.covariance.tolist(),
        "free": list(result.free_names),
        "chi2": result.chi2,
        "dof": result.dof,
        "n_iterations": result.n_iterations,
        "converged": result.converged,
        "window_ev": list(result.window_ev),
        "message": result.message,
    })
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_bias_scan(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    spec = ScanSpec(window_depths_ev=tuple(args.depths),
                    replications=args.replications, base_seed=args.seed)
    fss = load_fss(args.fss) if args.fss else build_study_fss()
    result = bias_scan(spec, fss=fss, jobs=args.jobs)
    save_bias_csv(result, args.out)
    write_document(args.out + ".json", result.to_dict())
    if result.flagged:
        print("warning: more than 10% of fits excluded", file=sys.stderr)
        return 2
    return 0


def _cmd_fig2(args) -> int:
    spectrum_fss = load_fss(args.fss) if args.fss else build_study_fss()
    result = fig2_study(spectrum_fss, endpoint_ev=args.w0, m_nu_ev=args.mnu)
    save_fig2_csv(result, args.out)
    write_document(args.out + ".json", {
        "c_fit": result.c_fit, "m_nu_ev": result.m_nu_ev,
        "endpoint_ev": result.endpoint_ev, "bound_holds": result.bound_holds()})
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit status 2 on usage errors; the documented
    contract is usage text on stderr with exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tribeta",
        description="Tritium beta-decay endpoint spectrum laboratory")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_const = sub.add_parser("constants", help="physical constants")
    const_sub = p_const.add_subparsers(dest="subcommand", metavar="action")
    p_dump = const_sub.add_parser("dump", help="dump constants as JSON")
    p_dump.add_argument("--out", default=None)
    p_dump.set_defaults(handler=_cmd_constants_dump, command="constants dump")

    p_fss = sub.add_parser("fss", help="final-state spectrum operations")
    fss_sub = p_fss.add_subparsers(dest="subcommand", metavar="action")
    p_gen = fss_sub.add_parser("gen", help="generate an FSS table")
    p_gen.add_argument("--model", default=None,
                       help="molecule model JSON (default: built-in T2 model)")
    p_gen.add_argument("--q", type=float, required=True,
                       help="recoil momentum (a.u.)")
    p_gen.add_argument("--j-max", type=int, default=60)
    p_gen.add_argument("--v-max", type=int, default=80)
    p_gen.add_argument("--no-grid-check", action="store_true",
                       help="skip the N-doubling convergence gate")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(handler=_cmd_fss_gen, command="fss gen")

    p_mom = fss_sub.add_parser("moments", help="cumulative moments at eps")
    p_mom.add_argument("--fss", required=True)
    p_mom.add_argument("--eps", type=float, nargs="+", required=True)
    p_mom.add_argument("--out", default=None)
    p_mom.set_defaults(handler=_cmd_fss_moments, command="fss moments")

    p_spec = sub.add_parser("spectrum", help="evaluate a beta spectrum")
    p_spec.add_argument("--params", required=True, help="SpectrumParams JSON")
    p_spec.add_argument("--fss", required=True)
    p_spec.add_argument("--emin", type=float, required=True)
    p_spec.add_argument("--emax", type=float, required=True)
    p_spec.add_argument("--step", type=float, default=None)
    p_spec.add_argument("--points", type=int, default=200)
    p_spec.add_argument("--form", choices=["integral", "differential",
                                           "linearized"], default="integral")
    p_spec.add_argument("--out", required=True)
    p_spec.set_defaults(handler=_cmd_spectrum, command="spectrum")

    p_conv = sub.add_parser("convolve", help="smear a rate table")
    p_conv.add_argument("--rates", required=True, help="CSV epsilon_beta_eV,rate")
    p_conv.add_argument("--sigma", type=float, required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(handler=_cmd_convolve, command="convolve")

    p_fit = sub.add_parser("fit", help="fit a pseudo-dataset")
    p_fit.add_argument("--dataset", required=True)
    p_fit.add_argument("--config", required=True, help="fit config JSON")
    p_fit.add_argument("--fss", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(handler=_cmd_fit, command="fit")

    p_bias = sub.add_parser("bias-scan", help="negative-m2nu bias study")
    p_bias.add_argument("--depths", type=float, nargs="+",
                        default=[100.0, 200.0, 400.0])
    p_bias.add_argument("--replications", type=int, default=100)
    p_bias.add_argument("--seed", type=int, default=20240901)
    p_bias.add_argument("--fss", default=None,
                        help="FSS table (default: built-in study FSS)")
    p_bias.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the replications")
    p_bias.add_argument("--out", required=True)
    p_bias.set_defaults(handler=_cmd_bias_scan, command="bias-scan")

    p_fig2 = sub.add_parser("fig2", help="linearization accuracy study")
    p_fig2.add_argument("--fss", default=None)
    p_fig2.add_argument("--mnu", type=float, default=1.0)
    p_fig2.add_argument("--w0", type=float, default=18575.0)
    p_fig2.add_argument("--out", required=True)
    p_fig2.set_defaults(handler=_cmd_fig2, command="fig2")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        code = args.handler(args)
        if args.out:
            _write_manifest(args)
        return code
    except (ValidationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
