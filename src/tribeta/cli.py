"""Command-line front end.

Subcommands: `constants dump`, `fss gen`, `fss moments`, `spectrum`,
`convolve`, `fit`, `bias-scan`, `fig2`.  Exit status: 0 success,
1 validation/usage error, 2 numerical-convergence failure.

Every run that writes outputs also writes `<output>.manifest.json`
recording the command, input hashes (a TRIBETA_CONSTANTS override file
among them), constants version and seeds; re-runs with identical inputs
produce byte-identical primary outputs (manifests differ only in the
timestamp field).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import AccuracyError, ModelError, ValidationError
from .fit import PARAM_NAMES, FitConfig, minimize
from .franck_condon import MoleculeModel, RecoilEngine, default_model
from .fss import cumulative_moments, load_fss, save_fss
from .kernel import (SpectrumParams, differential_spectrum, integral_spectrum,
                     linearized_spectrum)
from .physics import CONSTANTS, CONSTANTS_ENV_VAR
from .response import ResponseModel, convolve, load_dataset
from .bias import (ScanSpec, bias_scan, build_study_fss, fig2_study,
                   save_bias_csv, save_bias_json, save_fig2_csv)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(output_path: str, args: argparse.Namespace,
                    inputs: list[str], seeds=None) -> None:
    manifest = {
        "tool": f"tribeta {__version__}",
        "command": args.command,
        "argv": sys.argv[1:],
        "constants_version": CONSTANTS.version,
        "inputs": {p: _sha256(p)
                   for p in inputs + [os.environ.get(CONSTANTS_ENV_VAR)]
                   if p and os.path.exists(p)},
        "seeds": seeds,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(output_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_outdir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _load_model(path: str | None) -> MoleculeModel:
    if path is None:
        return default_model()
    with open(path, "r", encoding="utf-8") as fh:
        return MoleculeModel.from_json(fh.read())


def _from_doc(cls, doc, source: str):
    """cls(**doc), with a bad key or value type as a ValidationError."""
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def _load_params(path: str) -> SpectrumParams:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return _from_doc(SpectrumParams, doc, path)


def _load_rates(path: str) -> np.ndarray:
    """(energy, rate) rows of a rate CSV, after its header row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = []
    for lineno, row in enumerate(rows, start=2):
        try:
            energy, rate = row
            data.append((float(energy), float(rate)))
        except ValueError:
            raise ValidationError(f"{path} row {lineno}: expected two numbers "
                                  f"epsilon_beta_eV,rate, got {row!r}") from None
    return np.array(data)


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


def _write_rate_csv(path: str, energies, rates) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon_beta_eV", "rate"])
        for e, r in zip(energies, rates):
            writer.writerow([f"{e:.12g}", f"{r:.12g}"])


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_constants_dump(args) -> int:
    text = CONSTANTS.dump_json()
    if args.out:
        _ensure_outdir(args.out)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(args.out, args, [])
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fss_gen(args) -> int:
    model = _load_model(args.model)
    engine = RecoilEngine(model, j_max=args.j_max, v_max=args.v_max,
                          convergence_check=not args.no_grid_check)
    spectrum = engine.overlaps(args.q)
    _ensure_outdir(args.out)
    save_fss(spectrum, args.out)
    sidecar = {
        "q_au": args.q,
        "j_max": args.j_max,
        "v_max": args.v_max,
        "line_count": len(spectrum),
        "total_probability": spectrum.total_probability,
        "truncation_deficit": spectrum.provenance.get("truncation_deficit"),
        "truncation_warning": spectrum.provenance.get("truncation_warning", False),
        "grid": spectrum.provenance.get("grid"),
        "model_hash": model.parameter_hash(),
    }
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, args, [args.model] if args.model else [])
    return 0


def _cmd_fss_moments(args) -> int:
    spectrum = load_fss(args.fss)
    rows = []
    for eps in args.eps:
        m = cumulative_moments(spectrum, eps)
        rows.append((eps, m))
    if args.out:
        _ensure_outdir(args.out)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps_eV", "P_eps", "mean_E_eV", "mean_E2_eV2",
                             "mean_E3_eV3"])
            for eps, m in rows:
                writer.writerow([f"{eps:.12g}", f"{m.p_open:.12g}"]
                                + (["absent"] * 3 if not m.open else
                                   [f"{m.mean_e:.12g}", f"{m.mean_e2:.12g}",
                                    f"{m.mean_e3:.12g}"]))
        _write_manifest(args.out, args, [args.fss])
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
    params = _load_params(args.params)
    grid = _energy_grid(args)
    form = {"integral": integral_spectrum,
            "differential": differential_spectrum,
            "linearized": linearized_spectrum}[args.form]
    rates = form(grid, params, spectrum_fss)
    _ensure_outdir(args.out)
    _write_rate_csv(args.out, grid, np.atleast_1d(rates))
    _write_manifest(args.out, args, [args.fss, args.params])
    return 0


def _cmd_convolve(args) -> int:
    data = _load_rates(args.rates)
    response = ResponseModel(sigma_ev=args.sigma)
    smeared = convolve(
        lambda e: np.interp(e, data[:, 0], data[:, 1]), response)
    rates = smeared(data[:, 0])
    _ensure_outdir(args.out)
    _write_rate_csv(args.out, data[:, 0], rates)
    _write_manifest(args.out, args, [args.rates])
    return 0


def _cmd_fit(args) -> int:
    sidecar = args.dataset + ".json"
    if not os.path.exists(sidecar):
        print(f"warning: dataset sidecar {sidecar} not found; "
              "fitting with exposure = 1.0", file=sys.stderr)
    dataset = load_dataset(args.dataset, sidecar)
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError(f"{args.config}: expected a JSON object")
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
    params = _from_doc(SpectrumParams, doc.get("initial"), f"{args.config} initial")
    response = _from_doc(ResponseModel, doc.get("response", {"sigma_ev": 2.5}),
                         f"{args.config} response")
    config = FitConfig(
        window_ev=tuple(window), initial=params, response=response,
        fss=spectrum_fss, free=tuple(free), max_iterations=max_iterations)
    result = minimize(dataset, config)
    out = {
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
    }
    _ensure_outdir(args.out)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, args, [args.dataset, args.config, args.fss])
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
    _ensure_outdir(args.out)
    save_bias_csv(result, args.out)
    save_bias_json(result, args.out + ".json")
    _write_manifest(args.out, args, [args.fss] if args.fss else [],
                    seeds={"base_seed": args.seed})
    if result.flagged:
        print("warning: more than 10% of fits excluded", file=sys.stderr)
        return 2
    return 0


def _cmd_fig2(args) -> int:
    spectrum_fss = load_fss(args.fss) if args.fss else build_study_fss()
    result = fig2_study(spectrum_fss, endpoint_ev=args.w0, m_nu_ev=args.mnu)
    _ensure_outdir(args.out)
    save_fig2_csv(result, args.out)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump({"c_fit": result.c_fit, "m_nu_ev": result.m_nu_ev,
                   "endpoint_ev": result.endpoint_ev,
                   "bound_holds": result.bound_holds()}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, args, [args.fss] if args.fss else [])
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
        return args.handler(args)
    except (ValidationError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
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
