"""Experiment runner: config parsing, dispatch, and machine-readable reports.

Each runner is a pure function of its resolved config: it returns its summary,
whose verdict is a list of named checks with fixed bounds, and its sweep:
CSV lines, or an array that `main` saves as .npy.  `main` writes it and
summary.json and summary.txt only after the verdict.  Report bodies are
deterministic for a fixed resolved config; the only timestamp is the first
line of summary.txt, so the rest compares byte for byte.

Exit codes: 0 all checks pass, 1 check failure, 2 usage/config error,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import locale  # noqa: F401 -- argparse's gettext imports it when main() builds the parser
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import numpy.random

from .extrapolation import atom_uniformity_experiment, combination_rate_experiment
from .operators import (
    TimeGrid,
    kernel_lattice_sum,
    maximal_over_times,
    oscillating_op,
    riesz_mean_op,
    verify_kernel_decay,
)
from .quadrature import (
    MIN_FIT_SAMPLES,
    check,
    decay_law,
    dyadic_band_ratio,
    dyadic_tail_order,
    verify_small_tau_decay,
)
from .symbols import CUTOFF_KINDS, CutoffProfile, SymbolParams
from .torus import LatticeGrid, pure_mode, random_spectral_field

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NON_CONVERGENCE = 3

DEFAULTS = {
    "symbol-decay": {
        "alpha": 0.5,
        "beta": 0.5,
        "L": 0,
        "tau_lo": 1e-3,
        "tau_hi": 1e-1,
        "n_samples": 25,
        "cutoff_kind": "smoothstep_poly",
        "cutoff_order": 7,
    },
    "dyadic-decay": {
        "alpha": 0.5,
        "beta": 1.0,
        "k": 6,
        "tau_lo": 2.0,
        "tau_hi": 10.0,
        "n_samples": 15,
        "cutoff_kind": "smoothstep_poly",
        "cutoff_order": 7,
    },
    "kernel-decay": {
        "alpha": 0.5,
        "beta": 0.5,
        "t": 0.5,
        "eps": 1e-7,
        "m_cap": 200_000,
        "ratio_lo": 0.05,
        "ratio_hi": 1.0,
        "n_samples": 20,
        "cutoff_kind": "smoothstep_poly",
        "cutoff_order": 7,
    },
    "rate-combo": {
        "alpha": 0.5,
        "beta": 0.75,
        "p": 0.5,
        "N": 0,  # 0 means the minimal admissible order floor(beta/alpha)+1
        "n_modes": 64,
        "band_limit": 16,
        "seed": 0,
        "t_lo": 1e-4,
        "t_hi": 1e-2,
        "n_samples": 24,
    },
    "rate-riesz": {
        "k": 1.0,
        "alpha": 0.5,
        "n_modes": 64,
        "mode": 7,
        "t_lo": 1e-4,
        "t_hi": 1e-2,
        "n_samples": 12,
    },
    "atom-uniformity": {
        "p": 0.5,
        "alpha": 0.5,
        "beta": 0.75,
        "n_modes": 1024,
        "atom_count": 50,
        "seed": 0,
    },
    "maximal-sweep": {
        "alpha": 0.5,
        "beta": 0.75,
        "dimension": 1,
        "n_modes": 256,
        "band_limit": 64,
        "sigma": 0.5,
        "time_count": 32,
        "span_octaves": 12.0,
        "seed": 0,
    },
}

def _number(text: str):
    """A numeric flag: an int when the text is an integer literal, else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _check_value(key: str, value, default) -> None:
    """A value must have the type of the experiment's own default for its key;
    where that default is a float, an int is accepted too.  A number must fit
    a float: nan, +-inf and larger integers are refused.  Every n_samples
    feeds a power-law fit, and every window end (a key ending in _lo or _hi:
    tau, t and the ratios) ends a geometric sequence, so it must be positive."""
    if key == "cutoff_kind":
        valid = value in CUTOFF_KINDS
    else:
        accepted = (int, float) if isinstance(default, float) else int
        valid = isinstance(value, accepted) and not isinstance(value, bool)
        valid = valid and abs(value) <= sys.float_info.max
    if not valid:
        raise ValueError(f"config key {key!r} has invalid value {value!r}")
    if key == "n_samples" and value < MIN_FIT_SAMPLES:
        raise ValueError(f"config key 'n_samples' must be at least {MIN_FIT_SAMPLES} to fit a power law, got {value}")
    if key.endswith(("_lo", "_hi")) and not value > 0.0:
        raise ValueError(f"config key {key!r} must be positive, got {value!r}")


def _resolve_config(experiment: str, config_file, flag_values: dict) -> dict:
    """The defaults, then the file's values, then the flags: one check and coercion for all."""
    defaults = DEFAULTS[experiment]
    loaded = {}
    if config_file is not None:
        with open(config_file) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        named = loaded.pop("experiment", experiment)
        if named != experiment:
            raise ValueError(f"config file is for experiment {named!r}, not {experiment}")
    config = dict(defaults)
    sources = [(key, value, False) for key, value in loaded.items()]
    sources += [(key, value, True) for key, value in flag_values.items() if value is not None]
    for key, value, is_flag in sources:
        if key not in config and is_flag:
            raise ValueError(f"flag --{key.replace('_', '-')} does not apply to {experiment}")
        if key not in config:
            raise ValueError(f"unknown config key {key!r} for {experiment}")
        _check_value(key, value, defaults[key])
        config[key] = float(value) if isinstance(defaults[key], float) else value
    return config


def _csv(header, rows):
    """CSV lines of a header and numeric rows, float cells as repr(float(v)):
    for such plain cells, the bytes csv.writer writes."""
    yield ",".join(header) + "\r\n"
    for row in rows:
        yield ",".join([repr(float(v)) if isinstance(v, float) else str(v) for v in row]) + "\r\n"


def _write_summary(out_dir: Path, experiment: str, config: dict, summary: dict) -> None:
    body = {
        "experiment": experiment,
        "config": config,
        **summary,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}"]
    lines.append(f"experiment: {experiment}")
    lines += [f"{key}: {summary[key]}" for key in sorted(summary) if key != "checks"]
    for c in summary["checks"]:
        verdict = "pass" if c["pass"] else "FAIL"
        lines.append(f"check {c['name']}: {c['value']!r} {c['relation']} {c['bound']!r} {verdict}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


def _fit_dict(fit) -> dict:
    return {**dataclasses.asdict(fit), "tau_range": list(fit.tau_range)}


def _law_report(experiment, report, predicted_key, header, rows, *checks):
    """A power-law runner's summary, of `decay_law`'s report and further
    `checks`, and its CSV of `rows` under `header`."""
    return {
        "fitted": _fit_dict(report["fitted"]),
        predicted_key: report["predicted"],
        "checks": [*report["checks"], *checks],
    }, {f"{experiment}.csv": _csv(header, rows)}


def _symbol(config):
    """A config's (SymbolParams, CutoffProfile)."""
    profile = CutoffProfile(config["cutoff_kind"], config["cutoff_order"])
    return SymbolParams(config["alpha"], config["beta"]), profile


def _complex_row(coordinate, v):
    """The CSV row (coordinate, re, im, modulus) of a complex sample."""
    return coordinate, v.real, v.imag, abs(v)


def _run_symbol_decay(config):
    """small-tau blow-up exponent of the cosine transform of the oscillating
    symbol (and its tau-derivatives) against the predicted
    -L/(1-alpha) + (alpha-2+2*beta)/(2*(1-alpha))"""
    report = verify_small_tau_decay(
        *_symbol(config),
        config["L"],
        config["tau_lo"],
        config["tau_hi"],
        n_samples=config["n_samples"],
    )
    rows = [_complex_row(*sample) for sample in report["samples"]]
    header = ["tau", "re", "im", "modulus"]
    return _law_report("symbol-decay", report, "predicted_exponent", header, rows)


def _run_dyadic_decay(config):
    """outer-region decay order and middle-region normalized magnitude of the
    frequency-localized transform pieces"""
    params, profile = _symbol(config)
    tail = dyadic_tail_order(
        params,
        profile,
        k=config["k"],
        tau_lo=config["tau_lo"],
        tau_hi=config["tau_hi"],
        n_samples=config["n_samples"],
    )
    band = dyadic_band_ratio(params, profile)
    rows = [_complex_row(*sample) for sample in tail["samples"]]
    fit = tail["fitted"]
    order = -fit.slope
    return {
        "fitted_order": order,
        "tail_fit": _fit_dict(fit),
        "band_normalized": {str(kk): float(v) for kk, v in band["normalized"].items()},
        "band_ratio": float(band["ratio"]),
        "checks": [
            check("fitted_order", order, ">=", 3.0),
            check("band_ratio", band["ratio"], "<=", 10.0),
        ],
    }, {"dyadic-decay.csv": _csv(["scaled_tau", "re", "im", "modulus"], rows)}


def _run_kernel_decay(config):
    """near-diagonal decay of the 1-D kernel lattice sum against the predicted
    x/t power law, with truncation-doubling stability"""
    params, profile = _symbol(config)
    t = config["t"]
    ratios = np.geomspace(config["ratio_lo"], config["ratio_hi"], config["n_samples"])
    radii = ratios * t
    # the doubled sweep first: an m_cap whose double exceeds the lattice
    # limit is rejected before any sum is built
    doubled, report = (
        verify_kernel_decay(params, profile, t, radii, eps=config["eps"], M_cap=cap)
        for cap in (2 * config["m_cap"], config["m_cap"])
    )
    rows = []
    for x, u in zip(radii, ratios):
        v = kernel_lattice_sum(params, profile, t, float(x), eps=config["eps"], M_cap=config["m_cap"])
        rows.append(_complex_row(float(u), v))
    delta = abs(doubled["fitted"].slope - report["fitted"].slope)
    header = ["x_over_t", "re", "im", "modulus"]
    return _law_report("kernel-decay", report, "predicted_slope", header, rows,
                       check("m_cap_doubling_delta", delta, "<", 0.05))


def _run_rate_combo(config):
    """convergence rate of the Vandermonde time-combination of fractional
    propagators toward the identity"""
    grid = LatticeGrid(1, config["n_modes"])
    rng = np.random.default_rng(config["seed"])
    f = random_spectral_field(grid, rng, band_limit=config["band_limit"])
    times = np.geomspace(config["t_lo"], config["t_hi"], config["n_samples"])
    report = combination_rate_experiment(
        f,
        config["alpha"],
        config["beta"],
        config["p"],
        times=times,
        N=config["N"] or None,
    )
    return _law_report("rate-combo", report, "predicted_rate", ["t", "error"], report["samples"])


def _run_rate_riesz(config):
    """single-mode convergence rate of Riesz means of the fractional
    propagator"""
    if config["mode"] == 0:
        raise ValueError("mode 0 is the constant mode, which every Riesz mean leaves unchanged")
    grid = LatticeGrid(1, config["n_modes"])
    f = pure_mode(grid, (config["mode"],))
    times = np.geomspace(config["t_lo"], config["t_hi"], config["n_samples"])
    rows = []
    for t in times:
        diff = riesz_mean_op(f, config["k"], config["alpha"], float(t)).coefficients - f.coefficients
        rows.append((float(t), float(np.sqrt(np.sum(np.abs(diff) ** 2)))))
    if not any(error for _, error in rows):
        raise ValueError(f"every error is 0: the Riesz mean of order k = {config['k']} is the identity to rounding")
    report = decay_law(rows, 1.0, 0.05)
    return _law_report("rate-riesz", report, "predicted_slope", ["t", "error"], rows)


def _run_atom_uniformity(config):
    """weak-type quasinorm spread of the maximal oscillating operator over a
    batch of cancellative atoms"""
    grid = LatticeGrid(1, config["n_modes"])
    report = atom_uniformity_experiment(
        grid,
        config["p"],
        config["alpha"],
        config["beta"],
        atom_count=config["atom_count"],
        seed=config["seed"],
    )
    rows = zip(report["radii"], report["quasinorms"])
    return {
        "max": report["max"],
        "median": report["median"],
        "ratio": report["ratio"],
        "checks": [check("ratio", report["ratio"], "<=", 10.0)],
    }, {"atom-uniformity.csv": _csv(["radius", "quasinorm"], rows)}


def _run_maximal_sweep(config):
    """maximal function of the oscillating operator over a time grid, with
    refinement-stability delta"""
    grid = LatticeGrid(config["dimension"], config["n_modes"])
    rng = np.random.default_rng(config["seed"])
    f = random_spectral_field(grid, rng, band_limit=config["band_limit"])
    params = SymbolParams(config["alpha"], config["beta"])
    profile = CutoffProfile()
    time_grid = TimeGrid(
        sigma=config["sigma"],
        count=config["time_count"],
        span_octaves=config["span_octaves"],
    )
    # mu(t|xi|) vanishes wherever t|xi| <= 1, and no time exceeds sigma
    reach = config["sigma"] * np.max(grid.eigenvalue_array(), where=f.coefficients != 0, initial=0.0)
    if reach <= 1.0:
        raise ValueError(f"sigma * max |xi| = {reach} <= 1: the symbol vanishes on every mode")
    maxima = maximal_over_times(f, oscillating_op, time_grid.times, params, profile).samples
    fine = maximal_over_times(f, oscillating_op, time_grid.refined().times, params, profile).samples
    rise = fine - maxima
    monotone = check("monotone", np.min(rise), ">=", -1e-15)
    return {
        "sup_maximal": float(np.max(maxima)),
        "refinement_delta": float(np.max(rise)),
        "checks": [monotone],
    }, {"maximal-sweep.npy": maxima}


RUNNERS = {
    "symbol-decay": _run_symbol_decay,
    "dyadic-decay": _run_dyadic_decay,
    "kernel-decay": _run_kernel_decay,
    "rate-combo": _run_rate_combo,
    "rate-riesz": _run_rate_riesz,
    "atom-uniformity": _run_atom_uniformity,
    "maximal-sweep": _run_maximal_sweep,
}


def list_experiments() -> str:
    """Each experiment with its runner's docstring on one line, and its defaults."""
    lines = ["available experiments:"]
    for name, runner in RUNNERS.items():
        lines.append(f"  {name}: {' '.join(runner.__doc__.split())}")
        defaults = ", ".join(f"{k}={v}" for k, v in DEFAULTS[name].items())
        lines.append(f"      defaults: {defaults}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscimax",
        description="Numerical experiments for oscillatory spectral multipliers on flat tori.",
    )
    parser.add_argument("experiment", choices=[*RUNNERS, "list"])
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    for key in dict.fromkeys(key for defaults in DEFAULTS.values() for key in defaults):
        kind = {"choices": CUTOFF_KINDS} if key == "cutoff_kind" else {"type": _number}
        parser.add_argument(f"--{key.replace('_', '-')}", default=None, **kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        print(list_experiments())
        return EXIT_PASS

    flag_values = {
        key: value
        for key, value in vars(args).items()
        if key not in ("experiment", "config", "out")
    }
    try:
        config = _resolve_config(args.experiment, args.config, flag_values)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = args.out or Path(f"oscimax-out-{args.experiment}")
    # e.g. a file where the directory should be: refused before the run
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        print(f"config error: --out {out_dir}: {existing} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    try:
        summary, reports = RUNNERS[args.experiment](config)
    except RuntimeError as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE

    summary["pass"] = all(c["pass"] for c in summary["checks"])
    # e.g. a directory where a report goes: refused before the first write,
    # so that no partial report is left behind
    for path in (out_dir / name for name in (*reports, "summary.json", "summary.txt")):
        if path.exists() and not path.is_file():
            print(f"cannot write reports: {path} is not a regular file", file=sys.stderr)
            return EXIT_USAGE
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, report in reports.items():
            if isinstance(report, np.ndarray):
                with open(out_dir / name, "wb") as fh:
                    np.save(fh, report, allow_pickle=False)
            else:
                with open(out_dir / name, "w", newline="") as fh:
                    fh.writelines(report)
        _write_summary(out_dir, args.experiment, config, summary)
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return EXIT_USAGE
    status = EXIT_PASS if summary["pass"] else EXIT_CHECK_FAILURE
    print(f"{args.experiment}: {'pass' if status == EXIT_PASS else 'CHECK FAILED'} "
          f"(reports in {out_dir})")
    return status


if __name__ == "__main__":
    sys.exit(main())
