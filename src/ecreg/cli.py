"""Command-line front end: synthesize, fit, LOO-CV, sweep, calibrate.

Every subcommand is a thin composition of library calls; outputs are CSV and
JSON files whose headers echo the version, data, prior and grid flags they
ran with, so any run can be reproduced from its artifacts alone (fit's
bounds are the fixed FitSettings constants).  Exit codes: 0 success, 1
numerical failure, 2 usage error.
"""

import argparse
import math
import sys
from dataclasses import asdict, replace

from . import __version__
from .core import fit
from .data_io import (
    SynthConfig,
    _write_json,
    error_summary,
    gen_synthetic,
    load_csv,
    save_calibration_csv,
    save_dataset_csv,
    save_fit_json,
    save_loo_csv,
    save_sweep_csv,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EcregError,
    IoError,
    MissingTarget,
    ParseError,
)
from .hyper import SweepGrid, calibrate, sweep
from .loocv import _check_kfold, approx_looe, kfold_cv, literal_loocv
from .priors import BERNOULLI_GAUSS, BERNOULLI_UNIFORM, PriorSpec

_FAMILIES = {"bg": BERNOULLI_GAUSS, "bu": BERNOULLI_UNIFORM}

_USAGE_ERRORS = (ConfigError, ParseError, MissingTarget, DimensionMismatch, IoError)


def _float_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite positive number: {text!r}")
    return value


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="input CSV (rows = samples)")
    p.add_argument("--target", default="y", help="target column name")
    p.add_argument("--center", action="store_true",
                   help="subtract feature and target means before fitting")


def _add_prior_flags(p):
    p.add_argument("--family", choices=sorted(_FAMILIES), default="bg",
                   help="prior family: bg = Bernoulli-Gauss, bu = Bernoulli-uniform")
    p.add_argument("--rho", type=float, help="prior non-zero fraction")
    p.add_argument("--sigma-w2", type=float,
                   help="slab variance (bg family only)")


def _family_from_flags(args, sigma, sigma_flag):
    """The prior family; the slab-variance flag must be given exactly when the
    family has a Gaussian slab."""
    family = _FAMILIES[args.family]
    if family == BERNOULLI_GAUSS and sigma is None:
        raise ConfigError(f"{sigma_flag} is required with --family bg")
    if family == BERNOULLI_UNIFORM and sigma is not None:
        raise ConfigError(f"{sigma_flag} is not accepted with --family bu")
    return family


def _prior_from_flags(args):
    if args.rho is None:
        raise ConfigError("--rho is required for this command")
    family = _family_from_flags(args, args.sigma_w2, "--sigma-w2")
    return PriorSpec(family=family, rho=args.rho, sigma_w2=args.sigma_w2)


def _load_dataset(args):
    return load_csv(args.data, args.target, center=args.center)


def _prior_lines(prior, beta):
    parts = [f"family={prior.family}", f"rho={prior.rho!r}"]
    if prior.sigma_w2 is not None:
        parts.append(f"sigma_w2={prior.sigma_w2!r}")
    parts.append(f"beta={beta!r}")
    return ["prior: " + " ".join(parts)]


def _data_lines(args):
    """The output header's data line.  ConfigError when --data or --target
    holds a line break, which the CSV writers refuse: a command that echoes
    them calls this before it loads anything."""
    line = f"data: path={args.data} target={args.target} center={args.center}"
    if "\n" in line or "\r" in line:
        raise ConfigError(f"{line!r} holds a line break")
    return [line]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args):
    config = SynthConfig(N=args.n, alpha=args.alpha, rho0=args.rho0,
                         sigma_w0_sq=args.sigma_w0_sq,
                         sigma_n0_sq=args.sigma_n0_sq, seed=args.seed,
                         test_samples=args.test_samples or 0)
    if args.test_samples is None:
        config = replace(config, test_samples=config.M)
    train, truth, heldout = gen_synthetic(config)
    header = [
        f"ecreg {__version__} synth",
        f"n={config.N} alpha={config.alpha!r} rho0={config.rho0!r} "
        f"sigma_w0_sq={config.sigma_w0_sq!r} sigma_n0_sq={config.sigma_n0_sq!r} "
        f"seed={config.seed} test_samples={config.test_samples}",
    ]
    save_dataset_csv(args.out_train, train, header_lines=header + ["split=train"])
    print(f"wrote {args.out_train}: {train.n_samples} samples x "
          f"{train.n_features} features")
    if heldout is not None:
        save_dataset_csv(args.out_test, heldout, header_lines=header + ["split=test"])
        print(f"wrote {args.out_test}: {heldout.n_samples} samples x "
              f"{heldout.n_features} features")
    if args.out_truth:
        _write_json(args.out_truth, {"w0": truth.w0, "support": truth.support,
                                     "settings": asdict(config)})
        print(f"wrote {args.out_truth}: {truth.support.size} non-zero coefficients")
    return 0


def _cmd_fit(args):
    prior = _prior_from_flags(args)
    dataset, record = _load_dataset(args)
    result = fit(dataset, prior, args.beta)
    summary = error_summary(result.state.m, dataset)
    extra = {
        "command": "fit",
        "version": __version__,
        "data": args.data,
        "target": args.target,
        "center": args.center,
        "family": prior.family,
        "rho": prior.rho,
        "sigma_w2": prior.sigma_w2,
        "beta": args.beta,
        "eps": summary.eps,
        "y_mean": record.y_mean,
        "feature_means": record.feature_means,
    }
    save_fit_json(args.out, result, extra=extra)
    state = result.state
    print(f"wrote {args.out}: converged={state.converged} "
          f"iterations={state.iterations} free_energy={state.free_energy!r} "
          f"eps={summary.eps!r}")
    if not state.converged:
        print("fit did not converge within the iteration budget", file=sys.stderr)
        return 1
    return 0


def _cmd_loocv(args):
    prior = _prior_from_flags(args)
    data_lines = _data_lines(args)
    # k and the seed fail before the fit and the refits; k's upper bound
    # is the sample count, known once the data is loaded
    if args.kfold is not None:
        _check_kfold(args.kfold, args.seed)
    dataset, _ = _load_dataset(args)
    if args.kfold is not None:
        _check_kfold(args.kfold, args.seed, dataset.n_samples)
    result = fit(dataset, prior, args.beta)
    report = approx_looe(result, dataset, args.beta)
    print(f"approx: eps_loo={report.eps_loo!r} "
          f"flagged={len(report.flagged)} wall={report.wall_time:.3f}s")
    literal = None
    if args.literal:
        literal = literal_loocv(dataset, prior, args.beta)
        rel = abs(report.eps_loo - literal.eps_loo) / max(literal.eps_loo, 1e-300)
        print(f"literal: eps_loo={literal.eps_loo!r} "
              f"flagged={len(literal.flagged)} wall={literal.wall_time:.3f}s "
              f"relative_gap={rel:.3e}")
    if args.kfold is not None:
        kreport = kfold_cv(dataset, prior, args.beta, args.kfold, seed=args.seed)
        print(f"kfold({args.kfold}): eps={kreport.eps_loo!r} "
              f"wall={kreport.wall_time:.3f}s")
    header = ([f"ecreg {__version__} loocv"] + data_lines
              + _prior_lines(prior, args.beta)
              + [f"seed={args.seed}",
                 f"eps_loo_approx={report.eps_loo!r}"])
    if literal is not None:
        header.append(f"eps_loo_literal={literal.eps_loo!r}")
    save_loo_csv(args.out, report, literal_report=literal, header_lines=header)
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args):
    family = _family_from_flags(args, args.sigma_w2_grid, "--sigma-w2-grid")
    data_lines = _data_lines(args)
    dataset, _ = _load_dataset(args)
    grid = SweepGrid(beta_values=args.beta_grid, rho_values=args.rho_grid,
                     sigma_w2_values=args.sigma_w2_grid)
    result = sweep(dataset, family, grid)
    for p in result.points:
        print(f"point beta={p.beta!r} rho={p.rho!r} sigma_w2={p.sigma_w2!r} "
              f"eps={p.eps!r} eps_loo={p.eps_loo!r} converged={p.converged}"
              + (f" error={p.error}" if p.error else ""))
    best = result.best
    print(f"best: beta={best.beta!r} rho={best.rho!r} sigma_w2={best.sigma_w2!r} "
          f"eps_loo={best.eps_loo!r}")
    header = ([f"ecreg {__version__} sweep"] + data_lines
              + [f"family={family} beta_grid={args.beta_grid} "
                 f"rho_grid={args.rho_grid} sigma_w2_grid={args.sigma_w2_grid}"]
              + [f"best: beta={best.beta!r} rho={best.rho!r} "
                 f"sigma_w2={best.sigma_w2!r} eps_loo={best.eps_loo!r}"])
    save_sweep_csv(args.out, result.points, header_lines=header)
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args):
    family = _family_from_flags(args, args.sigma_w2, "--sigma-w2")
    data_lines = _data_lines(args)
    dataset, _ = _load_dataset(args)
    rows = calibrate(dataset, family, args.k_target, args.beta_grid,
                     sigma_w2=args.sigma_w2)
    per_k = len(args.beta_grid)
    for start in range(0, len(rows), per_k):
        group = rows[start:start + per_k]
        for row in group:
            if row["error"] is None:
                print(f"K={row['K']!r} beta={row['beta']!r}: rho={row['rho']!r} "
                      f"achieved_K={row['achieved_K']!r} eps_loo={row['eps_loo']!r}")
            else:
                print(f"K={row['K']!r} beta={row['beta']!r}: failed ({row['error']})",
                      file=sys.stderr)
        winner = next((row for row in group if row["selected"]), None)
        if winner is not None:
            print(f"K={winner['K']!r} selected: beta={winner['beta']!r} "
                  f"rho={winner['rho']!r} eps_loo={winner['eps_loo']!r}")
        else:
            print(f"K={group[0]['K']!r}: no successful grid point", file=sys.stderr)
    header = ([f"ecreg {__version__} calibrate"] + data_lines
              + [f"family={family} sigma_w2={args.sigma_w2!r} "
                 f"k_targets={args.k_target} beta_grid={args.beta_grid}"])
    save_calibration_csv(args.out, rows, header_lines=header)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ecreg",
        description="Sparse Bayesian linear regression with fast approximate "
                    "leave-one-out cross-validation.")
    parser.add_argument("--version", action="version",
                        version=f"ecreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic train/test pair")
    p.add_argument("--n", type=int, required=True, help="number of features")
    p.add_argument("--alpha", type=float, required=True,
                   help="samples per feature; M = round(alpha * n)")
    p.add_argument("--rho0", type=float, required=True,
                   help="true non-zero fraction")
    p.add_argument("--sigma-w0-sq", type=float, required=True,
                   help="true slab variance")
    p.add_argument("--sigma-n0-sq", type=float, required=True,
                   help="true noise variance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-samples", type=int, default=None,
                   help="held-out sample count (default: same as train)")
    p.add_argument("--out-train", default="train.csv")
    p.add_argument("--out-test", default="test.csv")
    p.add_argument("--out-truth", default="truth.json",
                   help="ground-truth JSON path (empty string to skip)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit one model and write a fit file")
    _add_data_flags(p)
    _add_prior_flags(p)
    p.add_argument("--beta", type=_positive_float, required=True,
                   help="inverse temperature (inverse noise variance)")
    p.add_argument("--out", default="fit.json")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("loocv",
                       help="fit, then approximate leave-one-out residuals")
    _add_data_flags(p)
    _add_prior_flags(p)
    p.add_argument("--beta", type=_positive_float, required=True)
    p.add_argument("--literal", action="store_true",
                   help="also run literal refit-per-sample CV for comparison")
    p.add_argument("--kfold", type=int, default=None, metavar="K",
                   help="also run k-fold CV with this many folds")
    p.add_argument("--seed", type=int, default=0, help="k-fold shuffle seed")
    p.add_argument("--out", default="loo.csv")
    p.set_defaults(func=_cmd_loocv)

    p = sub.add_parser("sweep", help="grid sweep over hyper-parameters")
    _add_data_flags(p)
    p.add_argument("--family", choices=sorted(_FAMILIES), default="bg")
    p.add_argument("--beta-grid", type=_float_list, required=True,
                   help="comma-separated beta values")
    p.add_argument("--rho-grid", type=_float_list, required=True,
                   help="comma-separated rho values")
    p.add_argument("--sigma-w2-grid", type=_float_list, default=None,
                   help="comma-separated slab variances (bg family)")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "calibrate",
        help="calibrate rho from a sparsity target, then select beta")
    _add_data_flags(p)
    p.add_argument("--family", choices=sorted(_FAMILIES), default="bg")
    p.add_argument("--sigma-w2", type=float, default=None,
                   help="slab variance (bg family)")
    p.add_argument("--k-target", type=_float_list, required=True,
                   help="comma-separated expected non-zero counts")
    p.add_argument("--beta-grid", type=_float_list, required=True)
    p.add_argument("--out", default="calibrate.csv")
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EcregError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
