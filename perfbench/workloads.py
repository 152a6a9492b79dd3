"""The three benchmark workloads: set-up, the timed task, and output checks.

Every workload starts from a canonical instance (an acceptance test's
instance, or for the sweep criterion 7's generator at N=100) and derives the
input of each repetition from the run seed by a seeded symmetry of the model:
a permutation of the samples, a permutation of the features and a sign flip
of each feature.  The fixed point is equivariant under all three, so every
seed and repetition gives the program a different input that poses the same
problem.  The amount of work per repetition is then a property of the
program and not of a random draw, and outputs can be compared with this
commit's values (by relative tolerance: the changed summation order moves
the last bits).  Why random draws are not used is set out in README.md.
"""

import csv
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

# Library calls go through the package attributes, as a user's
# `from ecreg import fit` would, so the traced run's wrappers see them.
import ecreg
import ecreg.cli
from gauge import clock

# Relative tolerance against this commit's outputs.  The fixed point is pinned
# by grad_tol = 1e-8, so a legitimate change of algorithm moves eps_loo far
# less than this; a different fixed point moves it far more.
REL_TOL = 1e-6
# Criterion 1's bound on the approximate-vs-literal LOO gap.
GAP_BOUND = 0.05
# The interpolating sweep point reports eps and eps_loo at rounding level
# (about 1e-29 and 1e-23); below this floor values are compared absolutely.
ABS_FLOOR = 1e-12


@dataclass
class Outcome:
    """What one repetition did: stage times, checked results and op counts."""

    stages: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # failed operations the program reported
    unfit: int = 0          # operations that produced no result, expected or not
    gap: float = 0.0        # |approx - literal| / literal eps_loo, literal_loo only

    def op(self, ok, what, check=True):
        """Count one operation.

        A failed one is also a failed check, unless ``check`` is false: then
        the program reported the failure itself in its output, which is
        correct, and the failure is counted and shown but fails no check.
        """
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unfit += 1
            (self.problems if check else self.notes).append(f"operation failed: {what}")

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)


def symmetric_copy(dataset, seed, rep):
    """The dataset under a seeded sample/feature permutation and sign flip."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
    features = rng.permutation(dataset.n_features)
    samples = rng.permutation(dataset.n_samples)
    signs = rng.choice([-1.0, 1.0], size=dataset.n_features)
    X = (dataset.X * signs[:, None])[features][:, samples]
    return ecreg.Dataset(X, dataset.y[samples])


def canonical(n, alpha, rho0, sigma_w0_sq, sigma_n0_sq, seed):
    train, _, _ = ecreg.gen_synthetic(ecreg.SynthConfig(
        N=n, alpha=alpha, rho0=rho0, sigma_w0_sq=sigma_w0_sq,
        sigma_n0_sq=sigma_n0_sq, seed=seed))
    return train


def _close(value, reference):
    return math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)


def _training_eps(dataset, m):
    r = dataset.y - dataset.X.T @ m
    return float(r @ r) / (2.0 * dataset.n_samples)


def _check_fit(out, result, dataset, beta, what):
    """Converged, and the gradient inf-norm is within the fit's own scale."""
    state = result.state
    out.op(state.converged, f"{what} did not converge")
    g = -beta * (dataset.X @ (dataset.y - dataset.X.T @ state.m)) - state.E * state.m + state.h
    scale = ecreg.FitSettings().grad_tol * max(1.0, float(np.max(np.abs(beta * dataset.xy))))
    grad = float(np.max(np.abs(g)))
    out.expect(grad <= scale, f"{what}: gradient {grad:.3e} above {scale:.3e}")


def _check_loo(out, report, dataset, m, reference, what):
    out.op(not report.flagged, f"{what} flagged samples {report.flagged[:5]}")
    out.expect(_close(report.eps_loo, reference),
               f"{what}: eps_loo {report.eps_loo!r}, this commit {reference!r}")
    eps = _training_eps(dataset, m)
    out.expect(report.eps_loo >= eps, f"{what}: eps_loo {report.eps_loo!r} < eps {eps!r}")


# ---------------------------------------------------------------------------
# wide_fit: the paper's main path on a wide design (alpha < 1), from a CSV
# ---------------------------------------------------------------------------


class WideFit:
    name = "wide_fit"
    stationary_fits = True  # the traced run checks every fit's gradient
    instance = dict(n=1000, alpha=0.5, rho0=0.1, sigma_w0_sq=10.0, sigma_n0_sq=0.1,
                    seed=9)  # criterion 9's design
    prior = ecreg.bernoulli_gauss(0.1, 10.0)
    beta = 10.0
    eps_loo = 0.0819009399537585

    def setup(self, seed, rep, workdir):
        path = os.path.join(workdir, "wide.csv")
        ecreg.save_dataset_csv(path, symmetric_copy(canonical(**self.instance), seed, rep))
        return path

    def run(self, path):
        out = Outcome()
        t0 = clock()
        dataset, _ = ecreg.load_csv(path, "y")
        t1 = clock()
        result = ecreg.fit(dataset, self.prior, self.beta)
        t2 = clock()
        report = ecreg.approx_looe(result, dataset, self.beta)
        t3 = clock()
        out.stages = {"task_s": t3 - t0, "load_s": t1 - t0, "fit_s": t2 - t1,
                      "loo_s": t3 - t1}
        n = self.instance["n"]
        out.op(dataset.X.shape == (n, round(self.instance["alpha"] * n)),
               f"load_csv shape {dataset.X.shape}")
        _check_fit(out, result, dataset, self.beta, "fit")
        _check_loo(out, report, dataset, result.state.m, self.eps_loo, "approx_looe")
        return out


# ---------------------------------------------------------------------------
# literal_loo: 200 warm-started refits against the one-fit estimate (alpha > 1)
# ---------------------------------------------------------------------------


class LiteralLoo:
    name = "literal_loo"
    stationary_fits = True
    instance = dict(n=80, alpha=2.5, rho0=0.2, sigma_w0_sq=4.0, sigma_n0_sq=0.25,
                    seed=4)  # criterion 8's instance
    prior = ecreg.bernoulli_gauss(0.2, 4.0)
    beta = 8.0
    eps_loo = 0.17245497516863495
    eps_loo_literal = 0.17132980842455936

    def setup(self, seed, rep, workdir):
        return symmetric_copy(canonical(**self.instance), seed, rep)

    def run(self, dataset):
        out = Outcome()
        t0 = clock()
        result = ecreg.fit(dataset, self.prior, self.beta)
        t1 = clock()
        report = ecreg.approx_looe(result, dataset, self.beta)
        t2 = clock()
        literal = ecreg.literal_loocv(dataset, self.prior, self.beta)
        t3 = clock()
        out.stages = {"task_s": t3 - t0, "fit_s": t1 - t0, "loo_s": t2 - t0,
                      "literal_loo_s": t3 - t2}
        _check_fit(out, result, dataset, self.beta, "fit")
        _check_loo(out, report, dataset, result.state.m, self.eps_loo, "approx_looe")
        _check_loo(out, literal, dataset, result.state.m, self.eps_loo_literal,
                   "literal_loocv")
        # one operation per fold; literal_loocv flags the folds that failed
        for mu in range(dataset.n_samples):
            out.op(mu not in literal.flagged, f"literal fold {mu}")
        out.gap = abs(report.eps_loo - literal.eps_loo) / literal.eps_loo
        out.expect(out.gap <= GAP_BOUND, f"loo_gap_rel {out.gap:.4f} above {GAP_BOUND}")
        return out


# ---------------------------------------------------------------------------
# cli_hyper: `ecreg calibrate` and `ecreg sweep --family bu`, in-process
# ---------------------------------------------------------------------------


def _read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _cell(text):
    return float(text) if text else None  # the CLI leaves failed cells empty


class CliHyper:
    name = "cli_hyper"
    stationary_fits = False  # infeasible grid points raise inside fit
    calibrate_instance = dict(n=276, alpha=0.5, rho0=0.05, sigma_w0_sq=1.0,
                              sigma_n0_sq=0.5, seed=0)  # criterion 7's design
    # rank-deficient (M = 50 < N = 100) design for the flat slab
    sweep_instance = dict(calibrate_instance, n=100)
    calibrate_args = ["--family", "bg", "--sigma-w2", "1", "--k-target", "4",
                      "--beta-grid", "2,4"]
    sweep_args = ["--family", "bu", "--beta-grid", "1,4", "--rho-grid", "0.05,0.1,0.2"]
    # (K, beta) -> (rho, eps_loo)
    calibrated = {(4.0, 2.0): (0.013628260259863944, 0.2809951236357253),
                  (4.0, 4.0): (0.0049864019274640506, 0.29690499101093243)}
    # (beta, rho) -> eps_loo, or None where the tilt is infeasible
    swept = {(1.0, 0.05): 0.28882184381572573, (1.0, 0.1): None, (1.0, 0.2): None,
             (4.0, 0.05): 0.4067274825419894, (4.0, 0.1): 4.6516318196376616e-23,
             (4.0, 0.2): None}

    def setup(self, seed, rep, workdir):
        paths = {}
        for name, spec in (("calibrate", self.calibrate_instance),
                           ("sweep", self.sweep_instance)):
            paths[name] = os.path.join(workdir, f"{name}_in.csv")
            ecreg.save_dataset_csv(paths[name], symmetric_copy(canonical(**spec), seed, rep))
            paths[name + "_out"] = os.path.join(workdir, f"{name}_out.csv")
        return paths

    def _main(self, command, data, args, out_path):
        # the CLI's per-point lines are not this program's output
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            code = ecreg.cli.main([command, "--data", data, *args, "--out", out_path])
        return code, err.getvalue()

    def run(self, paths):
        out = Outcome()
        t0 = clock()
        code_cal, err_cal = self._main("calibrate", paths["calibrate"],
                                       self.calibrate_args, paths["calibrate_out"])
        t1 = clock()
        code_sweep, err_sweep = self._main("sweep", paths["sweep"], self.sweep_args,
                                           paths["sweep_out"])
        t2 = clock()
        out.stages = {"task_s": t2 - t0, "calibrate_s": t1 - t0, "sweep_s": t2 - t1}
        out.op(code_cal == 0, f"ecreg calibrate exit {code_cal}: {err_cal.strip()}")
        out.op(code_sweep == 0, f"ecreg sweep exit {code_sweep}: {err_sweep.strip()}")
        if code_cal == 0:
            self._check_calibrate(out, _read_table(paths["calibrate_out"]))
        if code_sweep == 0:
            self._check_sweep(out, _read_table(paths["sweep_out"]))
        return out

    def _check_calibrate(self, out, rows):
        out.expect(len(rows) == len(self.calibrated),
                   f"calibrate wrote {len(rows)} rows, expected {len(self.calibrated)}")
        for row in rows:
            key = (float(row["K"]), float(row["beta"]))
            eps_loo = _cell(row["eps_loo"])
            # a calibration whose last probe does not converge is reported as
            # an empty row; README.md, "Known defects cli_hyper shows"
            out.op(eps_loo is not None, f"calibration at (K, beta) = {key}", check=False)
            if eps_loo is None:
                continue
            rho, ref = self.calibrated.get(key, (math.nan, math.nan))
            achieved = float(row["achieved_K"])
            out.expect(abs(achieved - key[0]) <= 1e-6 * max(1.0, key[0]),
                       f"calibrate {key}: achieved_K {achieved!r}")
            out.expect(_close(float(row["rho"]), rho) and _close(eps_loo, ref),
                       f"calibrate {key}: rho {row['rho']} eps_loo {eps_loo!r}, "
                       f"this commit {rho!r} {ref!r}")
            out.expect(eps_loo >= float(row["eps"]), f"calibrate {key}: eps_loo < eps")
        selected = [r for r in rows if r["selected"] == "true"]
        out.expect(len(selected) == 1, f"calibrate selected {len(selected)} rows for one K")

    def _check_sweep(self, out, rows):
        out.expect(len(rows) == len(self.swept),
                   f"sweep wrote {len(rows)} rows, expected {len(self.swept)}")
        for row in rows:
            key = (float(row["beta"]), float(row["rho"]))
            eps_loo = _cell(row["eps_loo"])
            converged = row["converged"] == "true" and eps_loo is not None
            if key not in self.swept:
                out.expect(False, f"sweep wrote a point {key} off the grid")
            elif self.swept[key] is None:
                # infeasible at this commit; reporting it so is the right answer
                out.attempted += 1
                out.unfit += not converged
                out.expect(not converged, f"sweep {key}: converged where infeasible")
            else:
                out.op(converged, f"sweep point {key} did not converge", check=False)
            if converged and self.swept.get(key) is not None:
                out.expect(_close(eps_loo, self.swept[key]),
                           f"sweep {key}: eps_loo {eps_loo!r}, this commit {self.swept[key]!r}")
                out.expect(eps_loo >= float(row["eps"]), f"sweep {key}: eps_loo < eps")


WORKLOADS = {w.name: w for w in (WideFit(), LiteralLoo(), CliHyper())}
