"""Spans around ecreg's public module-level functions, for the traced run.

Nothing under src/ changes: ``Tracer.install`` rebinds, for the length of one
repetition, every ecreg module attribute that refers to a traced function, so
callers that imported a function by name (``core`` imports ``moments``;
``loocv``, ``hyper`` and ``cli`` import ``fit``) reach the wrapper too.
``scipy.linalg``'s Cholesky routines are traced as ``core`` calls them,
through a proxy for the module object ``core`` holds.  The untraced run
installs nothing.
"""

import functools
import pathlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg


def _fit_note(args, result):
    """Samples, iterations, converged, and the gradient norm over fit's scale."""
    dataset, beta, state = args[0], args[2], result.state
    scale = max(1.0, float(np.max(np.abs(beta * dataset.xy))))
    return dataset.n_samples, state.iterations, state.converged, state.grad_norm / scale


# What a span keeps of its call, for the metrics and checks that need more
# than timing.
_NOTES = {
    "core.fit": _fit_note,
    "loocv.literal_loocv": lambda args, r: (args[0].n_samples, len(r.flagged)),
    "loocv.kfold_cv": lambda args, r: (args[0].n_samples, len(r.flagged)),
    "loocv.approx_looe": lambda args, r: (None, len(r.flagged)),
    "hyper.sweep": lambda args, r: sum(1 for p in r.points if not p.converged),
    "data_io.load_csv": lambda args, r: r[0].n_samples * (r[0].n_features + 1),
    "cli.main": lambda args, r: args[0][0],
}

# (module, function) pairs; the span name is "<module>.<function>".
# kfold_cv, select_beta and the save_* writers are off today's paths; they are
# traced so that rerouting `calibrate` (ROADMAP item 4) shows without an edit.
TRACED = [
    ("priors", "moments"), ("priors", "invert_mean"),
    ("core", "fit"), ("core", "spectrum"), ("core", "solve_tilt"),
    ("core", "solve_lambda"),
    ("loocv", "approx_looe"), ("loocv", "literal_loocv"), ("loocv", "kfold_cv"),
    ("hyper", "sweep"), ("hyper", "calibrate_rho"), ("hyper", "select_beta"),
    ("data_io", "load_csv"), ("data_io", "save_dataset_csv"),
    ("data_io", "save_fit_json"), ("data_io", "save_loo_csv"),
    ("data_io", "save_sweep_csv"),
    ("cli", "main"),
]
CHOLESKY = ("cho_factor", "cho_solve")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "error", "note")

    def __init__(self, id, parent, name):
        self.id, self.parent, self.name = id, parent, name
        self.error = self.note = None

    @property
    def duration(self):
        return self.end - self.start


class _LinalgProxy:
    """scipy.linalg as ``core`` sees it, with the Cholesky routines wrapped."""

    def __init__(self, wrapped):
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(scipy.linalg, name)


class Tracer:
    """Records spans with parent ids; spans stay in memory until collected."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        """``fn``, recording one span per call."""
        spans, stack, note = self.spans, self._stack, _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, name)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ecreg" or n.startswith("ecreg."))]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules["ecreg." + module_name], fn_name)
            self._rebind(modules, original, self.wrap(f"{module_name}.{fn_name}", original))
        cholesky = {name: self.wrap(f"core.{name}", getattr(scipy.linalg, name))
                    for name in CHOLESKY}
        self._rebind(modules, scipy.linalg, _LinalgProxy(cholesky))
        for name, wrapper in cholesky.items():
            self._rebind(modules, getattr(scipy.linalg, name), wrapper)

    def _rebind(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def collect(self):
        """Hand over the recorded spans and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def per_layer(spans, max_inner):
    """Layer metrics of one traced repetition, keyed by metric name.

    ``max_inner`` is the tilt solve's secant budget: a solve that called
    ``invert_mean`` more often than that ran the bisection fallback.
    """
    by_id = {s.id: s for s in spans}
    kids = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            kids[s.parent].append(s)

    def total(name, where=lambda s: True):
        return sum(s.duration for s in named[name] if where(s))

    def self_time(name):
        return sum(s.duration - sum(k.duration for k in kids[s.id]) for s in named[name])

    def count_kids(s, name):
        return sum(1 for k in kids[s.id] if k.name == name)

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else ""

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    inverts = named["priors.invert_mean"]
    m["priors.moments.calls"] = len(named["priors.moments"])
    m["priors.moments.s"] = total("priors.moments")
    m["priors.invert_mean.calls"] = len(inverts)
    m["priors.invert_mean.s"] = total("priors.invert_mean")
    m["priors.invert_mean.self_s"] = self_time("priors.invert_mean")
    m["priors.moments_per_invert"] = ratio(
        sum(count_kids(s, "priors.moments") for s in inverts), len(inverts))

    fits = named["core.fit"]
    iterations = sum(s.note[1] for s in fits if s.note)
    m["core.fit.calls"] = len(fits)
    m["core.fit.s"] = total("core.fit")
    m["core.fit.self_s"] = self_time("core.fit")
    m["core.fit.iterations"] = iterations
    m["core.spectrum.s"] = total("core.spectrum")
    tilts = named["core.solve_tilt"]
    m["core.solve_tilt.calls"] = len(tilts)
    m["core.solve_tilt.s"] = total("core.solve_tilt")
    m["core.solve_tilt.self_s"] = self_time("core.solve_tilt")
    m["core.solve_tilt.fallbacks"] = sum(
        1 for s in tilts if count_kids(s, "priors.invert_mean") > max_inner)
    m["core.solve_tilt.infeasible"] = sum(1 for s in tilts if s.error == "InfeasibleTilt")
    m["core.solve_lambda.calls"] = len(named["core.solve_lambda"])
    m["core.solve_lambda.s"] = total("core.solve_lambda")
    # a fit solves the tilt once at its start and once per line-search trial
    trials = sum(max(count_kids(s, "core.solve_tilt") - 1, 0) for s in fits)
    m["core.line_search.trials"] = trials
    m["core.line_search.accept_ratio"] = ratio(iterations, trials)
    factors = named["core.cho_factor"]
    failed = sum(1 for s in factors if s.error is not None)
    m["core.cholesky.calls"] = len(factors)
    m["core.cholesky.failed"] = failed
    m["core.cholesky.s"] = total("core.cho_factor")
    m["core.cholesky.useful_ratio"] = ratio(len(factors) - failed, len(factors))
    m["core.cho_solve.s"] = total("core.cho_solve")

    def is_fold(s):
        # a fit under a cross-validation harness on fewer samples than it got
        parent = by_id.get(s.parent)
        return (parent is not None and parent.note is not None and s.note is not None
                and parent.name in ("loocv.literal_loocv", "loocv.kfold_cv")
                and s.note[0] < parent.note[0])

    folds = [s for s in fits if is_fold(s)]
    m["loocv.approx_looe.s"] = total("loocv.approx_looe")
    m["loocv.literal_loocv.s"] = total("loocv.literal_loocv")
    m["loocv.fold_fits"] = len(folds)
    m["loocv.fold_fit.s"] = sum(s.duration for s in folds)
    m["loocv.fold_iterations_mean"] = ratio(sum(s.note[1] for s in folds), len(folds))
    m["loocv.flagged"] = sum(
        s.note[1] for name in ("loocv.approx_looe", "loocv.literal_loocv", "loocv.kfold_cv")
        for s in named[name] if s.note)

    def under_hyper(s):
        return parent_name(s).startswith("hyper.")

    m["hyper.sweep.s"] = total("hyper.sweep")
    m["hyper.calibrate_rho.s"] = total("hyper.calibrate_rho")
    m["hyper.calibrate_rho.probes"] = sum(
        count_kids(s, "core.fit") for s in named["hyper.calibrate_rho"])
    m["hyper.fit.calls"] = sum(1 for s in fits if under_hyper(s))
    m["hyper.fit.s"] = total("core.fit", under_hyper)
    m["hyper.approx_looe.s"] = total("loocv.approx_looe", under_hyper)
    m["hyper.failed_points"] = (
        sum(s.note for s in named["hyper.sweep"] if s.note is not None)
        + sum(1 for s in named["hyper.calibrate_rho"] if s.error is not None))

    loads = [s for s in named["data_io.load_csv"] if s.note is not None]
    m["data_io.load_csv.s"] = total("data_io.load_csv")
    m["data_io.load_csv.cells_per_s"] = ratio(
        sum(s.note for s in loads), sum(s.duration for s in loads))
    m["data_io.save.s"] = sum(total(name) for name in list(named) if name.startswith("data_io.save"))

    m["cli.main.s"] = total("cli.main")
    m["cli.self_s"] = self_time("cli.main")
    for command in ("calibrate", "sweep"):
        m[f"cli.{command}.s"] = total("cli.main", lambda s: s.note == command)
    return m


def src_lines(root):
    """Line count of the package sources (ROADMAP aim 2)."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(pathlib.Path(root).rglob("*.py")))
