"""Tests of the benchmark itself: span counts, bindings and the result line.

    python3 -m pytest perfbench/test_perfbench.py

Each traced workload runs once, so the file takes about half a minute.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ecreg  # noqa: E402
import gauge  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_run(name, tmp_path):
    """Spans and outcome of one traced repetition of a workload."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0, 0, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = workload.run(inputs)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    if workload.stationary_fits:
        harness.check_every_fit(out, spans)
    assert out.problems == []
    return spans, tracing.per_layer(spans, ecreg.FitSettings().max_inner), inputs


def check_common(spans, m):
    factors = [s for s in spans if s.name == "core.cho_factor"]
    successes = sum(1 for s in factors if s.error is None)
    solves = sum(1 for s in spans if s.name == "core.cho_solve")
    # core follows every successful factorization with exactly one solve
    assert successes == solves
    assert m["core.cholesky.calls"] == successes + m["core.cholesky.failed"]
    for name, value in m.items():
        if name.endswith("self_s"):
            assert value >= 0.0, name
    for s in spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


def test_wide_fit_makes_one_fit(tmp_path):
    spans, m, _ = traced_run("wide_fit", tmp_path)
    check_common(spans, m)
    assert m["core.fit.calls"] == 1
    assert m["data_io.load_csv.cells_per_s"] > 0
    assert m["core.cholesky.failed"] > 0  # the Levenberg retries this layer wastes


def test_literal_loo_fits_each_fold(tmp_path):
    spans, m, dataset = traced_run("literal_loo", tmp_path)
    check_common(spans, m)
    assert m["loocv.fold_fits"] == dataset.n_samples
    # the user's fit, literal_loocv's own full fit, and one per fold
    assert m["core.fit.calls"] == dataset.n_samples + 2
    assert m["priors.moments_per_invert"] > 1


def test_cli_hyper_counts_failures_and_fallbacks(tmp_path):
    spans, m, _ = traced_run("cli_hyper", tmp_path)
    check_common(spans, m)
    assert m["hyper.failed_points"] == 3
    assert m["core.solve_tilt.infeasible"] >= 3
    assert m["core.solve_tilt.fallbacks"] >= 1
    assert m["hyper.calibrate_rho.probes"] > 0
    assert m["cli.calibrate.s"] + m["cli.sweep.s"] == pytest.approx(m["cli.main.s"])


def test_uninstall_restores_every_binding():
    before = {(mod, name): getattr(mod, name) for mod in (ecreg, ecreg.core, ecreg.loocv,
                                                          ecreg.hyper, ecreg.cli)
              for name in dir(mod) if callable(getattr(mod, name))}
    linalg = ecreg.core.sla
    tracer = tracing.Tracer()
    tracer.install()
    assert ecreg.core.fit is not before[(ecreg.core, "fit")]
    assert ecreg.loocv.fit is ecreg.hyper.fit is ecreg.cli.fit is ecreg.fit is ecreg.core.fit
    assert ecreg.core.moments is ecreg.priors.moments
    assert ecreg.core.sla is not linalg
    tracer.uninstall()
    assert ecreg.core.sla is linalg
    for (mod, name), value in before.items():
        assert getattr(mod, name) is value, name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = workloads.Outcome(stages={"task_s": 1.0}, attempted=1)
    record = {"setup_s": 1.0, "ref_s": 1.0, "speed": 1.0, "plain": out, "traced": out, "spans": []}
    e2e, _ = harness.end_to_end([record])
    layers = harness.per_layer([record])
    assert {(n, u) for n, (_, u) in e2e.items()} == {
        (x["name"], x["unit"]) for x in spec["end_to_end"]}
    assert {(n, u) for n, (_, u) in layers.items()} == {
        (x["name"], x["unit"]) for x in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_failures_count_but_fail_no_check():
    cli = workloads.WORKLOADS["cli_hyper"]
    out = workloads.Outcome()
    rows = [{"K": "4.0", "beta": "2.0", "rho": "", "achieved_K": "", "eps": "",
             "eps_loo": "", "selected": "false"},
            {"K": "4.0", "beta": "4.0", "rho": repr(cli.calibrated[(4.0, 4.0)][0]),
             "achieved_K": "4.0", "eps": "0.2", "eps_loo": repr(cli.calibrated[(4.0, 4.0)][1]),
             "selected": "true"}]
    cli._check_calibrate(out, rows)
    sweep_rows = [{"beta": repr(b), "rho": repr(r), "converged": "false", "eps": "",
                   "eps_loo": ""} for b, r in cli.swept]
    cli._check_sweep(out, sweep_rows)
    assert out.problems == []
    assert out.attempted == 2 + len(cli.swept)
    # the failed calibration and the three feasible grid points
    assert out.failed == 1 + sum(v is not None for v in cli.swept.values())
    assert out.unfit == 1 + len(cli.swept)
    assert len(out.notes) == out.failed


def test_gauge_clock_leaves_out_its_samples():
    handler = signal.getsignal(signal.SIGALRM)
    with gauge.Gauge() as g:
        t0, c0 = perf_counter(), gauge.clock()
        g.sample()
        spent = (perf_counter() - t0) - (gauge.clock() - c0)
    assert len(g.samples) >= 2
    assert spent >= sum(g.samples[1:])
    assert g.speed() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
