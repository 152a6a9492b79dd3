"""Repetition loop, metric medians and the result line of one benchmark run."""

import json
import os
import platform
import resource
import shutil
import tempfile
import traceback
from statistics import median
from time import perf_counter

import numpy as np
import scipy

import ecreg
import gauge
import tracing
import workloads

WORK_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ecreg.__file__)))
SETUP_MIN_S = 0.5  # time over which one repetition's set-up is repeated


def machine_facts(args, blas_pin):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_pin,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_once(workload, inputs):
    """One timed repetition; an exception is a failed operation, not a crash."""
    t0 = gauge.clock()
    try:
        return workload.run(inputs)
    except Exception:
        out = workloads.Outcome(stages={"task_s": gauge.clock() - t0})
        out.op(False, traceback.format_exc())
        return out


def repeat(workload, seed, seconds, workdir, tracer=None):
    """Set up and run repetitions for ``seconds``.

    The first repetition always runs; another starts only when a repetition
    of median length still fits, so a run's length stays near ``seconds``.
    Returns one record per repetition: the set-up time, the untraced outcome
    and the machine's speed during them (without a tracer), or the untraced
    and traced outcomes of the same inputs and the spans (with a tracer).
    """
    records, lengths = [], []
    start = perf_counter()
    while not records or perf_counter() - start + median(lengths) <= seconds:
        rep = len(records)
        t0 = perf_counter()
        if tracer is None:
            with gauge.Gauge() as g:
                inputs, setup_s = set_up(workload, seed, rep, workdir)
                record = {"setup_s": setup_s, "plain": run_once(workload, inputs)}
            record.update(ref_s=median(g.samples), speed=g.speed())
        else:
            inputs, setup_s = set_up(workload, seed, rep, workdir)
            record = {"setup_s": setup_s, "plain": run_once(workload, inputs)}
            tracer.install()
            try:
                record["traced"] = run_once(workload, inputs)
            finally:
                tracer.uninstall()
            record["spans"] = tracer.collect()
            if workload.stationary_fits:
                check_every_fit(record["traced"], record["spans"])
        records.append(record)
        lengths.append(perf_counter() - t0)
        for out in outcomes([record]):
            for problem in out.problems:
                print(f"rep {rep}: CHECK FAILED: {problem}")
            for note in out.notes:
                print(f"rep {rep}: {note}")
        stages = " ".join(f"{k}={v:.4f}" for k, v in record["plain"].stages.items())
        ref = f"ref_s={record['ref_s']:.5f} " if "ref_s" in record else ""
        print(f"rep {rep}: {ref}setup_s={record['setup_s']:.4f} {stages}", flush=True)
    return records


def set_up(workload, seed, rep, workdir):
    """A repetition's inputs and the median time of making them.

    The set-up runs until SETUP_MIN_S have passed, at least once, so that a
    set-up of a few milliseconds is timed over enough calls to be steady.
    Every call makes the same inputs.
    """
    times = []
    while sum(times) < SETUP_MIN_S:
        t0 = gauge.clock()
        inputs = workload.setup(seed, rep, workdir)
        times.append(gauge.clock() - t0)
    return inputs, median(times)


def check_every_fit(out, spans):
    """Every fit the workload made, folds included, converged to grad_tol."""
    grad_tol = ecreg.FitSettings().grad_tol
    for s in spans:
        if s.name == "core.fit" and not (s.note and s.note[2] and s.note[3] <= grad_tol):
            out.expect(False, f"traced fit {s.id} not stationary: {s.error or s.note}")


def outcomes(records):
    return [r[key] for r in records for key in ("plain", "traced") if key in r]


def end_to_end(records):
    """Gated metrics, and the raw times and stage medians for information.

    Gated times are corrected for the machine's speed: each repetition's times
    are scaled by the gauge's factor for that repetition.
    """
    outs = [r["plain"] for r in records]
    speed = [r["speed"] for r in records]
    metrics = {
        "setup_s": (median(r["setup_s"] * k for r, k in zip(records, speed)), "s"),
        "task_s": (median(o.stages["task_s"] * k for o, k in zip(outs, speed)), "s"),
        # ru_maxrss is in KiB on Linux; one process runs one workload
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"ref_s": (median(r["ref_s"] for r in records), "s"),
            "setup_raw_s": (median(r["setup_s"] for r in records), "s"),
            "task_raw_s": (median(o.stages["task_s"] for o in outs), "s")}
    info.update((name, (median(o.stages[name] for o in outs if name in o.stages), "s"))
                for name in outs[0].stages if name != "task_s")
    info["failed_frac"] = (sum(o.unfit for o in outs) / sum(o.attempted for o in outs), "1")
    if "literal_loo_s" in info:
        info["loo_gap_rel"] = (median(o.gap for o in outs), "1")
    return metrics, info


def per_layer(records):
    max_inner = ecreg.FitSettings().max_inner
    per_rep = []
    for r in records:
        m = tracing.per_layer(r["spans"], max_inner)
        m["loocv.loo_gap_rel"] = r["traced"].gap
        m["trace.overhead_frac"] = (r["traced"].stages["task_s"]
                                    / r["plain"].stages["task_s"] - 1.0)
        per_rep.append(m)
    metrics = {name: median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["src.lines"] = tracing.src_lines(SRC)
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac", "_rel")):
        return "1"
    if name == "src.lines":
        return "lines"
    return "count"


def measure(args, blas_pin):
    print("machine " + json.dumps(machine_facts(args, blas_pin)), flush=True)
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        records = repeat(workload, args.seed, args.seconds, workdir,
                         tracing.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # not empty: another run is using it

    if args.trace:
        metrics = per_layer(records)
    else:
        metrics, info = end_to_end(records)
        for name, (value, unit) in info.items():
            print(f"info {name} {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    outs = outcomes(records)
    correct = not any(o.problems for o in outs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outs),
        "failed": sum(o.failed for o in outs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1
