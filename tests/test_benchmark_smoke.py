"""One repetition of each benchmark workload, with its output checks.

``perfbench/run.py`` checks every repetition's outputs against values it pins
(a relative tolerance of 1e-6), so a change that moves a fixed point fails
here before a benchmark run sees it.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


WORKLOADS = ["wide_fit", "literal_loo", "cli_hyper"]


# the traced run wraps ecreg's functions, so a change that breaks the
# tracer's bindings fails here; an untraced run keeps the workload's name
@pytest.mark.parametrize("workload,trace",
                         [(w, "0") for w in WORKLOADS] + [(w, "1") for w in WORKLOADS],
                         ids=WORKLOADS + [w + "-traced" for w in WORKLOADS])
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0
    assert last["correct"] is True
