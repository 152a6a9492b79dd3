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


@pytest.mark.parametrize("workload", ["wide_fit", "literal_loo", "cli_hyper"])
def test_workload_runs_and_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0
    assert last["correct"] is True
