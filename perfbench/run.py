"""ecreg benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload wide_fit --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from the checkout's
``src/``.  The run repeats the workload until ``--seconds`` have passed,
checks every repetition's outputs, prints machine facts and one line per
repetition, and ends with one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, measured with nothing installed; with ``--trace 1`` each
repetition runs once untraced and once traced, and the metrics are the
per-layer ones.  The exit code is 0 only when every check passed.  README.md
explains the workloads and the metrics.
"""

import argparse
import os
import sys

# One BLAS thread: with two the wide fit was slower and noisier.  Set before
# numpy loads its BLAS.
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKLOADS = ("wide_fit", "literal_loo", "cli_hyper")


def parse_args(argv):
    p = argparse.ArgumentParser(description="ecreg benchmark: one seeded workload per run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="repeat the workload until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def use_checkout_sources():
    """Import ecreg from this checkout's src/, never from anywhere else."""
    if not os.path.isdir(os.path.join(SRC, "ecreg")):
        raise SystemExit(f"no ecreg sources under {SRC}")
    sys.path.insert(0, SRC)
    import ecreg
    if not os.path.abspath(ecreg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ecreg imported from {ecreg.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_PIN)
    use_checkout_sources()
    import harness
    return harness.measure(args, BLAS_PIN)


if __name__ == "__main__":
    sys.exit(main())
