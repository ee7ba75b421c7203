"""Set-up time of theta_loci in a fresh interpreter, for one workload.

    python3 bench/setup_probe.py <workload>

Times `import theta_loci` (and `theta_loci.cli`) from ./src, plus the
one-time lazy set-up the workload triggers before its first job, and prints
one JSON line {"setup_s": scaled seconds, "raw_s": wall seconds}.  Before the
timed import it loads nothing but `speed`, which itself loads only modules
that are already loaded at interpreter start-up, so every module the package
needs is paid for inside the timed interval.  run.py starts this script once
per set-up sample.
"""

import os
import sys
from time import perf_counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import theta_loci
    import theta_loci.cli  # the entry point every job but schur_module_rank goes through
    where = os.path.dirname(os.path.abspath(theta_loci.__file__))
    if where != os.path.join(SRC, "theta_loci"):
        raise SystemExit(f"theta_loci imported from {where}, not from {SRC}")
    return theta_loci


def warm(pkg, workload: str) -> None:
    """The one-time lazy set-up a workload triggers before its first job."""
    if workload == "small_jobs":
        pkg.vinberg.enumerate_supports("A1")  # fills the process-wide class cache


def main(workload: str) -> None:
    sampler = speed.SpeedSampler()
    for _ in range(speed.MIN_SAMPLES + 1):
        sampler.sample()
    with sampler:
        spent = sampler.spent
        t0 = perf_counter()
        warm(import_package(), workload)
        t1 = perf_counter()
        spent = sampler.spent - spent
    for _ in range(speed.MIN_SAMPLES):
        sampler.sample()
    raw = t1 - t0 - spent
    import json
    print(json.dumps({"setup_s": raw * sampler.scale(t0, t1), "raw_s": raw}))


if __name__ == "__main__":
    main(sys.argv[1])
