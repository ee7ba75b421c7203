"""How far the speed probe's time follows the program rather than the host.

    python3 bench/probe_pairs.py [--passes 24] [--seed 3]

In one process, runs passes of small_jobs alternately on the program as is
and on an allocation-heavy variant of it: 3e5 extra live lists, and 2e4
garbage tuples made in every CLI call.  The speed probe samples as it does in
a timed run (speed.py).  Prints the trimmed mean of the probe times in heavy
passes over that in plain passes, the ratio by which the variant alone would
move the scale factor, next to the ratio of the passes' own job times.  Host speed shifts within the run add a few percent
of noise either way.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import run
import speed
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=24)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    pkg = run.import_package()
    run.warm(pkg, "small_jobs")
    plain_main = pkg.cli.main

    def heavy_main(argv):
        garbage = [(i, i) for i in range(20000)]  # noqa: F841 - the allocation is the point
        return plain_main(argv)

    samples = {"plain": [], "heavy": []}
    job_s = {"plain": 0.0, "heavy": 0.0}
    with tempfile.TemporaryDirectory(dir=run.OUT.parent) as tmp:
        jobs = run.prepare(next(workloads.job_passes("small_jobs", args.seed)), Path(tmp))
        with speed.SpeedSampler() as sampler:
            runner = run.Runner(pkg, sampler)
            for k in range(args.passes):
                mode = ("plain", "heavy")[k % 2]
                ballast = [[i] for i in range(300000)] if mode == "heavy" else None
                pkg.cli.main = heavy_main if mode == "heavy" else plain_main
                first, done = len(sampler.values), len(runner.intervals)
                for job in jobs:
                    runner.run(job)
                samples[mode] += sampler.values[first:]
                job_s[mode] += sum(runner.raw_times()[done:])
                pkg.cli.main = plain_main
                del ballast
    if runner.failures:
        raise SystemExit("\n".join(runner.failures))
    plain, heavy = (speed.trimmed_mean(samples[m]) for m in ("plain", "heavy"))
    print(f"probe samples: plain {len(samples['plain'])}, heavy {len(samples['heavy'])}")
    print(f"trimmed mean probe time: plain {plain * 1e6:.2f} us, heavy {heavy * 1e6:.2f} us")
    print(f"heavy/plain: probe time {heavy / plain:.4f}, job time {job_s['heavy'] / job_s['plain']:.4f}")


if __name__ == "__main__":
    main()
