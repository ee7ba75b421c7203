"""theta-loci benchmark: one client, closed loop, every output checked.

    python3 bench/run.py --workload <w39|c3c3c3|small_jobs|all> --seed N \
        --seconds S --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Each job goes through the entry point a user
calls (`theta_loci.cli.main` in-process with captured output, or
`schur_module_rank`), and starts only after the previous job's output has been
checked against its reference (see workloads.py).

--trace 0 measures the end-to-end metrics: set-up time in fresh interpreters,
then jobs for S seconds (whole passes).  --trace 1 runs each job of a fixed
list once untraced and once with spans around the package's public calls
(spans.py), and reports per-layer totals over the traced runs and the
tracing overhead; the spans are written to bench/out/.  Times are scaled to
a reference host speed (speed.py).  --workload all runs each workload in its
own process.  Every form exits non-zero if any check failed.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
An untraced run prints, on the line before it, the same times unscaled and the
mean scale factor of its jobs: {"unscaled": {...}, "scale_mean": float}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads
from setup_probe import import_package, warm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 5
# Passes in the traced run: fixed, so its counts repeat exactly for a seed.
TRACE_PASSES = {"w39": 2, "c3c3c3": 12, "small_jobs": 2}


def measure_setup(workload: str) -> list[dict]:
    """Set-up probes, each in a fresh interpreter: {"setup_s", "raw_s"}."""
    values = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.splitlines()[-1]))
    return values


def prepare(jobs: list[dict], workdir: Path) -> list[dict]:
    """Write each job's input files and put their paths into its argv."""
    out = []
    for job in jobs:
        paths = {}
        for name, data in job.get("files", {}).items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(data))
            paths["{" + name + "}"] = str(path)
        if "argv" in job:
            job = dict(job, argv=[paths.get(a, a) for a in job["argv"]])
        out.append(job)
    return out


def execute(pkg, job: dict) -> tuple[int, str]:
    """Run one job through its entry point; return (exit code, output)."""
    if job["call"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main(job["argv"])
        return code, buf.getvalue()
    return 0, str(pkg.bott.schur_module_rank(*job["args"]))


class Runner:
    """Runs and checks jobs one after another; keeps timings and failures."""

    def __init__(self, pkg, sampler: speed.SpeedSampler,
                 tracer: spans.Tracer | None = None):
        self.pkg = pkg
        self.sampler = sampler
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        # job id -> (start, end, time spent sampling speed in between)
        self.intervals: dict[int, tuple[float, float, float]] = {}

    def run(self, job: dict) -> None:
        job_id = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = job_id
        what = f"{job['kind']} {job.get('argv', job.get('args'))}"
        self.sampler.sample()
        spent = self.sampler.spent
        t0 = perf_counter()
        try:
            workloads.check(job, *execute(self.pkg, job))
        except workloads.CheckError as exc:
            self.failures.append(f"{what}: {exc}")
            return
        except (Exception, SystemExit):
            self.failures.append(f"{what}: {traceback.format_exc(limit=-1)}")
            return
        self.intervals[job_id] = (t0, perf_counter(), self.sampler.spent - spent)

    def raw_times(self) -> list[float]:
        """Wall seconds of each checked job, sampling time taken out."""
        return [t1 - t0 - spent for t0, t1, spent in self.intervals.values()]

    def scales(self) -> dict[int, float]:
        return {job_id: self.sampler.scale(t0, t1)
                for job_id, (t0, t1, _) in self.intervals.items()}

    def times(self) -> list[float]:
        """Seconds of each checked job at the reference speed (see speed.py)."""
        return [t * scale for t, scale in zip(self.raw_times(), self.scales().values())]


def run_untraced(pkg, workload: str, seed: int, seconds: float, workdir: Path):
    probes = measure_setup(workload)
    warm(pkg, workload)
    passes = workloads.job_passes(workload, seed)
    with speed.SpeedSampler() as sampler:
        runner = Runner(pkg, sampler)
        t_start = perf_counter()
        while perf_counter() - t_start < seconds:
            for job in prepare(next(passes), workdir):
                runner.run(job)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times, raw = runner.times(), runner.raw_times()
    n = len(times)
    if n:
        print(json.dumps({"unscaled": {
            "setup_s": statistics.median(p["raw_s"] for p in probes),
            "job_p50_s": statistics.median(raw), "jobs_per_s": n / sum(raw)},
            "scale_mean": statistics.fmean(runner.scales().values())}))
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s", len(probes)),
        "job_p50_s": (statistics.median(times) if n else float("nan"), "s", n),
        "jobs_per_s": (n / sum(times) if n else 0.0, "1/s", n),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    return runner.attempted, runner.failures, metrics


def run_traced(pkg, workload: str, seed: int, workdir: Path):
    warm(pkg, workload)
    passes = workloads.job_passes(workload, seed)
    jobs = prepare([job for _ in range(TRACE_PASSES[workload]) for job in next(passes)],
                   workdir)
    tracer = spans.Tracer()
    with speed.SpeedSampler() as sampler:
        plain, traced = Runner(pkg, sampler), Runner(pkg, sampler, tracer)
        # Each job runs once plain and once traced, in alternating order, so
        # the overhead estimate carries no first-run or drift bias.
        for i, job in enumerate(jobs):
            for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if not use_trace:
                    plain.run(job)
                    continue
                tracer.install()
                try:
                    traced.run(job)
                finally:
                    tracer.uninstall()
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    metrics = {name: (value, unit, len(jobs)) for name, (value, unit) in
               spans.layer_metrics(tracer.spans(), tracer.counts, traced.scales()).items()}
    plain_s, traced_s = sum(plain.times()), sum(traced.times())
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1 if plain_s else float("nan"),
                                      "ratio", len(jobs))
    return plain.attempted + traced.attempted, plain.failures + traced.failures, metrics


def emit(workload: str, attempted: int, failures: list[str], metrics: dict) -> None:
    """Print the summary lines, then the result object as the last line."""
    for line in failures:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"{workload:<11} {name:<44} {value:>14.6g} {unit:<6} n={n}")
    print(f"{workload:<11} {'failed_frac':<44} {len(failures) / max(attempted, 1):>14.6g}"
          f" {'ratio':<6} n={attempted}")
    print(json.dumps({"correct": not failures and attempted > 0,
                      "attempted": max(attempted, 1), "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))


def run_all(args) -> int:
    """Every workload, each in a fresh process; non-zero exit if any check failed."""
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            ok &= proc.returncode == 0 and json.loads(lines[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            ok = False
    print(json.dumps({"all_correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    pkg = import_package()
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = run_traced(pkg, args.workload, args.seed, workdir)
    else:
        result = run_untraced(pkg, args.workload, args.seed, args.seconds, workdir)
    emit(args.workload, *result)
    return 0 if not result[1] else 1


if __name__ == "__main__":
    sys.exit(main())
