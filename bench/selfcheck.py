"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py                # run the checks
    python3 bench/selfcheck.py --write-jobs   # rewrite bench/jobs.json

Shows that the output checker rejects deliberately wrong results (and
accepts the true ones from real runs), that the self times of a span tree
add up to the root span's duration, that the speed probe (speed.py) never
starts a garbage collection, and that the input generator still produces the
job lists recorded in bench/jobs.json.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
from pathlib import Path

import run
import spans
import speed
import workloads

JOBS_FILE = Path(__file__).resolve().parent / "jobs.json"
RECORD_SEED = 1
RECORD_PASSES = {"w39": 8, "c3c3c3": 30, "small_jobs": 2}


def recorded_jobs(seed: int) -> dict:
    out = {"seed": seed}
    for workload in workloads.WORKLOADS:
        passes = workloads.job_passes(workload, seed)
        out[workload] = [job for _ in range(RECORD_PASSES[workload]) for job in next(passes)]
    return out


class SelfCheckError(Exception):
    pass


def ensure(cond: bool, what: str) -> None:
    if not cond:
        raise SelfCheckError(what)


def _fails(job: dict, code: int, out: str) -> bool:
    try:
        workloads.check(job, code, out)
    except workloads.CheckError:
        return True
    return False


def check_checker() -> None:
    pkg = run.import_package()
    jobs = {}
    for job in next(workloads.job_passes("small_jobs", RECORD_SEED)):
        jobs.setdefault(job["kind"], job)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        jobs = {kind: run.prepare([job], Path(tmp))[0] for kind, job in jobs.items()}
        outputs = {kind: run.execute(pkg, job) for kind, job in jobs.items()}
    for kind, (code, out) in outputs.items():
        ensure(not _fails(jobs[kind], code, out), f"true {kind} output rejected")

    def wrong(kind: str, old: str, new: str) -> None:
        code, out = outputs[kind]
        ensure(old in out, f"{old!r} not in {kind} output")
        ensure(_fails(jobs[kind], code, out.replace(old, new, 1)),
               f"{kind} output with {old!r} -> {new!r} accepted")

    wrong("gb", "3*t^2", "2*t^2")        # one numerator coefficient changed
    wrong("c5w25", "5*t^3", "4*t^3")
    dim = outputs["vinberg_dim"][1].strip()
    wrong("vinberg_dim", dim, str(int(dim) + 1))   # orbit dimension off by one
    rank = outputs["schur"][1].strip()
    wrong("schur", rank, str(int(rank) + 1))
    wrong("bott_resolution", '"h": [\n    1,\n    2', '"h": [\n    1,\n    3')
    wrong("vinberg_table", " 35", " 36")
    wrong("example", '"5*t"', '"4*t"')
    code, out = outputs["verlinde"]
    ensure(_fails(jobs["verlinde"], 2, out), "non-zero exit accepted")
    report = {"records": [
        {"name": "I", "generator_profile": {"3": 1}}, {"name": "J", "codim": 6, "degree": 18},
        {"name": "K", "note": "unit ideal"}]}
    ensure(not _fails({"kind": "w39", "expect": {}}, 0, json.dumps(report)),
           "true w39 report rejected")
    report["records"][1]["degree"] = 17
    ensure(_fails({"kind": "w39", "expect": {}}, 0, json.dumps(report)), "J degree 17 accepted")


def check_self_times() -> None:
    # root [0, 10] -> a [1, 3], b [4, 8] -> c [5, 6]; d [11, 12] is another root
    tree = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 3.0, 0, 0), ("b", 4.0, 8.0, 0, 0),
            ("c", 5.0, 6.0, 2, 0), ("d", 11.0, 12.0, -1, 1)]
    selfs = spans.self_times(tree)
    ensure(selfs == [4.0, 2.0, 3.0, 1.0, 1.0], f"self times {selfs}")
    ensure(sum(selfs[:4]) == tree[0][2] - tree[0][1], "self times do not add up to the root")
    # a span nested in one of its own name counts once in <name>.s
    nested = [("groebner.saturate", 0.0, 4.0, -1, 0), ("groebner.saturate", 1.0, 2.0, 0, 0),
              ("groebner.buchberger_reduced", 2.5, 3.5, 0, 0)]
    got = spans.layer_metrics(nested, {})
    ensure(got["groebner.saturate.s"] == (4.0, "s"), f"{got['groebner.saturate.s']}")
    ensure(got["groebner.saturate.calls"] == (2, "count"), "nested calls miscounted")
    ensure(got["groebner.buchberger_reduced.self_s"] == (1.0, "s"), "leaf self time wrong")


def check_speed_probe() -> None:
    # With every threshold at 1, any allocation of a tracked object starts a
    # collection.  The probe loop must start none, or its time would depend on
    # the program's allocations and live heap.
    starts = [0]

    def count(phase, info):
        if phase == "start":
            starts[0] += 1

    threshold = gc.get_threshold()
    gc.callbacks.append(count)
    gc.set_threshold(1, 1, 1)
    try:
        before = starts[0]
        speed._probe_loop()
        probe = starts[0] - before
        before = starts[0]
        [[i] for i in range(3)]  # control: tracked allocations do start collections
        control = starts[0] - before
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    ensure(control > 0, "the collection counter saw no collection in the control")
    ensure(probe == 0, f"the speed probe started {probe} collections")


def check_recorded_jobs() -> None:
    recorded = json.loads(JOBS_FILE.read_text())
    fresh = json.loads(json.dumps(recorded_jobs(recorded["jobs"]["seed"])))
    ensure(recorded["jobs"] == fresh, "the generator no longer reproduces bench/jobs.json")


def write_jobs() -> int:
    """Run every job of the recorded lists; write jobs.json only if all pass."""
    jobs = recorded_jobs(RECORD_SEED)
    runner = run.Runner(run.import_package(), speed.SpeedSampler())
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            for job in run.prepare(jobs[workload], Path(tmp)):
                runner.run(job)
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    JOBS_FILE.write_text(json.dumps({
        "note": f"Job lists generated for workload seed {RECORD_SEED}.  All "
                f"{runner.attempted} jobs passed their checks when this file was written.",
        "jobs": jobs}, indent=1) + "\n")
    return 0


def main(argv) -> int:
    if argv == ["--write-jobs"]:
        return write_jobs()
    for check in (check_checker, check_self_times, check_speed_probe, check_recorded_jobs):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
