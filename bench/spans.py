"""Spans around the package's public calls, recorded from outside the package.

`Tracer.install` replaces each traced function at every place it is looked
up: the module global of every `theta_loci` module that imported it by name,
and the class attribute for methods.  `uninstall` puts the originals back.

A span is (name, start, end, parent index, job id); spans stay in memory
until `write` at the end of a run.  Counts of work in and out of a layer are
recorded at the same boundaries.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs; the span name is "<module>.<function>".
FUNCTIONS = (
    ("multilinear", "pfaffian_ideal"), ("multilinear", "pfaffian"),
    ("groebner", "buchberger_reduced"), ("groebner", "saturate"),
    ("groebner", "saturate_by_ideal"), ("groebner", "ideal_intersection"),
    ("groebner", "hilbert"),
    ("pipeline", "generator_profile"), ("pipeline", "run_case"),
    ("pipeline", "example_gallery"), ("pipeline", "report_emit"),
    ("cli", "main"),
    ("bott", "cohomology_of_resolution"), ("bott", "schur_module_rank"),
    ("vinberg", "orbit_dimension"), ("vinberg", "orbit_table"),
)
# (module, class, method) triples; the span name is "<module>.<method>".
METHODS = (
    ("groebner", "Ideal", "groebner_basis"),
    ("poly", "PolynomialRing", "from_exponent_dict"),
    ("poly", "PolynomialRing", "parse"),
)


def _gens_in(args) -> int:
    src = args[0]
    gens = getattr(src, "generators", src)
    return sum(1 for g in gens if not g.is_zero())


# Work counts taken from a call's arguments and result: name -> {field: fn}.
COUNTS = {
    "multilinear.pfaffian_ideal": {"gens_out": lambda args, out: len(out.generators)},
    "groebner.buchberger_reduced": {"gens_in": lambda args, out: _gens_in(args),
                                    "basis_out": lambda args, out: len(out.elements)},
}


class Tracer:
    """Span and count recorder for one traced run (see the module docstring)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, jobs = (self.names, self.starts, self.ends,
                                              self.parents, self.jobs)
        stack = self._stack
        counters = tuple(COUNTS.get(name, {}).items())

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            for field, measure in counters:
                self.counts[f"{name}.{field}"] += measure(args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "theta_loci" or key.startswith("theta_loci."))]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"theta_loci.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"theta_loci.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(f"{mod_name}.{attr}", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.jobs))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans(), "counts": dict(self.counts)}, fh)


def self_times(spans, scale=None) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.  `scale` maps a job id to the
    factor its span times are multiplied by (default 1).
    """
    scale = scale or {}
    out = [(end - start) * scale.get(job, 1.0) for _, start, end, _, job in spans]
    for _, start, end, parent, job in spans:
        if parent >= 0:
            out[parent] -= (end - start) * scale.get(job, 1.0)
    return out


# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "multilinear.pfaffian_ideal.s", "multilinear.pfaffian_ideal.gens_out",
    "multilinear.pfaffian.calls", "multilinear.pfaffian.self_s",
    "groebner.buchberger_reduced.calls", "groebner.buchberger_reduced.self_s",
    "groebner.buchberger_reduced.gens_in", "groebner.buchberger_reduced.basis_out",
    "groebner.saturate.calls", "groebner.saturate.s", "groebner.saturate_by_ideal.s",
    "groebner.ideal_intersection.calls", "groebner.ideal_intersection.s",
    "groebner.hilbert.calls", "groebner.hilbert.s",
    "groebner.groebner_basis.calls", "groebner.groebner_basis.hit_ratio",
    "poly.from_exponent_dict.calls", "poly.from_exponent_dict.s",
    "poly.parse.calls", "poly.parse.s",
    "pipeline.generator_profile.calls", "pipeline.generator_profile.s",
    "pipeline.run_case.self_s", "pipeline.example_gallery.self_s", "pipeline.report_emit.s",
    "cli.main.self_s",
    "bott.cohomology_of_resolution.calls", "bott.cohomology_of_resolution.s",
    "bott.schur_module_rank.calls", "bott.schur_module_rank.s",
    "vinberg.orbit_dimension.calls", "vinberg.orbit_dimension.s", "vinberg.orbit_table.s",
)


def layer_metrics(spans, counts, scale=None) -> dict[str, tuple[float, str]]:
    """The PER_LAYER metrics, totalled over all spans: name -> (value, unit).

    `<span>.s` sums the durations of outermost spans of that name only, so a
    function reached again below itself is not counted twice; `<span>.self_s`
    sums self times; `<span>.calls` counts spans.  `groebner_basis.hit_ratio`
    is the share of `Ideal.groebner_basis` calls with no `buchberger_reduced`
    child, i.e. answered from the ideal's own cache.  Times are multiplied by
    `scale[job id]`, as in `self_times`.
    """
    scale = scale or {}
    selfs = self_times(spans, scale)
    names = [name for name, *_ in spans]
    parents = [parent for *_, parent, _ in spans]
    totals = {"calls": Counter(names), "s": Counter(), "self_s": Counter()}
    computed: set[int] = set()
    for i, (name, start, end, parent, job) in enumerate(spans):
        totals["self_s"][name] += selfs[i]
        if name == "groebner.buchberger_reduced" and parent >= 0 \
                and names[parent] == "groebner.groebner_basis":
            computed.add(parent)
        up = parent
        while up >= 0 and names[up] != name:
            up = parents[up]
        if up < 0:
            totals["s"][name] += (end - start) * scale.get(job, 1.0)
    calls = totals["calls"]["groebner.groebner_basis"]
    out: dict[str, tuple[float, str]] = {}
    for metric in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if field in totals:
            out[metric] = (totals[field][span], "s" if field != "calls" else "count")
        elif field == "hit_ratio":
            out[metric] = ((calls - len(computed)) / calls if calls else 0.0, "ratio")
        else:
            out[metric] = (counts.get(metric, 0), "count")
    return out
