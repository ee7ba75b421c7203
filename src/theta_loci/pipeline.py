"""End-to-end degeneracy-locus cases and the singular-quintic gallery.

run_case builds a pseudo-random section, assembles the skew matrix, computes
the saturated Pfaffian ideals and checks them against the expected invariants.
A failed expectation marks the report NONGENERIC (genericity is an open
condition; a bad seed is an outcome, not a crash).  Reports are
self-contained: every verdict is recomputed from fields stored in the report.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import UsageError
from .groebner import (HilbertData, Ideal, generator_profile, hilbert,
                       resolution_hilbert_numerator, saturate,
                       saturate_by_ideal)
from .complexes import buchsbaum_eisenbud_numerator_terms
from .multilinear import (SkewMatrix, c5w25_matrix, c5w25_ring,
                          pfaffian_ideal, random_section, w39_matrix)
from .poly import PolynomialRing

CASES = ("c5w25", "w39", "c3c3c3")
GALLERY = ("nodal", "triangle", "pentagon", "nonreduced", "cuspidal")


# ---------------------------------------------------------------------------
# reports


@dataclass
class IdealRecord:
    name: str
    codim: int | None
    degree: int | None
    hilbert_polynomial: str | None
    generator_profile: dict[int, int] | None
    numerator: str | None = None
    basis_size: int | None = None
    note: str | None = None

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "codim": self.codim,
            "degree": self.degree,
            "hilbert_polynomial": self.hilbert_polynomial,
            "generator_profile": {str(k): v for k, v in
                                  sorted((self.generator_profile or {}).items())},
        }
        if self.numerator is not None:
            out["numerator"] = self.numerator
        if self.basis_size is not None:
            out["basis_size"] = self.basis_size
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class Verdict:
    name: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_json(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "actual": self.actual, "pass": self.passed}


@dataclass
class CaseReport:
    case: str
    prime: int
    seed: int | None
    chart: int | None
    records: list[IdealRecord] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "PASS" if all(v.passed for v in self.verdicts) else "NONGENERIC"

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "PASS" else 2

    def to_json(self, include_timings: bool = True) -> dict:
        out = {
            "case": self.case,
            "prime": self.prime,
            "seed": self.seed,
            "chart": self.chart,
            "records": [r.to_json() for r in self.records],
            "verdicts": [v.to_json() for v in self.verdicts],
            "info": self.info,
            "status": self.status,
        }
        if include_timings:
            out["timings_s"] = {k: round(v, 3) for k, v in self.timings.items()}
        return out


def report_emit(report: CaseReport, fmt: str = "json",
                include_timings: bool = True) -> str:
    """Serialize a report with stable field order."""
    if fmt == "json":
        return json.dumps(report.to_json(include_timings=include_timings),
                          sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise UsageError(f"unknown report format {fmt!r}")
    lines = [f"case {report.case}  prime {report.prime}  seed {report.seed}"
             f"  chart {report.chart}  status {report.status}"]
    for r in report.records:
        prof = ", ".join(f"{v} of degree {k}"
                         for k, v in sorted((r.generator_profile or {}).items()))
        lines.append(f"  ideal {r.name}: codim {r.codim}, degree {r.degree}, "
                     f"HP {r.hilbert_polynomial}, generators [{prof}]")
    for v in report.verdicts:
        mark = "PASS" if v.passed else "FAIL"
        lines.append(f"  [{mark}] {v.name}: expected {v.expected}, got {v.actual}")
    for k, v in report.info.items():
        lines.append(f"  info {k}: {v}")
    if include_timings:
        for k, v in sorted(report.timings.items()):
            lines.append(f"  time {k}: {v:.3f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# case runners


def _record(name: str, ideal: Ideal, hd: HilbertData,
            with_numerator: bool = False) -> IdealRecord:
    """The record of ideal, whose Hilbert data is hd."""
    gb = ideal.groebner_basis()
    if not gb.elements:
        return IdealRecord(name, None, None, None, {}, basis_size=0)
    return IdealRecord(
        name,
        codim=ideal.ring.nvars - hd.krull_dimension,
        degree=hd.degree,
        hilbert_polynomial=str(hd.hilbert_polynomial),
        generator_profile=generator_profile(ideal),
        numerator=str(hd.numerator) if with_numerator else None,
        basis_size=len(gb.elements),
    )


def run_case(case: str, prime: int = 101, seed: int = 0,
             chart: int | None = None) -> CaseReport:
    """Run one degeneracy-locus case end to end."""
    if case == "c5w25":
        if chart is not None:
            raise UsageError(f"case 'c5w25' has no chart, got chart = {chart}")
        return _run_c5w25(prime, seed)
    if case == "w39":
        return _run_w39(prime, seed, 9 if chart is None else chart)
    if case == "c3c3c3":
        return _run_c3c3c3(prime, seed, 9 if chart is None else chart)
    raise UsageError(f"unknown case {case!r}")


def _run_c5w25(prime: int, seed: int) -> CaseReport:
    report = CaseReport("c5w25", prime, seed, None)
    t0 = time.perf_counter()
    section = random_section("c5w25", seed, prime)
    M = c5w25_matrix(section)
    raw = pfaffian_ideal(M, 4)
    report.timings["pfaffians"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    # already saturated for generic sections; saturation applied for uniformity
    sat = saturate(raw, M.ring.variable(4))
    report.timings["saturation"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rec = _record("pfaffian4", sat, hilbert(sat), with_numerator=True)
    report.records.append(rec)
    report.timings["hilbert"] = time.perf_counter() - t0
    predicted = resolution_hilbert_numerator(buchsbaum_eisenbud_numerator_terms(2))
    report.verdicts += [
        Verdict("codim", "3", str(rec.codim)),
        Verdict("degree", "5", str(rec.degree)),
        Verdict("hilbert_polynomial", "5*t", str(rec.hilbert_polynomial)),
        Verdict("numerator", str(predicted), str(rec.numerator)),
    ]
    return report


def _w39_ideals(prime: int, seed: int, chart: int, which: tuple[int, ...],
                case: str, report: CaseReport):
    section = random_section(case, seed, prime)
    M = w39_matrix(section, chart=chart)
    zc = M.ring.variable(chart - 1)
    out = {}
    for size in which:
        t0 = time.perf_counter()
        raw = pfaffian_ideal(M, size)
        report.timings[f"pfaffians{size}"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        out[size] = saturate(raw, zc)
        report.timings[f"saturate{size}"] = time.perf_counter() - t0
    return M.ring, out


def _run_w39(prime: int, seed: int, chart: int) -> CaseReport:
    report = CaseReport("w39", prime, seed, chart)
    ring, ideals = _w39_ideals(prime, seed, chart, (8, 6, 4), "w39", report)
    I, J, K = ideals[8], ideals[6], ideals[4]

    rec_i = _record("I", I, hilbert(I))
    report.records.append(rec_i)
    t0 = time.perf_counter()
    rec_j = _record("J", J, hilbert(J))
    report.records.append(rec_j)
    report.timings["hilbertJ"] = time.perf_counter() - t0
    gb_k = K.groebner_basis()
    report.records.append(IdealRecord("K", None, None, None, {},
                                      basis_size=len(gb_k.elements),
                                      note="unit ideal" if K.is_unit()
                                      else "proper ideal (non-generic)"))
    report.verdicts += [
        Verdict("I_generators", "one cubic",
                "one cubic" if rec_i.generator_profile == {3: 1} else
                str(rec_i.generator_profile)),
        Verdict("J_codim", "6", str(rec_j.codim)),
        Verdict("J_degree", "18", str(rec_j.degree)),
        Verdict("K_unit", "unit", "unit" if K.is_unit() else "proper"),
    ]
    return report


def _is_intersection(j: HilbertData, a: HilbertData, b: HilbertData,
                     a_plus_b: HilbertData) -> bool:
    """Is J = A cap B, given the Hilbert data of homogeneous ideals with
    J <= A and J <= B?

    0 -> R/(A cap B) -> R/A (+) R/B -> R/(A + B) -> 0 is exact, so Hilbert
    series add along it: N(A cap B) = N(A) + N(B) - N(A + B).  J <= A cap B,
    and a homogeneous ideal inside another with the same Hilbert series
    equals it, since they agree in each degree's dimension.  So J = A cap B
    exactly when N(J) = N(A) + N(B) - N(A + B).
    """
    return j.numerator == a.numerator + b.numerator - a_plus_b.numerator


def _run_c3c3c3(prime: int, seed: int, chart: int) -> CaseReport:
    report = CaseReport("c3c3c3", prime, seed, chart)
    ring, ideals = _w39_ideals(prime, seed, chart, (6,), "c3c3c3", report)
    J = ideals[6]
    hd_j = hilbert(J)
    rec_j = _record("J_visible", J, hd_j)
    report.records.append(rec_j)

    z = ring.gens()
    t0 = time.perf_counter()
    comp_a = saturate_by_ideal(J, Ideal(ring, z[0:3]))  # kills the part in z1=z2=z3=0
    comp_b = saturate_by_ideal(J, Ideal(ring, z[3:6]))
    report.timings["isolation"] = time.perf_counter() - t0
    hd_a, hd_b = hilbert(comp_a), hilbert(comp_b)
    rec_a = _record("component_in_z456_zero", comp_a, hd_a)
    rec_b = _record("component_in_z123_zero", comp_b, hd_b)
    report.records += [rec_a, rec_b]

    # both components are saturations of J, so each contains J
    t0 = time.perf_counter()
    both = Ideal(ring, comp_a.generators + comp_b.generators)
    two_components = (_is_intersection(hd_j, hd_a, hd_b, hilbert(both))
                      and comp_a != comp_b
                      and not comp_a.is_unit() and not comp_b.is_unit())
    report.timings["recombine"] = time.perf_counter() - t0

    # scheme-theoretic intersection of the two components: sum of ideals,
    # saturated at the irrelevant ideal to strip any embedded-at-origin junk;
    # both's degrevlex basis, built above, serves its saturation by z9
    t0 = time.perf_counter()
    meet = saturate_by_ideal(both, Ideal(ring, list(z)))
    rec_meet = _record("component_intersection", meet, hilbert(meet))
    report.records.append(rec_meet)
    report.timings["intersection"] = time.perf_counter() - t0

    total_degree = (rec_a.degree or 0) + (rec_b.degree or 0)
    if chart == 9:
        report.verdicts += [
            Verdict("visible_components", "2", "2" if two_components else "not 2"),
            Verdict("total_degree", "12", str(total_degree)),
            Verdict("intersection_profile", "{1: 6, 3: 1}",
                    str(dict(sorted((rec_meet.generator_profile or {}).items())))),
        ]
    else:
        # chart-swap experiment: the component in z7=z8=z9=0 becomes visible.
        # The expected degree 6 is recorded as information, not a verdict,
        # since only the default-chart matrix carries pinned expectations.
        report.info["visible_degree"] = rec_j.degree
        comp_c = saturate_by_ideal(J, Ideal(ring, z[6:9]))
        if not comp_c.is_unit() and comp_c.generators:
            hd_c = hilbert(comp_c)
            report.info["third_component_degree"] = hd_c.degree
    return report


# ---------------------------------------------------------------------------
# gallery of singular quintics


def _gallery_matrices(ring: PolynomialRing) -> dict[str, SkewMatrix]:
    z1, z2, z3, z4, z5 = ring.gens()
    zero = ring.zero()

    def skew(rows):
        return SkewMatrix(ring, rows)

    nodal = skew([
        [zero, z5, z1, z2, z3],
        [-z5, zero, z2, z3, z4],
        [-z1, -z2, zero, z4, z5],
        [-z2, -z3, -z4, zero, zero],
        [-z3, -z4, -z5, zero, zero],
    ])
    triangle = skew([
        [zero, zero, z4, z3, z2],
        [zero, zero, zero, z2, z1],
        [-z4, zero, zero, zero, -z5],
        [-z3, -z2, zero, zero, -z4],
        [-z2, -z1, z5, z4, zero],
    ])
    pentagon = skew([
        [zero, z1, z2, zero, zero],
        [-z1, zero, zero, z3, zero],
        [-z2, zero, zero, zero, z4],
        [zero, -z3, zero, zero, z5],
        [zero, zero, -z4, -z5, zero],
    ])
    nonreduced = skew([
        [zero, zero, z5, z3, z2],
        [zero, zero, zero, z2, z1],
        [-z5, zero, zero, z4, z3],
        [-z3, -z2, -z4, zero, zero],
        [-z2, -z1, -z3, zero, zero],
    ])
    cuspidal = skew([
        [zero, z1, z4, zero, z5],
        [-z1, zero, zero, z5, z2],
        [-z4, zero, zero, z2, z3],
        [zero, -z5, -z2, zero, z4],
        [-z5, -z2, -z3, -z4, zero],
    ])
    return {"nodal": nodal, "triangle": triangle, "pentagon": pentagon,
            "nonreduced": nonreduced, "cuspidal": cuspidal}


def _vanishes_on_curve(gens, images) -> bool:
    """Do all generators pull back to 0 along a parameterization?"""
    return all(g.substitute(images).is_zero() for g in gens)


def _sqrt_minus_one(p: int) -> int | None:
    """The lesser root of x^2 + 1 over F_p, None when p % 4 != 1: for the
    least non-residue c, c^((p-1)/4) is one (Euler's criterion)."""
    if p % 4 != 1:
        return None
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r = pow(c, (p - 1) // 4, p)
    return min(r, p - r)


def example_gallery(name: str, prime: int = 101) -> CaseReport:
    """Load one verbatim singular-quintic matrix and verify its invariants."""
    if name not in GALLERY:
        raise UsageError(f"unknown example {name!r}")
    ring = c5w25_ring(prime)
    M = _gallery_matrices(ring)[name]
    report = CaseReport(f"example:{name}", prime, None, None)

    t0 = time.perf_counter()
    # saturate at the irrelevant ideal: these sections are deliberately
    # non-generic and may have components inside any coordinate hyperplane
    sat = saturate_by_ideal(pfaffian_ideal(M, 4), Ideal(ring, list(ring.gens())))
    rec = _record("pfaffian4", sat, hilbert(sat), with_numerator=True)
    report.records.append(rec)
    report.timings["ideal"] = time.perf_counter() - t0
    report.verdicts.append(
        Verdict("hilbert_polynomial", "5*t", str(rec.hilbert_polynomial)))

    gens = sat.groebner_basis().elements
    param = PolynomialRing(prime=prime, variables=("a", "b"))
    a, b = param.gens()
    zero = param.zero()

    if name == "nodal":
        curve = [a**5 + b**5, a * b**4, a**2 * b**3, a**3 * b**2, a**4 * b]
        ok = _vanishes_on_curve(gens, curve)
        node = all(g.evaluate((1, 0, 0, 0, 0)) == 0 for g in gens)
        report.verdicts.append(Verdict("parameterization", "on curve",
                                       "on curve" if ok else "off curve"))
        report.verdicts.append(Verdict("node_membership", "on curve",
                                       "on curve" if node else "off curve"))
    elif name == "triangle":
        pieces = {
            "conic1": [a * a, a * b, b * b, zero, zero],
            "conic2": [zero, zero, a * a, a * b, b * b],
            "line": [a, zero, zero, zero, b],
        }
        for pname, images in pieces.items():
            ok = _vanishes_on_curve(gens, images)
            report.verdicts.append(Verdict(f"{pname}_membership", "on curve",
                                           "on curve" if ok else "off curve"))
    elif name == "pentagon":
        # coordinate lines contained in the locus, adjacency by shared coordinate
        lines = []
        for i in range(5):
            for j in range(i + 1, 5):
                images = [zero] * 5
                images[i], images[j] = a, b
                if _vanishes_on_curve(gens, images):
                    lines.append((i, j))
        cyclic = _is_pentagon(lines)
        report.info["coordinate_lines"] = [[i + 1, j + 1] for i, j in lines]
        report.verdicts.append(Verdict("coordinate_lines", "5", str(len(lines))))
        report.verdicts.append(Verdict("pentagon_cycle", "5-cycle",
                                       "5-cycle" if cyclic else "not a 5-cycle"))
    elif name == "nonreduced":
        cubic = [a**3, a**2 * b, a * b**2, b**3, zero]
        ok = _vanishes_on_curve(gens, cubic)
        report.verdicts.append(Verdict("cubic_membership", "on curve",
                                       "on curve" if ok else "off curve"))
    elif name == "cuspidal":
        i = _sqrt_minus_one(prime)
        if i is not None:
            curve = [i * b**5, a**3 * b**2, a**5, i * a**2 * b**3, a * b**4]
            ok = _vanishes_on_curve(gens, curve)
            report.info["cusp_parameterization"] = "on curve" if ok else "off curve"
        cusp = all(g.evaluate((0, 0, 1, 0, 0)) == 0 for g in gens)
        report.info["cusp_point"] = "on curve" if cusp else "off curve"
    return report


def _is_pentagon(lines) -> bool:
    """Are the coordinate lines a single 5-cycle under shared-index adjacency?

    Five distinct lines on five points form one 5-cycle exactly when every
    point lies on two of them.
    """
    return (len(lines) == 5
            and sorted(Counter(chain.from_iterable(lines)).values()) == [2] * 5)
