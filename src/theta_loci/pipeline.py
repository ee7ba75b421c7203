"""End-to-end degeneracy-locus cases and the singular-quintic gallery.

run_case builds a pseudo-random section, assembles the skew matrix, computes
the saturated Pfaffian ideals and checks them against the expected invariants.
A failed expectation marks the report NONGENERIC (genericity is an open
condition; a bad seed is an outcome, not a crash).  The gallery quintics are
sections of c5w25's bundle, built by c5w25_matrix and recorded as their Pf4
ideals, which Buchsbaum-Eisenbud makes saturated in codimension 3.  c5w25 and
the gallery expect the codimension, degree and Hilbert polynomial that
HilbertData.from_numerator reads off that resolution's numerator.  Reports
are self-contained: every verdict is recomputed from the report's fields.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations

from .errors import UsageError
from .groebner import (HilbertData, Ideal, generator_profile, hilbert,
                       resolution_hilbert_numerator, saturate,
                       saturate_by_ideal)
from .complexes import buchsbaum_eisenbud_numerator_terms
from .multilinear import (TensorSection, c5w25_matrix, pfaffian_ideal,
                          random_section, w39_matrix)
from .poly import PolynomialRing

CASES = ("c5w25", "w39", "c3c3c3")

# the singular quintics as sections of C^5 (x) wedge^2 C^5: each key (a, i, j)
# puts its sign times z_a at (i, j) of the 5x5 skew matrix
_SECTIONS = {
    "nodal": {(5, 1, 2): 1, (1, 1, 3): 1, (2, 1, 4): 1, (3, 1, 5): 1, (2, 2, 3): 1,
              (3, 2, 4): 1, (4, 2, 5): 1, (4, 3, 4): 1, (5, 3, 5): 1},
    "triangle": {(4, 1, 3): 1, (3, 1, 4): 1, (2, 1, 5): 1, (2, 2, 4): 1,
                 (1, 2, 5): 1, (5, 3, 5): -1, (4, 4, 5): -1},
    "pentagon": {(1, 1, 2): 1, (2, 1, 3): 1, (3, 2, 4): 1, (4, 3, 5): 1, (5, 4, 5): 1},
    "nonreduced": {(5, 1, 3): 1, (3, 1, 4): 1, (2, 1, 5): 1, (2, 2, 4): 1,
                   (1, 2, 5): 1, (4, 3, 4): 1, (3, 3, 5): 1},
    "cuspidal": {(1, 1, 2): 1, (4, 1, 3): 1, (5, 1, 5): 1, (5, 2, 4): 1,
                 (2, 2, 5): 1, (2, 3, 4): 1, (3, 3, 5): 1, (4, 4, 5): 1},
}
GALLERY = tuple(_SECTIONS)

# the Hilbert data of a codimension-3 Pf4 locus on P^4, by Buchsbaum-Eisenbud
_QUINTIC = HilbertData.from_numerator(
    resolution_hilbert_numerator(buchsbaum_eisenbud_numerator_terms(2)), 5)


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
        codim=hd.codim,
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
    # removes any component inside z5 = 0, which decides verdicts at p = 2, 3
    sat = saturate(raw, M.ring.variable(4))
    report.timings["saturation"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rec = _record("pfaffian4", sat, hilbert(sat), with_numerator=True)
    report.records.append(rec)
    report.timings["hilbert"] = time.perf_counter() - t0
    report.verdicts += [Verdict(name, str(getattr(_QUINTIC, name)), str(getattr(rec, name)))
                        for name in ("codim", "degree", "hilbert_polynomial", "numerator")]
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
    # both's degrevlex basis, built above, decides its saturation by m without a run
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
    """Build one singular quintic's matrix from its section and verify its
    invariants."""
    if name not in GALLERY:
        raise UsageError(f"unknown example {name!r}")
    M = c5w25_matrix(TensorSection.from_dict(prime, _SECTIONS[name]))
    report = CaseReport(f"example:{name}", prime, None, None)

    t0 = time.perf_counter()
    # I = Pf4 as built: saturating by the irrelevant ideal m would remove only
    # a component at the origin.  That keeps the Hilbert polynomial, and each
    # where() kernel, a prime P != m, holds I iff it holds I : m^infty.  The
    # other fields change only if I is unsaturated, but Buchsbaum-Eisenbud
    # makes a codim-3 I saturated (depth R/I = 2); else hilbert_polynomial fails.
    pf4 = pfaffian_ideal(M, 4)
    rec = _record("pfaffian4", pf4, hilbert(pf4), with_numerator=True)
    report.records.append(rec)
    report.timings["ideal"] = time.perf_counter() - t0
    report.verdicts.append(Verdict("hilbert_polynomial", str(_QUINTIC.hilbert_polynomial),
                                   str(rec.hilbert_polynomial)))

    param = PolynomialRing(prime=prime, variables=("a", "b"))
    a, b = param.gens()
    zero, one = param.zero(), param.one()

    def where(images) -> str:
        """Does every generator pull back to 0 along z_k -> images[k]?"""
        on = all(g.substitute(images).is_zero() for g in pf4.generators)
        return "on curve" if on else "off curve"

    if name == "nodal":
        report.verdicts += [
            Verdict("parameterization", "on curve",
                    where([a**5 + b**5, a * b**4, a**2 * b**3, a**3 * b**2, a**4 * b])),
            Verdict("node_membership", "on curve", where([one, zero, zero, zero, zero])),
        ]
    elif name == "triangle":
        for piece, images in (("conic1", [a * a, a * b, b * b, zero, zero]),
                              ("conic2", [zero, zero, a * a, a * b, b * b]),
                              ("line", [a, zero, zero, zero, b])):
            report.verdicts.append(Verdict(f"{piece}_membership", "on curve", where(images)))
    elif name == "pentagon":
        # coordinate lines contained in the locus, adjacency by shared coordinate
        lines = []
        for i, j in combinations(range(5), 2):
            images = [zero] * 5
            images[i], images[j] = a, b
            if where(images) == "on curve":
                lines.append((i, j))
        report.info["coordinate_lines"] = [[i + 1, j + 1] for i, j in lines]
        report.verdicts.append(Verdict("coordinate_lines", "5", str(len(lines))))
        report.verdicts.append(Verdict("pentagon_cycle", "5-cycle",
                                       "5-cycle" if _is_pentagon(lines) else "not a 5-cycle"))
    elif name == "nonreduced":
        report.verdicts.append(Verdict("cubic_membership", "on curve",
                                       where([a**3, a**2 * b, a * b**2, b**3, zero])))
    elif name == "cuspidal":
        i = _sqrt_minus_one(prime)
        if i is not None:
            report.info["cusp_parameterization"] = where(
                [i * b**5, a**3 * b**2, a**5, i * a**2 * b**3, a * b**4])
        report.info["cusp_point"] = where([zero, zero, one, zero, zero])
    return report


def _is_pentagon(lines) -> bool:
    """Are the coordinate lines a single 5-cycle under shared-index adjacency?

    Five distinct lines on five points form one 5-cycle exactly when every
    point lies on two of them.
    """
    return (len(lines) == 5
            and sorted(Counter(chain.from_iterable(lines)).values()) == [2] * 5)
