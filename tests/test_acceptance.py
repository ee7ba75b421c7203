"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a `[criterion N] ... PASS` line (visible with `pytest -s`)
and enforces the stated wall-clock budget.  Budgets are generous upper
bounds; the implementation typically runs orders of magnitude faster.
"""

import random
import time

from theta_loci.bott import (bott_type_c, cohomology_of_resolution, schur_dim,
                             schur_module_rank, verlinde)
from theta_loci.complexes import (buchsbaum_eisenbud_numerator_terms,
                                  submaximal_pfaffian_complex_p8)
from theta_loci.groebner import (Ideal, buchberger_reduced, normal_form,
                                 resolution_hilbert_numerator)
from theta_loci.multilinear import SkewMatrix, pfaffian
from theta_loci.pipeline import GALLERY, example_gallery, run_case
from theta_loci.poly import PolynomialRing
from theta_loci.vinberg import enumerate_supports, orbit_table

from oracles import cofactor_determinant, hyperoctahedral_word_lengths
from resolutions import (GR36_BETTI_TOTALS, gr36_betti_totals,
                         symplectic_codim4_complex_p7)


def _report(num, desc, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {desc}: {status} ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} failed"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_c5w25_pipeline():
    """Saturated 4x4-Pfaffian ideal: codim 3, degree 5, HP 5t, exact numerator."""
    expected_numerator = str(resolution_hilbert_numerator(
        buchsbaum_eisenbud_numerator_terms(2)))
    ok = True
    worst = 0.0
    for seed in (1, 2, 3):
        t0 = time.perf_counter()
        report = run_case("c5w25", prime=101, seed=seed)
        worst = max(worst, time.perf_counter() - t0)
        verdicts = {v.name: v for v in report.verdicts}
        ok &= report.status == "PASS"
        ok &= verdicts["codim"].actual == "3"
        ok &= verdicts["degree"].actual == "5"
        ok &= verdicts["hilbert_polynomial"].actual == "5*t"
        ok &= verdicts["numerator"].actual == expected_numerator == \
            "1 - 5*t^2 + 5*t^3 - t^5"
    _report(1, "c5w25 pipeline, 3 seeds", ok, worst, 10.0)


def test_criterion_2_example_gallery():
    """All five singular quintics give HP(t) = 5t; membership checks pass."""
    t0 = time.perf_counter()
    ok = True
    for name in GALLERY:
        report = example_gallery(name)
        verdicts = {v.name: v for v in report.verdicts}
        ok &= verdicts["hilbert_polynomial"].actual == "5*t"
        if name == "pentagon":
            ok &= verdicts["coordinate_lines"].passed
            ok &= verdicts["pentagon_cycle"].passed
        if name == "nodal":
            ok &= verdicts["parameterization"].passed
            ok &= verdicts["node_membership"].passed
        if name == "triangle":
            ok &= all(verdicts[k].passed for k in
                      ("conic1_membership", "conic2_membership",
                       "line_membership"))
    _report(2, "singular-quintic gallery", ok, time.perf_counter() - t0, 10.0)


def test_criterion_3_w39_pipeline(w39_report):
    """I one cubic; J codim 6 degree 18; K the unit ideal; 3 generic seeds."""
    ok = True
    worst = 0.0
    for seed in (1, 2, 3):
        t0 = time.perf_counter()
        report = w39_report(seed)
        worst = max(worst, time.perf_counter() - t0)
        verdicts = {v.name: v for v in report.verdicts}
        ok &= verdicts["I_generators"].actual == "one cubic"
        ok &= verdicts["J_codim"].actual == "6"
        ok &= verdicts["J_degree"].actual == "18"
        ok &= verdicts["K_unit"].actual == "unit"
    _report(3, "w39 pipeline, 3 seeds", ok, worst, 1800.0)


def test_criterion_4_c3c3c3():
    """Two visible components of total degree 12; intersection = 6 linear + 1 cubic."""
    t0 = time.perf_counter()
    report = run_case("c3c3c3", prime=101, seed=1)
    elapsed = time.perf_counter() - t0
    verdicts = {v.name: v for v in report.verdicts}
    ok = (verdicts["visible_components"].actual == "2"
          and verdicts["total_degree"].actual == "12"
          and verdicts["intersection_profile"].actual == "{1: 6, 3: 1}")
    _report(4, "c3c3c3 components and intersection", ok, elapsed, 1800.0)


def test_criterion_5_bott_calibration():
    """(1,2,1) for the P^8 complex; h0=1, h2=3 for the symplectic P^7 complex."""
    t0 = time.perf_counter()
    space, terms = submaximal_pfaffian_complex_p8()
    tab_a = cohomology_of_resolution(terms, space)
    space, terms = symplectic_codim4_complex_p7()
    tab_c = cohomology_of_resolution(terms, space)
    elapsed = time.perf_counter() - t0
    ok = (tab_a.degeneration_verified and tab_c.degeneration_verified
          and tab_a.entries == (1, 2, 1, 0, 0, 0, 0, 0, 0)
          and tab_c.entries == (1, 0, 3, 0, 0, 0, 0, 0))
    _report(5, "resolution-cohomology calibration", ok, elapsed, 1.0)


def test_criterion_6_betti_totals():
    """Schur dimensions of the Gr(3,6) resolution partitions, per degree."""
    t0 = time.perf_counter()
    totals = gr36_betti_totals()
    elapsed = time.perf_counter() - t0
    ok = totals == GR36_BETTI_TOTALS == (1, 35, 140, 301, 735, 1080,
                                         735, 301, 140, 35, 1)
    _report(6, "Betti-total reconstruction", ok, elapsed, 1.0)


def test_criterion_7_vinberg():
    """All 10 orbit dimensions; class counts 3A1 -> 2, 4A1 -> 1."""
    t0 = time.perf_counter()
    table = orbit_table()
    dims = [rec.expected_dimension for rec in table]
    counts = (enumerate_supports("3A1")[0], enumerate_supports("4A1")[0])
    elapsed = time.perf_counter() - t0
    ok = dims == [0, 13, 20, 21, 25, 26, 28, 31, 34, 35] and counts == (2, 1)
    _report(7, "orbit table and support counts", ok, elapsed, 60.0)


def test_criterion_8_verlinde():
    t0 = time.perf_counter()
    ok = (verlinde(2, 1), verlinde(3, 1), verlinde(2, 2)) == (4, 8, 10)
    _report(8, "Verlinde numbers", ok, time.perf_counter() - t0, 1.0)


def test_criterion_9_property_suites():
    """Pfaffian^2 = det; type C lengths vs brute force; Schur construction vs
    Weyl's dimension formula; Buchberger S-pair criterion on 50 random small ideals."""
    t0 = time.perf_counter()
    ok = True

    # Pfaffian squared equals cofactor determinant on random specializations
    rng = random.Random(99)
    ring = PolynomialRing(prime=101, nvars=3)
    for n in (4, 6):
        for _ in range(3):
            upper = {}
            for i in range(n):
                for j in range(i + 1, n):
                    d = {}
                    for _ in range(2):
                        exps = [0] * 3
                        exps[rng.randrange(3)] = 1
                        d[tuple(exps)] = rng.randrange(101)
                    upper[(i, j)] = ring.from_exponent_dict(d)
            m = SkewMatrix.from_upper(ring, n, upper)
            ok &= pfaffian(m) * pfaffian(m) == cofactor_determinant(m)

    # type C Bott degree of w.rho - rho vs brute-force word length of w, rank <= 3
    for n in (1, 2, 3):
        for w, d in hyperoctahedral_word_lengths(n).items():
            out = bott_type_c([(n + 1 - abs(x)) * (1 if x > 0 else -1) - (n - j)
                               for j, x in enumerate(w)])
            ok &= out.degree == d and out.dominant_weight == (0,) * n

    # explicit Schur construction vs Weyl's formula, all partitions in a 3x3 box
    for n in (1, 2, 3):
        for l1 in range(4):
            for l2 in range(l1 + 1):
                for l3 in range(l2 + 1):
                    lam = tuple(x for x in (l1, l2, l3) if x)
                    ok &= schur_module_rank(lam, n) == schur_dim(lam, n)

    # Buchberger output passes the S-pair criterion on 50 random small ideals
    ring = PolynomialRing(prime=101, nvars=3)
    for _ in range(50):
        gens = []
        for _ in range(3):
            d = {}
            for _ in range(rng.randrange(2, 5)):
                exps = [0] * 3
                for _ in range(rng.randrange(0, 3)):
                    exps[rng.randrange(3)] += 1
                d[tuple(exps)] = rng.randrange(1, 101)
            gens.append(ring.from_exponent_dict(d))
        gb = list(buchberger_reduced(Ideal(ring, gens)).elements)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                f, g = gb[i], gb[j]
                lf, lg = f.terms[0][0], g.terms[0][0]
                lcm = tuple(map(max, lf, lg))
                s = ring.monomial(tuple(a - b for a, b in zip(lcm, lf))) * f \
                    - ring.monomial(tuple(a - b for a, b in zip(lcm, lg))) * g
                ok &= normal_form(s, gb).is_zero()

    _report(9, "property suites", ok, time.perf_counter() - t0, 120.0)
