"""Case reports, gallery, determinism, generator profiles."""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from theta_loci.errors import UsageError
from theta_loci.groebner import Ideal, hilbert, saturate, saturate_by_ideal
from theta_loci.multilinear import (TensorSection, c5w25_matrix, pfaffian_ideal,
                                    random_section, w39_matrix)
from theta_loci.pipeline import (_SECTIONS, GALLERY, _is_intersection, _is_pentagon,
                                 _sqrt_minus_one, example_gallery,
                                 generator_profile, report_emit, run_case)
from theta_loci.poly import PolynomialRing

from oracles import (dense_profile, exponents_of_degree, is_pentagon_by_cyclic_order,
                     unpack_row)

GOLDEN = Path(__file__).parent / "data" / "reports"


def _twisted_cubic_plus_cubic(prime, seed):
    """2x2 minors of a random 2x3 matrix of linear forms, plus a random cubic."""
    rng = random.Random(seed)
    ring = PolynomialRing(prime=prime, nvars=4)

    def form(degree):
        return sum((ring.monomial(e, rng.randrange(prime))
                    for e in exponents_of_degree(4, degree)), ring.zero())

    m = [[form(1) for _ in range(3)] for _ in range(2)]
    minors = [m[0][i] * m[1][j] - m[0][j] * m[1][i]
              for i, j in ((0, 1), (0, 2), (1, 2))]
    return Ideal(ring, minors + [form(3)])


def test_generator_profile_simple():
    ring = PolynomialRing(prime=101, nvars=3)
    x, y, z = ring.gens()
    cases = [
        (Ideal(ring, [x, y, x * x + z * z]), {1: 2, 2: 1}),
        (Ideal(ring, [x * x, x * y, y * y, x * z * z]), {2: 3, 3: 1}),
        (Ideal(ring, [x * y, x * y + y * z, x * x * y, z ** 3 + x * y * z]),
         {2: 2, 3: 1}),
        # above 2^32 a p^2 product no longer fits in 64 bits
        (_twisted_cubic_plus_cubic(4294967311, seed=5), {2: 3, 3: 1}),
        (_twisted_cubic_plus_cubic(2 ** 61 - 1, seed=5), {2: 3, 3: 1}),
    ]
    for ideal, expected in cases:
        assert generator_profile(ideal) == expected
        assert dense_profile(ideal) == expected
    assert generator_profile(Ideal(ring, [])) == {}
    assert generator_profile(Ideal(ring, [x, ring.one()])) == {}
    with pytest.raises(UsageError):
        generator_profile(Ideal(ring, [x * x + y]))


def test_generator_profiles_of_saturations_against_dense_oracle():
    """generator_profile of each gallery saturation and of both c3c3c3
    components (seed 1 at 32003) equals the dense oracle's on its basis."""
    saturations = []
    for name in GALLERY:
        M = c5w25_matrix(TensorSection.from_dict(101, _SECTIONS[name]))
        saturations.append(saturate_by_ideal(pfaffian_ideal(M, 4),
                                             Ideal(M.ring, list(M.ring.gens()))))
    M = w39_matrix(random_section("c3c3c3", 1, 32003))
    z = M.ring.gens()
    J = saturate(pfaffian_ideal(M, 6), z[8])
    saturations += [saturate_by_ideal(J, Ideal(M.ring, z[0:3])),
                    saturate_by_ideal(J, Ideal(M.ring, z[3:6]))]
    for sat in saturations:
        assert generator_profile(sat) == \
            dense_profile(Ideal(sat.ring, sat.groebner_basis().elements))


def test_c5w25_report_passes():
    report = run_case("c5w25", prime=101, seed=4)
    assert report.status == "PASS"
    assert report.exit_code == 0
    names = {v.name: v for v in report.verdicts}
    assert names["numerator"].actual == "1 - 5*t^2 + 5*t^3 - t^5"
    rec = report.records[0]
    assert rec.generator_profile == {2: 5}


def test_report_json_determinism():
    a = run_case("c5w25", prime=101, seed=9)
    b = run_case("c5w25", prime=101, seed=9)
    assert report_emit(a, "json", include_timings=False) == \
        report_emit(b, "json", include_timings=False)
    # and the payload parses with stable keys
    payload = json.loads(report_emit(a, "json"))
    assert payload["case"] == "c5w25"
    assert payload["status"] == "PASS"
    # committed reports pin the byte-stable output across changes
    runs = {"c5w25_p101_seed1": lambda: run_case("c5w25", prime=101, seed=1),
            "c5w25_p101_seed4": lambda: run_case("c5w25", prime=101, seed=4),
            "c3c3c3_p32003_seed1": lambda: run_case("c3c3c3", prime=32003, seed=1),
            "c3c3c3_p32003_seed1_chart7":
                lambda: run_case("c3c3c3", prime=32003, seed=1, chart=7),
            # a rare NONGENERIC draw (one in about 10,000), pinned as it is
            "c3c3c3_p32003_seed1296664001":
                lambda: run_case("c3c3c3", prime=32003, seed=1296664001)}
    for name in GALLERY:
        runs[f"gallery_{name}"] = lambda name=name: example_gallery(name)
    for stem, run in runs.items():
        golden = (GOLDEN / f"{stem}.json").read_text()
        assert report_emit(run(), "json", include_timings=False) == golden, stem


def test_report_text_format():
    report = run_case("c5w25", prime=101, seed=4)
    text = report_emit(report, "text")
    assert "status PASS" in text
    assert "[PASS] numerator" in text
    with pytest.raises(UsageError):
        report_emit(report, "yaml")


def test_gallery_all_pass():
    for name in GALLERY:
        report = example_gallery(name)
        assert report.status == "PASS", (name, [v.to_json()
                                                for v in report.verdicts])
        hp = {v.name: v.actual for v in report.verdicts}["hilbert_polynomial"]
        assert hp == "5*t"


def test_gallery_pf4_ideals_are_saturated():
    """The gallery records each quintic's Pf4 ideal as built, unsaturated:
    in codimension 3 the Buchsbaum-Eisenbud resolution has length 3, so the
    ideal is its own saturation by the irrelevant ideal.  Checked here
    against saturate_by_ideal at small, medium and large primes."""
    for prime in (2, 3, 5, 101, 32003, 2**31 - 1):
        for name in GALLERY:
            M = c5w25_matrix(TensorSection.from_dict(prime, _SECTIONS[name]))
            ring = M.ring
            pf4 = pfaffian_ideal(M, 4)
            assert ring.nvars - hilbert(pf4).krull_dimension == 3, (name, prime)
            assert saturate_by_ideal(pf4, Ideal(ring, ring.gens())) == pf4, (name, prime)


def test_gallery_membership_checks():
    rep = example_gallery("pentagon")
    verdicts = {v.name: v.actual for v in rep.verdicts}
    assert verdicts["coordinate_lines"] == "5"
    assert verdicts["pentagon_cycle"] == "5-cycle"
    assert sorted(rep.info["coordinate_lines"]) == \
        [[1, 2], [1, 3], [2, 4], [3, 5], [4, 5]]

    rep = example_gallery("nodal")
    verdicts = {v.name: v.actual for v in rep.verdicts}
    assert verdicts["parameterization"] == "on curve"
    assert verdicts["node_membership"] == "on curve"

    rep = example_gallery("triangle")
    verdicts = {v.name: v.actual for v in rep.verdicts}
    assert verdicts["conic1_membership"] == "on curve"
    assert verdicts["conic2_membership"] == "on curve"
    assert verdicts["line_membership"] == "on curve"


def test_pentagon_degree_count_matches_the_cyclic_orders():
    """_is_pentagon agrees with a search over cyclic orders on every subset
    of the ten coordinate lines, and finds the 12 pentagons of K_5."""
    every = list(combinations(range(5), 2))
    found = 0
    for bits in range(1 << len(every)):
        lines = [line for i, line in enumerate(every) if bits >> i & 1]
        expected = is_pentagon_by_cyclic_order(lines)
        assert _is_pentagon(lines) == expected, lines
        found += expected
    assert found == 12


def test_sqrt_minus_one_is_the_scan_and_quick_at_any_prime():
    """The cuspidal example's root of x^2 + 1 is the one a scan of F_p
    finds first, and a large prime neither scans F_p nor loses the check."""
    for p in range(2, 2000):
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            scan = next((x for x in range(2, p) if (x * x + 1) % p == 0), None)
            assert _sqrt_minus_one(p) == scan, p
    rep = example_gallery("cuspidal", 2**61 - 1)  # 2^61 - 1 = 3 mod 4: no root
    assert rep.status == "PASS" and "cusp_parameterization" not in rep.info
    rep = example_gallery("cuspidal", 10**9 + 9)  # = 1 mod 4
    assert rep.info["cusp_parameterization"] == "on curve"


def test_unknown_names_raise():
    with pytest.raises(UsageError):
        run_case("nope", 101, 0)
    with pytest.raises(UsageError, match="chart"):
        run_case("c5w25", 101, 0, chart=3)
    with pytest.raises(UsageError):
        example_gallery("nope")


def test_w39_report_content(w39_report):
    report = w39_report(1)
    assert report.status == "PASS"
    by_name = {r.name: r for r in report.records}
    assert by_name["I"].generator_profile == {3: 1}
    assert by_name["J"].codim == 6
    assert by_name["J"].degree == 18
    assert by_name["J"].hilbert_polynomial == "9*t^2"
    assert "pfaffians6" in report.timings


def test_c3c3c3_report():
    report = run_case("c3c3c3", prime=101, seed=1)
    assert report.status == "PASS"
    by_name = {r.name: r for r in report.records}
    assert by_name["J_visible"].degree == 12
    meet = by_name["component_intersection"]
    assert meet.generator_profile == {1: 6, 3: 1}
    # a plane cubic curve: codimension 7 cone, degree 3
    assert meet.codim == 7
    assert meet.degree == 3


def test_c3c3c3_reuses_computed_bases(monkeypatch):
    """Saturations by a variable and the intersections that combine them
    hand their basis to the ideal they return, so the records do not run
    the engine on it again.
    Of the saturations' results only J_visible has its profile read, and
    only that one takes a run pruned by a lead quota.
    The saturations met contain one another, which their cached bases show,
    and the recombination is certified by Hilbert series, so no run takes a
    block elimination order.
    Each saturation by an ideal of variables skips a variable z once z*S
    lies in the ideal saturated, S the running answer: one dividing run per
    component of J_visible.  The sum of the components makes none, since
    its degrevlex basis, built for its Hilbert series, shows it saturated
    by z9 and so by the irrelevant ideal.
    saturate_by_ideal returns its intersection as built, so a component's
    degrevlex basis is first run when its record reads it."""
    import theta_loci.groebner as groebner

    runs = []
    engine = groebner._buchberger_dicts

    def counted(inputs, p, order, **kwargs):
        runs.append(("quota" in kwargs, order.descriptor,
                     len(inputs) if kwargs.get("divide_last") else None))
        return engine(inputs, p, order, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_dicts", counted)
    assert run_case("c3c3c3", prime=32003, seed=1).status == "PASS"
    assert (len(runs), sum(quota for quota, _, _ in runs)) == (7, 1)
    assert [d for _, d, _ in runs if d.startswith("eliminate")] == []
    assert [n for _, _, n in runs if n is not None] == [28] + [24] * 2


def test_runs_that_know_their_answer_stop_early(monkeypatch):
    """Engine work, counted at _reduce and _spoly, of w39 seed 1 at 101,
    c3c3c3 seed 1 at 32003 (containment tests outside a run included) and
    the five gallery examples at 101.  J's quota run over its reduced basis
    makes no zero reduction: it skips every pair and input that cannot reach
    one of the basis's unfound leads.  K's dividing run stops at the normal
    form whose remainder is c * z9^e, which becomes the unit ideal's
    constant once z9^e is divided out.  The gallery's Pf4 ideals are
    recorded unsaturated, one degrevlex run each, and none of w39, c3c3c3,
    c5w25 or the gallery runs a block elimination order."""
    import theta_loci.groebner as groebner

    runs, orders = [], []
    total = {"forms": 0, "zero": 0, "pairs": 0}
    engine, reduce_, spoly = groebner._buchberger_dicts, groebner._reduce, groebner._spoly

    def counted_engine(inputs, p, order, **kwargs):
        run = {"keywords": sorted(kwargs), "order": order, "remainders": [], "pairs": 0}
        runs.append(run)
        orders.append(order.descriptor)
        run["out"] = engine(inputs, p, order, **kwargs)
        return run["out"]

    def counted_reduce(f, basis, d):
        r = reduce_(f, basis, d)
        total["forms"] += 1
        total["zero"] += not r
        if runs and "out" not in runs[-1]:  # inside a run, not a containment test
            runs[-1]["remainders"].append(r)
        return r

    def counted_spoly(*args):
        total["pairs"] += 1
        runs[-1]["pairs"] += 1
        return spoly(*args)

    def unit_maker(r, order):
        """Is r one term c * z^e, z the order's last variable?"""
        pk, shift = order.plain(max(r)), groebner._BITS * order.last
        return len(r) == 1 and pk == (pk >> shift) << shift <= groebner._MASK << shift

    monkeypatch.setattr(groebner, "_buchberger_dicts", counted_engine)
    monkeypatch.setattr(groebner, "_reduce", counted_reduce)
    monkeypatch.setattr(groebner, "_spoly", counted_spoly)
    assert run_case("w39", prime=101, seed=1).status == "PASS"
    assert total == {"forms": 293, "zero": 123, "pairs": 201}
    (j_run,) = [r for r in runs if r["keywords"] == ["quota"] and r["out"][1] == {2: 9, 3: 3}]
    rems = j_run["remainders"]
    assert (len(rems), sum(not r for r in rems), j_run["pairs"]) == (18, 0, 18)
    (k_run,) = [r for r in runs if r["out"][0] == [{0: 1}]]
    rems = k_run["remainders"]
    assert k_run["keywords"] == ["divide_last"] and len(rems) == 43
    assert [i for i, r in enumerate(rems) if unit_maker(r, k_run["order"])] == [42]

    runs.clear()
    total.update(forms=0, zero=0, pairs=0)
    assert run_case("c3c3c3", prime=32003, seed=1).status == "PASS"
    assert total == {"forms": 455, "zero": 304, "pairs": 226}

    # the gallery's Pf4 ideals are saturated already: one degrevlex run each
    runs.clear()
    total.update(forms=0, zero=0, pairs=0)
    for name in GALLERY:
        assert example_gallery(name).status == "PASS"
    assert (len(runs), total) == (5, {"forms": 79, "zero": 38, "pairs": 28})
    assert [(r["keywords"], r["order"].descriptor) for r in runs] == [([], "degrevlex")] * 5

    assert run_case("c5w25", seed=1).status == "PASS"
    assert len(orders) == 18 and not [d for d in orders if d.startswith("eliminate")]


def test_recombination_certificate_sees_a_smaller_ideal():
    """N(J) = N(A) + N(B) - N(A + B) holds for J = A cap B and fails for a J
    strictly inside it: A = (x), B = (y), A cap B = (xy), J = (x^2 y, x y^2)."""
    ring = PolynomialRing(prime=101, variables=("x", "y", "z"))
    x, y, _ = ring.gens()
    a, b = Ideal(ring, [x]), Ideal(ring, [y])
    hd = [hilbert(i) for i in (a, b, Ideal(ring, [x, y]))]
    assert _is_intersection(hilbert(Ideal(ring, [x * y])), *hd)
    assert not _is_intersection(hilbert(Ideal(ring, [x * x * y, x * y * y])), *hd)


def test_dense_rows_serve_only_dense_forms(monkeypatch):
    """Which normal forms are reduced as packed rows: nearly all of w39's,
    none of c3c3c3's or the gallery's, whose forms are sparse.  Near
    p = 2^61 a row slot is about three times as wide, and w39 keeps the
    split of the quarter-density rule alone.  An S-pair is decided on the
    sum of its two tails' lengths, which is at least its number of terms
    once shared monomials merge or cancel, so 3 of w39's pairs at 101 and 5
    near 2^61 that the rule left sparse as dicts now start as packed rows:
    (288, 5) became (291, 2), and (279, 14) became (284, 9)."""
    import theta_loci.groebner as groebner

    paths = []
    for name in ("_normal_form_dense", "_normal_form_dict"):
        def counted(*args, name=name, loop=getattr(groebner, name)):
            paths.append(name)
            return loop(*args)
        monkeypatch.setattr(groebner, name, counted)

    def split(job):
        paths.clear()
        assert job().status == "PASS"
        return paths.count("_normal_form_dense"), paths.count("_normal_form_dict")

    assert split(lambda: run_case("w39", seed=1)) == (291, 2)
    assert split(lambda: run_case("w39", prime=2 ** 61 - 1, seed=1)) == (284, 9)
    assert split(lambda: run_case("c3c3c3", prime=32003, seed=1))[0] == 0
    for name in GALLERY:
        assert split(lambda: example_gallery(name))[0] == 0


def test_packed_s_pairs_match_the_dict_s_polynomial(monkeypatch):
    """Every S-pair of w39 seed 1 at 101 and near 2^61, and of five dense
    quadrics in 6 variables over F_2, is the S-polynomial built as a dict:
    a packed pair equals it slot for slot mod p, holds nothing at or above
    the lcm's column, and starts no slot above (p - 1) + (p - 1)^2."""
    import theta_loci.groebner as groebner

    spoly, packed = groebner._spoly, set()

    def checked(basis, i, j, lcm_key, d):
        got = spoly(basis, i, j, lcm_key, d)
        want = spoly(basis, i, j, lcm_key, None)  # d = None: always a dict
        if isinstance(got, int):
            keys, _, col, width = basis.columns[d][:4]
            p, mask = basis.p, (1 << width) - 1
            assert got >> (width * col[lcm_key]) == 0
            assert max((got >> (width * j)) & mask
                       for j in range(len(keys))) <= (p - 1) + (p - 1) ** 2
            assert unpack_row(got, basis, d) == want
            packed.add(p)
        else:
            assert got == want
        return got

    monkeypatch.setattr(groebner, "_spoly", checked)
    for prime in (101, 2 ** 61 - 1):
        assert run_case("w39", prime=prime, seed=1).status == "PASS"
    ring = PolynomialRing(prime=2, nvars=6)
    rng = random.Random(2)
    quadrics = [ring.from_exponent_dict({e: 1 for e in exponents_of_degree(6, 2)
                                         if rng.random() < 0.7}) for _ in range(5)]
    assert Ideal(ring, quadrics).groebner_basis().elements
    assert packed == {101, 2 ** 61 - 1, 2}


def test_nongeneric_is_flagged_not_crashed():
    # over F_2 this seed gives a degenerate pencil: codim drops to 2
    report = run_case("c5w25", prime=2, seed=6)
    assert report.status == "NONGENERIC"
    assert report.exit_code == 2
    verdicts = {v.name: v for v in report.verdicts}
    assert not verdicts["codim"].passed


def test_w39_seed_independence(w39_report):
    """Verdicts agree across 5 distinct generic seeds."""
    baseline = None
    for seed in (1, 2, 3, 4, 5):
        report = w39_report(seed)
        verdicts = tuple((v.name, v.expected, v.actual) for v in report.verdicts)
        assert report.status == "PASS"
        if baseline is None:
            baseline = verdicts
        else:
            assert verdicts == baseline


def test_w39_report_byte_determinism(w39_report):
    fresh = run_case("w39", prime=101, seed=1)
    cached = report_emit(w39_report(1), "json", include_timings=False)
    assert report_emit(fresh, "json", include_timings=False) == cached
    for seed in (1, 2, 3):
        assert report_emit(w39_report(seed), "json", include_timings=False) \
            == (GOLDEN / f"w39_p101_seed{seed}.json").read_text(), seed


def test_c3c3c3_chart_swap_informational():
    # each chart hides exactly one of the three components (the one whose
    # dead coordinate block contains the chart variable); the component in
    # z7=z8=z9=0 is invisible in chart 9 but shows degree 6 in chart 1
    report = run_case("c3c3c3", prime=101, seed=1, chart=1)
    assert report.verdicts == []
    assert report.info["third_component_degree"] == 6
    assert report.info["visible_degree"] == 12
