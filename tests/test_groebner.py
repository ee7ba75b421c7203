"""Groebner engine: normal forms, Buchberger, elimination, saturation,
intersection, quotient, and the reduced-basis invariants."""

import random

import pytest

from theta_loci.errors import UsageError
from theta_loci.groebner import (Ideal, MonomialOrder, buchberger_reduced,
                                 eliminate, generator_profile,
                                 ideal_intersection, ideal_quotient,
                                 normal_form, saturate, saturate_by_ideal)
from theta_loci.poly import PolynomialRing


@pytest.fixture
def rxyz():
    return PolynomialRing(prime=101, variables=("x", "y", "z"))


def test_normal_form_examples(rxyz):
    x, y, z = rxyz.gens()
    assert normal_form(x * x, [x]).is_zero()
    assert normal_form(x * x * y + y, [x * x - y]) == y * y + y
    f = x * y + z
    assert normal_form(f, []) == f
    # divisors are made monic at their lead under the given order, here y
    assert normal_form(y, [2 * x * x + y], MonomialOrder(3, (1,))) == -2 * x * x


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def test_normal_form_properties(rxyz):
    x, y, z = rxyz.gens()
    G = [x * x - y, y * z - 1]
    f = x * y
    r = normal_form(f, G)
    leads = [g.terms[0][0] for g in G]
    for e, _ in r.terms:
        assert not any(_divides(l, e) for l in leads)


def test_buchberger_examples(rxyz):
    x, y, z = rxyz.gens()
    gb = buchberger_reduced(Ideal(rxyz, [x * x, x * y]))
    assert [str(g) for g in gb] == ["x*y", "x^2"]
    gb = buchberger_reduced(Ideal(rxyz, [x * x - y * y, x - y]))
    assert [str(g) for g in gb] == ["x + 100*y"]
    gb = buchberger_reduced(Ideal(rxyz, [x + y, y * y]))
    assert [str(g) for g in gb] == ["x + y", "y^2"]


def test_zero_and_unit_ideals(rxyz):
    x, y, z = rxyz.gens()
    assert buchberger_reduced(Ideal(rxyz, [])).elements == ()
    gb = buchberger_reduced(Ideal(rxyz, [x + 1, x]))
    assert [str(g) for g in gb] == ["1"]
    assert Ideal(rxyz, [x + 1, x]).is_unit()


def _random_ideal(rng, ring, ngens=3, max_degree=2):
    gens = []
    for _ in range(ngens):
        d = {}
        for _ in range(rng.randrange(2, 5)):
            exps = [0] * ring.nvars
            for _ in range(rng.randrange(0, max_degree + 1)):
                exps[rng.randrange(ring.nvars)] += 1
            d[tuple(exps)] = rng.randrange(1, ring.prime)
        gens.append(ring.from_exponent_dict(d))
    return Ideal(ring, gens)


def test_buchberger_criterion_on_random_ideals():
    """Every S-polynomial of the returned basis reduces to zero."""
    rng = random.Random(2024)
    ring = PolynomialRing(prime=101, nvars=3)
    for _ in range(50):
        ideal = _random_ideal(rng, ring)
        gb = list(buchberger_reduced(ideal).elements)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                f, g = gb[i], gb[j]
                lf, lg = f.terms[0][0], g.terms[0][0]
                lcm = tuple(map(max, lf, lg))
                s = ring.monomial(tuple(a - b for a, b in zip(lcm, lf))) * f.monic() \
                    - ring.monomial(tuple(a - b for a, b in zip(lcm, lg))) * g.monic()
                assert normal_form(s, gb).is_zero()


def test_membership_soundness():
    rng = random.Random(5)
    ring = PolynomialRing(prime=101, nvars=3)
    x, y, z = ring.gens()
    ideal = Ideal(ring, [x * x - y * z, y * y - x * z])
    gb = list(ideal.groebner_basis().elements)
    for _ in range(20):
        combo = ring.zero()
        for g in ideal.generators:
            d = {}
            for _ in range(3):
                exps = tuple(rng.randrange(3) for _ in range(3))
                d[exps] = rng.randrange(101)
            combo = combo + ring.from_exponent_dict(d) * g
        assert normal_form(combo, gb).is_zero()
    # homogeneous proper ideal cannot contain a unit-term polynomial
    for _ in range(20):
        f = ring.one() + _random_ideal(rng, ring, ngens=1).generators[0] \
            * ring.gens()[rng.randrange(3)]
        assert not normal_form(f, gb).is_zero()


def test_reduced_basis_uniqueness(rxyz):
    x, y, z = rxyz.gens()
    a = Ideal(rxyz, [x * x - y * y, x * y - z * z, x + y + z])
    b = Ideal(rxyz, [x + y + z, x * y - z * z, x * x - y * y,
                     (x * x - y * y) + (x + y + z) * z])
    assert a.groebner_basis().elements == b.groebner_basis().elements
    gb = a.groebner_basis()
    leads = [g.terms[0][0] for g in gb.elements]
    for i, g in enumerate(gb.elements):
        assert g.leading_coefficient() == 1
        for e, _ in g.terms:
            assert not any(_divides(l, e) for j, l in enumerate(leads) if j != i)


def test_eliminate_examples():
    ring = PolynomialRing(prime=101, variables=("t", "x", "y"))
    t, x, y = ring.gens()
    assert eliminate(Ideal(ring, [t * x - 1]), ["t"]).generators == ()
    got = eliminate(Ideal(ring, [t - x * x, t - y]), ["t"])
    assert [str(g) for g in got.generators] == ["x^2 + 100*y"]
    same = eliminate(Ideal(ring, [x]), [])
    assert [str(g) for g in same.generators] == ["x"]
    # t + x^2 leads with t under the elimination order but with x^2 in degrevlex
    got = eliminate(Ideal(ring, [t + x * x, t * y - x]), ["t"])
    assert [str(g) for g in got.generators] == ["x^2*y + x"]


def test_saturate_examples(rxyz):
    x, y, z = rxyz.gens()
    got = saturate(Ideal(rxyz, [x * z, y * z]), z)
    assert sorted(str(g) for g in got.generators) == ["x", "y"]
    assert saturate(Ideal(rxyz, [x * x]), x).is_unit()
    ideal = Ideal(rxyz, [x * y - z * z])
    assert saturate(ideal, rxyz.one()) == ideal
    with pytest.raises(UsageError):
        saturate(ideal, rxyz.zero())
    # the basis (x, y^2) of an inhomogeneous ideal is homogeneous, but the
    # engine's mu for (x + y^2, y^2) is {2: 2}: the profile must not reuse it
    got = saturate(Ideal(rxyz, [x + y * y, y * y]), rxyz.one())
    assert generator_profile(got) == {1: 1, 2: 1}


def test_saturate_idempotent(rxyz, monkeypatch):
    """Saturating again by the same variable, last or not, changes nothing
    and reuses the basis the first saturation left on its result."""
    import theta_loci.groebner as groebner

    x, y, z = rxyz.gens()
    ideal = Ideal(rxyz, [x * x * z, y * z * z, z * z * z - x * y * z])
    runs = []
    engine = groebner._buchberger_dicts

    def counted(*args, **kwargs):
        runs.append(len(args[0]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_dicts", counted)
    for v in (z, x):
        once = saturate(ideal, v)
        runs.clear()
        twice = saturate(once, v)
        assert runs == []
        assert once.groebner_basis().elements == twice.groebner_basis().elements


def _divisible_by(g, i):
    return all(e[i] for e, _ in g.terms)


def test_saturate_fast_path_matches_t_method(rxyz):
    """The degrevlex divide-out path agrees with the auxiliary-variable path
    for every variable."""
    from theta_loci.groebner import _saturate_variable

    x, y, z = rxyz.gens()
    rng = random.Random(3)
    for _ in range(10):
        gens = []
        for _ in range(3):
            d = {}
            for _ in range(4):
                e = [rng.randrange(3) for _ in range(3)]
                target = sum(e)
                d[tuple(e)] = rng.randrange(1, 101)
            f = rxyz.from_exponent_dict(d)
            # make homogeneous: keep only top-degree part
            top = f.degree
            d = {e: c for e, c in f.terms if sum(e) == top}
            gens.append(rxyz.from_exponent_dict(d))
        ideal = Ideal(rxyz, gens)
        if not ideal.generators:
            continue
        for i, v in enumerate(rxyz.gens()):
            fast = _saturate_variable(ideal, i)
            assert not any(_divisible_by(g, i) for g in fast.groebner_basis())
            # force the general method by saturating through a product:
            # I : z_i^inf == I : (z_i^2)^inf
            slow = saturate(Ideal(rxyz, ideal.generators), v * v)
            assert fast.groebner_basis().elements == slow.groebner_basis().elements
    # and saturation by a non-last variable
    ideal = Ideal(rxyz, [x * y, x * z])
    got = saturate(ideal, x)
    assert sorted(str(g) for g in got.generators) == ["y", "z"]


def test_normal_form_rejects_exponent_overflow(rxyz):
    """A reduction step that pushes an exponent past the packed range
    raises, instead of misreading the SWAR divisibility guard."""
    x, y, z = rxyz.gens()
    f = x ** 20000 * y ** 13001
    # every term built at the polynomial boundary stays in the packed range
    for build in (lambda: rxyz.parse("x^40000"),
                  lambda: rxyz.monomial((1 << 15, 0, 0)),
                  lambda: x ** 20000 * x ** 20000):
        with pytest.raises(UsageError, match="exponent too large"):
            build()
    divisors = [y ** 30000 * z + x ** 20000 * y ** 10001, y ** 1000 * z]
    with pytest.raises(UsageError, match="exponent too large"):
        normal_form(f, divisors)
    # under the elimination order the drop block is laid out above the keep
    # block; y^33001*z must still trip the guard
    with pytest.raises(UsageError, match="exponent too large"):
        normal_form(f, divisors, order=MonomialOrder(3, (0,)))


def test_intersection_quotient_saturation_examples(rxyz):
    x, y, z = rxyz.gens()
    meet = ideal_intersection(Ideal(rxyz, [x]), Ideal(rxyz, [y]))
    assert [str(g) for g in meet.generators] == ["x*y"]
    ideal = Ideal(rxyz, [x * z, y * z])
    assert ideal_quotient(ideal, Ideal(rxyz, [rxyz.one()])) == ideal
    got = saturate_by_ideal(Ideal(rxyz, [x * z, y * z, z * z]), Ideal(rxyz, [z]))
    assert got.is_unit()


def test_quotient_vs_saturation(rxyz):
    x, y, z = rxyz.gens()
    ideal = Ideal(rxyz, [x * x * y, x * y * y])
    q = ideal_quotient(ideal, Ideal(rxyz, [x * y]))
    assert sorted(str(g) for g in q.generators) == ["x", "y"]
    s = saturate_by_ideal(ideal, Ideal(rxyz, [x * y]))
    assert s.is_unit()


def test_saturate_by_ideal_general_path(rxyz):
    # a generator that is not a plain variable takes the auxiliary-variable
    # saturation; I = (x+y) * <z^2, (x+y)y> is cleared only by (x+y)^2
    x, y, z = rxyz.gens()
    ideal = Ideal(rxyz, [(x + y) * z * z, (x + y) * (x + y) * y])
    got = saturate_by_ideal(ideal, Ideal(rxyz, [x + y]))
    expect = buchberger_reduced(Ideal(rxyz, [z * z, y]))
    assert got.groebner_basis().elements == expect.elements


def test_reduction_loop_never_unpacks_a_term(monkeypatch):
    """Whole engine runs, normal forms and the conversions in and out read
    monomials from the packed keys alone, under degrevlex, degrevlex with
    another variable last and a block order."""
    import theta_loci.groebner as groebner

    ring = PolynomialRing(prime=101, nvars=4)
    a, b, c, d = ring.gens()
    gens = [a * b - c * c, b ** 3 - 7 * a * c * d, c * d - a * a + 3 * b * d]
    f = a ** 3 * b * d + 5 * b ** 4 * c - c ** 3 * d * d + 2 * a * d

    def unpack(*args):
        raise AssertionError("monomial unpacked into exponents")

    def forbid_unpacking():
        monkeypatch.setattr(PolynomialRing, "_exps", unpack)
        monkeypatch.setattr(PolynomialRing, "from_exponent_dict", unpack)
        monkeypatch.setattr(MonomialOrder, "key", unpack)

    for order in (MonomialOrder(4), MonomialOrder(4, last=1), MonomialOrder(4, (0, 2))):
        expected_gb = buchberger_reduced(gens, order)
        expected = normal_form(f, expected_gb.elements, order)
        forbid_unpacking()
        gb = buchberger_reduced(gens, order)
        basis = groebner._Basis(order, ring.prime)
        for g in gb.elements:
            basis.add(groebner._to_dict(g, order))
        got = groebner._from_dict(
            groebner._normal_form_dict(groebner._to_dict(f, order), basis), ring, order)
        monkeypatch.undo()
        assert gb == expected_gb and got == expected and not got.is_zero()

    # the dense loop, on a form under degrevlex orders: it reads neither
    # exponents nor plain packings once its degree's column map is built
    gens = [a * b - c * c, b ** 3 - 7 * a * c * d + d ** 3, c * d - a * a + 3 * b * d]
    f = a ** 3 * b * d + 5 * b ** 4 * c - c ** 3 * d * d + 2 * a * d ** 4
    for order in (MonomialOrder(4), MonomialOrder(4, last=1)):
        gb = buchberger_reduced(gens, order).elements
        basis = groebner._Basis(order, ring.prime)
        for g in gb:
            basis.add(groebner._to_dict(g, order))
        expected = normal_form(f, gb, order)
        groebner._columns(basis, 5)
        forbid_unpacking()
        monkeypatch.setattr(MonomialOrder, "plain", unpack)
        got = groebner._normal_form_dense(groebner._to_dict(f, order), basis, 5)
        monkeypatch.undo()
        assert got and groebner._from_dict(got, ring, order) == expected


def test_reducer_memo_follows_the_live_leads(rxyz):
    """find_reducer's memo follows the live leads: after a -1 an added
    divisor is found, and after a reducer is killed the next live divisor
    is."""
    import theta_loci.groebner as groebner

    x, y, z = rxyz.gens()
    order = MonomialOrder(3)
    basis = groebner._Basis(order, rxyz.prime)
    pk = order.plain(order.key((2, 1, 0)))  # x^2*y
    assert basis.find_reducer(pk) == -1
    basis.add(groebner._to_dict(x * y - z * z, order))
    assert basis.find_reducer(pk) == 0
    basis.add(groebner._to_dict(x * x, order))
    assert basis.find_reducer(pk) == 0  # the first live divisor
    basis.kill(0)
    assert basis.find_reducer(pk) == 1
    basis.kill(1)
    assert basis.find_reducer(pk) == -1


def test_row_rule_builds_no_column_map(monkeypatch):
    """_reduce decides between rows and the sparse loop by arithmetic: a
    3-term form of degree 20 in 12 variables, whose degree has 84,672,315
    monomials, takes the sparse loop without listing them."""
    import theta_loci.groebner as groebner

    ring = PolynomialRing(prime=32003, nvars=12)
    v = ring.gens()
    order = MonomialOrder(12)
    basis = groebner._Basis(order, ring.prime)
    for g in (v[0] ** 2 - v[1] * v[2], v[3] ** 3 + 5 * v[4] * v[5] * v[11]):
        basis.add(groebner._to_dict(g, order))
    f = groebner._to_dict(v[0] ** 20 + 7 * v[3] ** 10 * v[6] ** 10
                          - v[2] ** 9 * v[7] ** 11, order)
    expected = groebner._normal_form_dict(f, basis)

    def build(*args):
        raise AssertionError("column map built to decide the row rule")

    monkeypatch.setattr(groebner, "_columns", build)
    got = groebner._reduce(f, basis, 20)
    assert got == expected and got != f


def test_elimination_order_blocks():
    order = MonomialOrder(3, drop=(0,))
    # any monomial with the dropped variable dominates any without
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    # the blocks keep the ring's slot layout: variable i in slot i
    pk = 2 + (3 << 16) + (1 << 32)
    assert order.plain(order.key((2, 3, 1))) == pk
    assert order.unplain(pk) == order.key((2, 3, 1))


def test_eliminate_two_variables_twisted_cubic():
    ring = PolynomialRing(prime=101, variables=("s", "t", "x", "y", "z"))
    s, t, x, y, z = ring.gens()
    # projective twisted cubic: (x, y, z) = (s^3, s^2 t, ... ) style relations
    ideal = Ideal(ring, [x - s * s, y - s * t, z - t * t])
    got = eliminate(ideal, ["s", "t"])
    expect = buchberger_reduced(Ideal(ring, [y * y - x * z]))
    assert buchberger_reduced(got).elements == expect.elements


def test_intersection_inclusion_exclusion():
    """numerator(I) + numerator(J) == numerator(I cap J) + numerator(I + J),
    an exact Hilbert-series identity for homogeneous ideals."""
    from theta_loci.groebner import hilbert

    rng = random.Random(31)
    ring = PolynomialRing(prime=101, nvars=3)

    def random_homogeneous(degree):
        d = {}
        for _ in range(4):
            exps = [0, 0, 0]
            for _ in range(degree):
                exps[rng.randrange(3)] += 1
            d[tuple(exps)] = rng.randrange(1, 101)
        return ring.from_exponent_dict(d)

    for _ in range(8):
        a = Ideal(ring, [random_homogeneous(2), random_homogeneous(3)])
        b = Ideal(ring, [random_homogeneous(2)])
        meet = ideal_intersection(a, b)
        join = Ideal(ring, a.generators + b.generators)
        lhs = hilbert(a).numerator + hilbert(b).numerator
        rhs = hilbert(meet).numerator + hilbert(join).numerator
        assert lhs == rhs
        # containments
        for g in meet.generators:
            assert a.contains(g) and b.contains(g)


def test_saturation_paths_agree_on_pipeline_ideal(monkeypatch):
    """The auxiliary-variable method and the degrevlex divide-out fast path
    compute the same saturation of a real 28-cubic Pfaffian ideal.  The fast
    path caches its engine-made basis, so the Hilbert data run the engine
    no more; the profile, which the dividing run does not count, takes one
    run over that basis, pruned by its leads."""
    import theta_loci.groebner as groebner
    from theta_loci.groebner import MonomialOrder, _extend_ring, _lift
    from theta_loci.multilinear import (pfaffian_ideal, random_section,
                                        w39_matrix)

    v = random_section("c3c3c3", 1, 101)
    M = w39_matrix(v)
    ring = M.ring
    z9 = ring.variable(8)
    raw = pfaffian_ideal(M, 6)

    calls = []
    pairs = []
    engine = groebner._buchberger_dicts
    spoly = groebner._spoly

    def counted(*args, **kwargs):
        calls.append("quota" in kwargs)
        return engine(*args, **kwargs)

    def counted_spoly(*args):
        pairs.append(args[1:])
        return spoly(*args)

    monkeypatch.setattr(groebner, "_buchberger_dicts", counted)
    monkeypatch.setattr(groebner, "_spoly", counted_spoly)
    fast = saturate(raw, z9)
    # the engine's work counts pin its algorithm: one unpruned run over raw
    # that divides each new element by z9 as it is found
    assert (calls, len(pairs)) == ([False], 136)
    calls.clear()
    pairs.clear()
    assert groebner.hilbert(fast).degree == 12
    assert calls == []
    # then one run over the saturation's reduced basis, pruned by its leads
    assert groebner.generator_profile(fast) == {2: 15, 3: 3}
    assert (calls, len(pairs)) == ([True], 42)
    monkeypatch.undo()
    assert not any(_divisible_by(g, 8) for g in fast.groebner_basis())

    big = _extend_ring(ring, "t")
    t = big.variable(big.nvars - 1)
    gens = [_lift(g, big) for g in raw.generators]
    gens.append(t * _lift(z9, big) - 1)
    elim = buchberger_reduced(Ideal(big, gens),
                              MonomialOrder(big.nvars, (big.nvars - 1,)))
    kept = [g for g in elim.elements
            if g.terms[0][0][big.nvars - 1] == 0]
    slow = Ideal(ring, [_lift(g, ring) for g in kept])
    assert slow.groebner_basis().elements == fast.groebner_basis().elements


def _to_sympy(f, sring):
    """f in the sympy polynomial ring sring, whose generators are f's variables."""
    return sring.from_dict(dict(f.terms))


def test_against_sympy_groebner():
    """Reduced bases agree with an independent implementation."""
    import sympy as sp
    from sympy.polys.groebnertools import groebner as ring_groebner

    rng = random.Random(77)
    for nvars in (3, 4):
        ring = PolynomialRing(prime=101, nvars=nvars)
        names = ",".join(f"x{i}" for i in range(nvars))
        sring = sp.ring(names, sp.FF(101), "grevlex")[0]

        for _ in range(10):
            gens = []
            for _ in range(3):
                d = {}
                for _ in range(rng.randrange(2, 5)):
                    exps = [0] * nvars
                    for _ in range(rng.randrange(0, 4)):
                        exps[rng.randrange(nvars)] += 1
                    d[tuple(exps)] = rng.randrange(1, 101)
                gens.append(ring.from_exponent_dict(d))
            ours = {_to_sympy(g, sring) for g in
                    buchberger_reduced(Ideal(ring, gens)).elements}
            theirs = set(ring_groebner([_to_sympy(g, sring) for g in gens],
                                       sring))
            assert ours == theirs


def test_eliminate_against_sympy_lex():
    """Elimination orders agree with sympy: the lex basis elements free of
    the dropped variables generate the contraction, so sympy's grevlex basis
    of them equals our degrevlex basis of eliminate's output."""
    import sympy as sp
    from sympy.polys.groebnertools import groebner as ring_groebner

    rng = random.Random(91)
    for nvars in (3, 4):
        ring = PolynomialRing(prime=101, nvars=nvars)
        names = ",".join(f"x{i}" for i in range(nvars))
        grevlex = sp.ring(names, sp.FF(101), "grevlex")[0]
        lex = sp.ring(names, sp.FF(101), "lex")[0]
        for drop in ((0,), (0, 1)):
            for _ in range(6):
                gens = []
                for _ in range(3):
                    d = {}
                    for _ in range(rng.randrange(2, 4)):
                        exps = [0] * nvars
                        for _ in range(rng.randrange(1, 3)):
                            exps[rng.randrange(nvars)] += 1
                        d[tuple(exps)] = rng.randrange(1, 101)
                    gens.append(ring.from_exponent_dict(d))
                lex_basis = ring_groebner([_to_sympy(g, lex) for g in gens], lex)
                free = [g.set_ring(grevlex) for g in lex_basis
                        if not any(m[i] for m in g.monoms() for i in drop)]
                theirs = set(ring_groebner(free, grevlex)) if free else set()
                contraction = eliminate(Ideal(ring, gens), drop)
                ours = {_to_sympy(g, grevlex)
                        for g in contraction.groebner_basis().elements}
                assert ours == theirs
