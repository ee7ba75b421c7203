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


def test_normal_form_properties(rxyz):
    x, y, z = rxyz.gens()
    G = [x * x - y, y * z - 1]
    f = x * y
    r = normal_form(f, G)
    leads = [g.leading_monomial() for g in G]
    for m, _ in r.terms:
        assert not any(l.divides(m) for l in leads)


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
                lf, lg = f.leading_monomial(), g.leading_monomial()
                lcm = lf.lcm(lg)
                s = ring.monomial((lcm / lf).exponents) * f.monic() \
                    - ring.monomial((lcm / lg).exponents) * g.monic()
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
    leads = [g.leading_monomial() for g in gb.elements]
    for i, g in enumerate(gb.elements):
        assert g.leading_coefficient() == 1
        for m, _ in g.terms:
            assert not any(l.divides(m) for j, l in enumerate(leads) if j != i)


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
    assert got.saturated
    assert saturate(Ideal(rxyz, [x * x]), x).is_unit()
    ideal = Ideal(rxyz, [x * y - z * z])
    assert saturate(ideal, rxyz.one()) == ideal
    with pytest.raises(UsageError):
        saturate(ideal, rxyz.zero())
    # the basis (x, y^2) of an inhomogeneous ideal is homogeneous, but the
    # engine's mu for (x + y^2, y^2) is {2: 2}: the profile must not reuse it
    got = saturate(Ideal(rxyz, [x + y * y, y * y]), rxyz.one())
    assert generator_profile(got) == {1: 1, 2: 1}


def test_saturate_idempotent(rxyz):
    x, y, z = rxyz.gens()
    ideal = Ideal(rxyz, [x * x * z, y * z * z, z * z * z - x * y * z])
    once = saturate(ideal, z)
    twice = saturate(once, z)
    assert once.groebner_basis().elements == twice.groebner_basis().elements


def _divisible_by_last(g):
    return all(m.exponents[-1] for m, _ in g.terms)


def test_saturate_fast_path_matches_t_method(rxyz):
    """The degrevlex divide-out path agrees with the auxiliary-variable path."""
    from theta_loci.groebner import _saturate_last_variable

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
            d = {m.exponents: c for m, c in f.terms if m.total_degree == top}
            gens.append(rxyz.from_exponent_dict(d))
        ideal = Ideal(rxyz, gens)
        if not ideal.generators:
            continue
        fast = _saturate_last_variable(ideal)
        assert not any(_divisible_by_last(g) for g in fast.groebner_basis())
        # force the general method by saturating by z through a product
        big_ring = ideal.ring
        slow = saturate(Ideal(big_ring, ideal.generators), z * z)  # z^2: t-method
        # I : z^inf == I : (z^2)^inf
        assert fast.groebner_basis().elements == slow.groebner_basis().elements
    # and saturation by a non-last variable permutes correctly
    ideal = Ideal(rxyz, [x * y, x * z])
    got = saturate(ideal, x)
    assert sorted(str(g) for g in got.generators) == ["y", "z"]


def test_normal_form_rejects_exponent_overflow(rxyz):
    """A reduction step that pushes an exponent past the packed range
    raises, instead of misreading the SWAR divisibility guard."""
    x, y, z = rxyz.gens()
    f = x ** 20000 * y ** 13001
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
    # generators that are not plain variables exercise iterated quotients;
    # I = (x+y) * <z^2, (x+y)y> needs two quotient rounds to stabilize
    x, y, z = rxyz.gens()
    ideal = Ideal(rxyz, [(x + y) * z * z, (x + y) * (x + y) * y])
    got = saturate_by_ideal(ideal, Ideal(rxyz, [x + y]))
    expect = buchberger_reduced(Ideal(rxyz, [z * z, y]))
    assert got.groebner_basis().elements == expect.elements


def test_reduction_loop_never_unpacks_a_term(monkeypatch):
    """Normal forms read divisibility from the packed keys alone, under
    degrevlex and under a block order."""
    import theta_loci.groebner as groebner

    ring = PolynomialRing(prime=101, nvars=4)
    a, b, c, d = ring.gens()
    gens = [a * b - c * c, b ** 3 - 7 * a * c * d, c * d - a * a + 3 * b * d]
    f = a ** 3 * b * d + 5 * b ** 4 * c - c ** 3 * d * d + 2 * a * d
    for order in (MonomialOrder(4), MonomialOrder(4, (0, 2))):
        gb = buchberger_reduced(gens, order).elements
        basis = groebner._Basis(order, ring.prime)
        for g in gb:
            basis.add(groebner._to_dict(g, order))
        expected = normal_form(f, gb, order)

        def unpack(self, key):
            raise AssertionError("exponent tuple built in the reduction loop")

        monkeypatch.setattr(MonomialOrder, "exps", unpack)
        got = groebner._normal_form_dict(groebner._to_dict(f, order), basis)
        monkeypatch.undo()
        assert got and groebner._from_dict(got, ring, order) == expected


def test_elimination_order_blocks():
    order = MonomialOrder(3, drop=(0,))
    # any monomial with the dropped variable dominates any without
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert order.exps(order.key((2, 3, 1))) == (2, 3, 1)


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
    path caches its engine-made basis, whose mu gives the profile, so
    neither the profile nor the Hilbert data run the engine again."""
    import theta_loci.groebner as groebner
    from theta_loci.groebner import (MonomialOrder, _drop_last, _extend_ring,
                                     _lift)
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

    def counted(*args):
        calls.append(len(args[0]))
        return engine(*args)

    def counted_spoly(*args):
        pairs.append(args[1:])
        return spoly(*args)

    monkeypatch.setattr(groebner, "_buchberger_dicts", counted)
    monkeypatch.setattr(groebner, "_spoly", counted_spoly)
    fast = saturate(raw, z9)
    # the engine's work counts pin its algorithm: basis of raw, then of the
    # divided set
    assert (len(calls), len(pairs)) == (2, 379)
    calls.clear()
    assert groebner.generator_profile(fast) == {2: 15, 3: 3}
    assert groebner.hilbert(fast).degree == 12
    assert calls == []
    monkeypatch.undo()
    assert not any(_divisible_by_last(g) for g in fast.groebner_basis())

    big = _extend_ring(ring, "t")
    t = big.variable(big.nvars - 1)
    gens = [_lift(g, big) for g in raw.generators]
    gens.append(t * _lift(z9, big) - 1)
    elim = buchberger_reduced(Ideal(big, gens),
                              MonomialOrder(big.nvars, (big.nvars - 1,)))
    kept = [g for g in elim.elements
            if g.leading_monomial().exponents[big.nvars - 1] == 0]
    slow = Ideal(ring, [_drop_last(g, ring) for g in kept])
    assert slow.groebner_basis().elements == fast.groebner_basis().elements


def _to_sympy(f, sring):
    """f in the sympy polynomial ring sring, whose generators are f's variables."""
    return sring.from_dict({m.exponents: c for m, c in f.terms})


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
