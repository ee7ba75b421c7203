"""Hilbert numerators, dimensions, degrees, Hilbert polynomials."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import theta_loci.pipeline as pipeline
from theta_loci.errors import UsageError
from theta_loci.complexes import buchsbaum_eisenbud_numerator_terms
from theta_loci.groebner import (Ideal, MonomialOrder, UnivariatePolynomial,
                                 _monomial_numerator, hilbert,
                                 resolution_hilbert_numerator)
from theta_loci.multilinear import c5w25_matrix, pfaffian_ideal, random_section
from theta_loci.groebner import saturate
from theta_loci.poly import _BITS, _MAXEXP, PolynomialRing, _unrev

from oracles import monomial_numerator_by_taylor, monomial_numerator_by_tuples
from resolutions import (goto_jozefiak_tachibana_numerator_terms,
                         jozefiak_pragacz_numerator_terms,
                         koszul_numerator_terms)


def test_zero_ideal():
    ring = PolynomialRing(prime=101, nvars=2)
    hd = hilbert(Ideal(ring, []))
    assert hd.numerator == UnivariatePolynomial((1,))
    assert hd.krull_dimension == 2
    assert hd.degree == 1
    assert hd.hilbert_polynomial == UnivariatePolynomial((Fraction(1), Fraction(1)))


def test_three_quadrics():
    ring = PolynomialRing(prime=101, variables=("x", "y"))
    x, y = ring.gens()
    hd = hilbert(Ideal(ring, [x * x, x * y, y * y]))
    assert hd.numerator == UnivariatePolynomial((1, 0, -3, 2))
    assert hd.krull_dimension == 0
    assert hd.degree == 3


def test_unit_ideal_dimension_minus_one():
    ring = PolynomialRing(prime=101, nvars=2)
    hd = hilbert(Ideal(ring, [ring.one()]))
    assert hd.krull_dimension == -1
    assert hd.numerator.is_zero()


def test_inhomogeneous_rejected():
    ring = PolynomialRing(prime=101, nvars=2)
    x, y = ring.gens()
    with pytest.raises(UsageError, match="generator 1"):
        hilbert(Ideal(ring, [x * x, y - 1]))


def test_hilbert_function_matches_series():
    ring = PolynomialRing(prime=101, variables=("x", "y", "z"))
    x, y, z = ring.gens()
    hd = hilbert(Ideal(ring, [x * y, y * z]))
    # brute-force standard monomial count per degree
    leads = [(1, 1, 0), (0, 1, 1)]
    for d in range(7):
        count = 0
        for a in range(d + 1):
            for b in range(d + 1 - a):
                c = d - a - b
                e = (a, b, c)
                if not any(all(e[i] >= l[i] for i in range(3)) for l in leads):
                    count += 1
        assert hd.hilbert_function(d) == count


def test_hilbert_function_brute_force_random_ideals():
    """Standard monomial counts agree with the numerator series for random
    homogeneous ideals (independent oracle for the pivot recursion)."""
    rng = random.Random(41)
    ring = PolynomialRing(prime=101, nvars=3)
    for _ in range(6):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            deg = rng.randrange(1, 4)
            d = {}
            for _ in range(3):
                exps = [0, 0, 0]
                for _ in range(deg):
                    exps[rng.randrange(3)] += 1
                d[tuple(exps)] = rng.randrange(1, 101)
            gens.append(ring.from_exponent_dict(d))
        ideal = Ideal(ring, gens)
        hd = hilbert(ideal)
        leads = [g.terms[0][0] for g in ideal.groebner_basis().elements]
        for d in range(8):
            count = 0
            for a in range(d + 1):
                for b in range(d + 1 - a):
                    e = (a, b, d - a - b)
                    if not any(all(e[i] >= l[i] for i in range(3))
                               for l in leads):
                        count += 1
            assert hd.hilbert_function(d) == count


def test_generic_quintic_section_hilbert():
    """Saturated 4x4-Pfaffian ideal of a generic pencil: affine cone over a
    degree-5 curve with HP(t) = 5t and the codimension-3 numerator."""
    section = random_section("c5w25", 123, 101)
    M = c5w25_matrix(section)
    sat = saturate(pfaffian_ideal(M, 4), M.ring.variable(4))
    hd = hilbert(sat)
    assert hd.krull_dimension == 2
    assert hd.degree == 5
    assert hd.hilbert_polynomial == UnivariatePolynomial((0, Fraction(5)))
    assert hd.numerator == UnivariatePolynomial((1, 0, -5, 5, 0, -1))


def test_hilbert_order_independent():
    rng = random.Random(9)
    ring = PolynomialRing(prime=101, nvars=3)
    x, y, z = ring.gens()
    gens = [x * x - y * z, x * y - z * z, y * y * y - z * z * x]
    base = hilbert(Ideal(ring, gens))
    for _ in range(5):
        rng.shuffle(gens)
        again = hilbert(Ideal(ring, gens))
        assert again == base


def test_hilbert_data_invariants():
    """numerator(1) = 0 unless dim = nvars; degree = lead(HP) * (dim-1)!."""
    from math import factorial

    ring = PolynomialRing(prime=101, variables=("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    cases = [
        Ideal(ring, []),
        Ideal(ring, [x * y]),
        Ideal(ring, [x * x, y * y]),
        Ideal(ring, [x * y - z * w]),
        Ideal(ring, [x, y, z, w]),
    ]
    for ideal in cases:
        hd = hilbert(ideal)
        if hd.krull_dimension == ring.nvars:
            assert hd.numerator(1) != 0
        else:
            assert hd.numerator(1) == 0
        if hd.krull_dimension >= 1:
            lead = hd.hilbert_polynomial.coeffs[-1]
            assert lead * factorial(hd.krull_dimension - 1) == hd.degree


def test_resolution_numerators():
    assert resolution_hilbert_numerator(koszul_numerator_terms(3)) == \
        UnivariatePolynomial((1, -3, 3, -1))
    assert resolution_hilbert_numerator(buchsbaum_eisenbud_numerator_terms(2)) == \
        UnivariatePolynomial((1, 0, -5, 5, 0, -1))
    assert resolution_hilbert_numerator(goto_jozefiak_tachibana_numerator_terms(3)) == \
        UnivariatePolynomial((1, 0, -6, 8, -3))


def test_jp_numerator_sums_to_zero():
    for n in (3, 4):
        num = resolution_hilbert_numerator(jozefiak_pragacz_numerator_terms(n))
        assert num(1) == 0  # proper ideal of positive codimension
        assert num.coeffs[0] == 1


def test_specialization_check_eagon_northcott():
    """Generic perfection: specialized numerator equals the generic one and
    codimension is preserved (both must hold together)."""
    predicted = resolution_hilbert_numerator(buchsbaum_eisenbud_numerator_terms(2))
    for seed in (11, 12):
        section = random_section("c5w25", seed, 101)
        M = c5w25_matrix(section)
        sat = saturate(pfaffian_ideal(M, 4), M.ring.variable(4))
        hd = hilbert(sat)
        assert hd.numerator == predicted
        assert 5 - hd.krull_dimension == 3


def _plain(exps) -> int:
    return sum(e << (_BITS * i) for i, e in enumerate(exps))


@st.composite
def _monomial_ideals(draw):
    """(nvars, exponent tuples) with 1-12 variables and small exponents, and
    at most two exponents _MAXEXP - 1 - k, k <= 2, next to their slot's
    guard bit, both in one variable.  They make the numerators about 2^15
    terms long, so the draws keep them few."""
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         min_size=1, max_size=5))
    var = draw(st.integers(0, n - 1))
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=2, unique=True)):
        gens[i][var] = _MAXEXP - 1 - draw(st.integers(0, 2))
    return n, [tuple(g) for g in gens]


@settings(max_examples=40, deadline=None)
@given(_monomial_ideals())
@example((12, [(_MAXEXP - 1,) * 12]))
@example((2, [(_MAXEXP - 1, 0), (1, 1)]))
@example((3, [(0, _MAXEXP - 1, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]))
@example((2, [(_MAXEXP - 1, 1), (1, _MAXEXP - 1)]))
@example((3, [(_MAXEXP - 1, 1, 0), (_MAXEXP - 3, 0, 1)]))
def test_packed_numerator_matches_the_tuple_recursion(ideal):
    """The recursion on plain packings, with SWAR minimalization, gives the
    Taylor complex's numerator, and the reference recursion's on exponent
    tuples unless two large exponents share a variable: that recursion then
    goes one level per unit of the smaller, past Python's recursion limit."""
    n, gens = ideal
    packed = _monomial_numerator(frozenset(map(_plain, gens)), MonomialOrder(n), {})
    assert packed == monomial_numerator_by_taylor(gens)
    if all(sum(g[v] >= _MAXEXP - 3 for g in gens) <= 1 for v in range(n)):
        assert packed == monomial_numerator_by_tuples(gens, n)


@pytest.mark.parametrize("case, seed", [("w39", 1), ("c3c3c3", 1)])
def test_packed_numerator_on_pipeline_leads(case, seed):
    """On the leads of every record of a pipeline run, the packed recursion
    and the tuple recursion give the same numerator."""
    ideals = []
    record = pipeline._record

    def spy(name, ideal, hd, **kw):
        ideals.append(ideal)
        return record(name, ideal, hd, **kw)

    with mock.patch.object(pipeline, "_record", side_effect=spy):
        pipeline.run_case(case, prime=32003, seed=seed)
    assert len(ideals) == (2 if case == "w39" else 4)
    for ideal in ideals:
        n = ideal.ring.nvars
        leads = [g.packed[0][0] for g in ideal.groebner_basis().elements]
        packed = _monomial_numerator(frozenset(_unrev(k, n) for k in leads),
                                     MonomialOrder(n), {})
        assert packed == monomial_numerator_by_tuples([ideal.ring._exps(k) for k in leads], n)
        assert packed == hilbert(ideal).numerator
