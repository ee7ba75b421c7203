"""The engine against sympy where it runs its own paths: dividing runs and
the packed-row loop, at primes from 101 to 2^61 - 1.

saturate(I, z_i) of a homogeneous I takes one engine run that divides new
elements by z_i; sympy's answer is the contraction of a lex basis of
I + (t*z_i - 1) with t first.  Reduced degrevlex bases of dense forms send
nearly every normal form through _normal_form_dense; sympy's grevlex basis
is the reference.  Bases under MonomialOrder(n, last=i) are held against
sympy's grevlex on the variables permuted so that z_i comes last.  Both
sides compare reduced, monic bases.
"""

import random
from itertools import product

import pytest
import sympy as sp
from sympy.polys.groebnertools import groebner as ring_groebner

import theta_loci.groebner as groebner
from theta_loci.groebner import Ideal, MonomialOrder, buchberger_reduced, saturate
from theta_loci.poly import PolynomialRing

PRIMES = [101, 32003, 2 ** 31 - 1, 2 ** 61 - 1]


def _dense_form(ring, degree, rng):
    """Every monomial of the degree, with a random nonzero coefficient."""
    return ring.from_exponent_dict(
        {e: rng.randrange(1, ring.prime)
         for e in product(range(degree + 1), repeat=ring.nvars) if sum(e) == degree})


def _grevlex(n, p):
    return sp.ring(",".join(f"x{k}" for k in range(n)), sp.FF(p), "grevlex")[0]


def _ours(basis, sring):
    return {sring.from_dict(dict(g.terms)) for g in basis.elements}


def _sympy_saturation(gens, i, p):
    """Reduced grevlex basis of I : z_i^infty, from a lex basis of
    I + (t*z_i - 1) in the variables t, the z_k for k != i, then z_i."""
    n = gens[0].ring.nvars
    perm = [k for k in range(n) if k != i] + [i]
    lex = sp.ring(",".join(["t"] + [f"x{k}" for k in perm]), sp.FF(p), "lex")[0]

    def to_lex(e, t=0):
        return (t,) + tuple(e[k] for k in perm)

    def from_lex(e):
        out = [0] * n
        for pos, k in enumerate(perm):
            out[k] = e[pos + 1]
        return tuple(out)

    inputs = [lex.from_dict({to_lex(e): c for e, c in g.terms}) for g in gens]
    z_i = tuple(int(k == i) for k in range(n))
    inputs.append(lex.from_dict({to_lex(z_i, 1): 1, (0,) * (n + 1): p - 1}))
    grevlex = _grevlex(n, p)
    free = [grevlex.from_dict({from_lex(e): c for e, c in g.items()})
            for g in ring_groebner(inputs, lex) if all(e[0] == 0 for e in g.monoms())]
    return set(ring_groebner(free, grevlex))


@pytest.mark.parametrize("prime", PRIMES)
def test_saturation_by_a_variable_against_sympy(prime):
    """I = (z_i^2 * l_1, z_i * l_2, ..., z_i * l_{n-3}, q_1, q_2) with dense
    linear l and quadrics q: saturating by z_i strips V(z_i, q_1, q_2) and
    leaves the ideal of four points, whose basis starts with linear forms."""
    for n in (4, 5):
        ring = PolynomialRing(prime=prime, nvars=n)
        z = ring.gens()
        for i in range(n):
            rng = random.Random(prime + n + i)
            gens = ([z[i] ** (2 if k == 0 else 1) * _dense_form(ring, 1, rng)
                     for k in range(n - 3)]
                    + [_dense_form(ring, 2, rng) for _ in range(2)])
            basis = saturate(Ideal(ring, gens), z[i]).groebner_basis()
            assert min(g.degree for g in basis.elements) == 1
            assert _ours(basis, _grevlex(n, prime)) == _sympy_saturation(gens, i, prime)


@pytest.mark.parametrize("prime", PRIMES)
def test_dense_bases_against_sympy(prime, monkeypatch):
    """Reduced degrevlex bases of dense quadrics and cubics; the packed-row
    loop reduces at least one form of each."""
    rows = []
    dense = groebner._normal_form_dense

    def counted(*args):
        rows.append(1)
        return dense(*args)

    monkeypatch.setattr(groebner, "_normal_form_dense", counted)
    for n, degree, count in ((4, 2, 3), (5, 2, 4), (4, 3, 3)):
        rng = random.Random(prime * 7 + n * degree + count)
        ring = PolynomialRing(prime=prime, nvars=n)
        gens = [_dense_form(ring, degree, rng) for _ in range(count)]
        sring = _grevlex(n, prime)
        rows.clear()
        ours = _ours(buchberger_reduced(Ideal(ring, gens)), sring)
        assert rows
        assert ours == set(ring_groebner([sring.from_dict(dict(g.terms)) for g in gens],
                                         sring))


@pytest.mark.parametrize("prime", PRIMES)
def test_last_variable_orders_against_sympy(prime):
    """Reduced bases of dense quadrics under degrevlex with z_i last, for
    every i, against sympy's grevlex on the variables z_k (k != i), then z_i."""
    for n, count in ((4, 3), (5, 4)):
        rng = random.Random(prime * 11 + n + count)
        ring = PolynomialRing(prime=prime, nvars=n)
        gens = [_dense_form(ring, 2, rng) for _ in range(count)]
        sring = _grevlex(n, prime)
        for i in range(n):
            perm = [k for k in range(n) if k != i] + [i]

            def permuted(g):
                return sring.from_dict({tuple(e[k] for k in perm): c for e, c in g.terms})

            basis = buchberger_reduced(Ideal(ring, gens), MonomialOrder(n, last=i))
            assert {permuted(g) for g in basis.elements} == \
                set(ring_groebner([permuted(g) for g in gens], sring)), (n, i)
