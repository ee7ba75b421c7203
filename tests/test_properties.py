"""Property tests for packed monomial keys and polynomial arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from theta_loci.groebner import _MAXEXP, MonomialOrder
from theta_loci.poly import PolynomialRing

NVARS = 4
# sums of two exponents drawn here stay inside the packed range
exponents = st.tuples(*[st.integers(0, _MAXEXP // 2 - 1)] * NVARS)
small_exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
orders = st.sampled_from([(), (0,), (3,), (1, 2), (0, 2, 3)]).map(
    lambda drop: MonomialOrder(NVARS, drop))


def _sign(x):
    return (x > 0) - (x < 0)


def degrevlex_cmp(a, b):
    """Oracle on exponent tuples: -1, 0 or +1.

    Higher total degree wins; on ties the tuple with the smaller exponent
    on the last differing variable (scanning from the last variable) is larger.
    """
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return _sign(y - x)
    return 0


@settings(deadline=None)
@given(st.one_of(exponents, small_exponents), st.one_of(exponents, small_exponents))
def test_degrevlex_keys_order_like_degrevlex_cmp(a, b):
    order = MonomialOrder(NVARS)
    assert _sign(order.key(a) - order.key(b)) == degrevlex_cmp(a, b)


@settings(deadline=None)
@given(orders, exponents, exponents)
def test_keys_add_like_monomials_multiply(order, a, b):
    ab = tuple(x + y for x, y in zip(a, b))
    assert order.key(a) + order.key(b) == order.key(ab)
    assert order.exps(order.key(ab)) == ab


@settings(deadline=None)
@given(orders, st.one_of(exponents, small_exponents),
       st.one_of(exponents, small_exponents))
def test_plain_packing_divides_and_adds_like_monomials(order, a, b):
    pa, pb = order.plain(order.key(a)), order.plain(order.key(b))
    assert order.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert order.plain(order.key(a) + order.key(b)) == pa + pb


@st.composite
def polynomials(draw, count):
    """A ring in 1-5 variables over a small prime, and count polynomials in it."""
    nvars = draw(st.integers(1, 5))
    ring = PolynomialRing(prime=draw(st.sampled_from([2, 7, 101])), nvars=nvars)
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.integers(0, ring.prime - 1)
    return ring, [ring.from_exponent_dict(draw(st.dictionaries(exps, coeffs,
                                                               max_size=6)))
                  for _ in range(count)]


@settings(deadline=None)
@given(polynomials(3))
def test_ring_axioms_structurally(ring_polys):
    ring, (f, g, h) = ring_polys
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ring.zero() == 0


@settings(deadline=None)
@given(polynomials(2), st.data())
def test_evaluation_homomorphism(ring_polys, data):
    ring, (f, g) = ring_polys
    p = ring.prime
    point = data.draw(st.lists(st.integers(0, p - 1), min_size=ring.nvars,
                               max_size=ring.nvars))
    assert (f * g).evaluate(point) == (f.evaluate(point) * g.evaluate(point)) % p
    assert (f + g).evaluate(point) == (f.evaluate(point) + g.evaluate(point)) % p


@settings(deadline=None)
@given(polynomials(1), st.randoms(use_true_random=False))
def test_canonical_form_unique(ring_polys, rng):
    ring, (f,) = ring_polys
    terms = list(f.terms)
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        assert degrevlex_cmp(e1, e2) > 0
    assert all(len(e) == ring.nvars for e, _ in terms)
    assert all(1 <= c < ring.prime for _, c in terms)
    assert ring.from_exponent_dict(dict(f.terms)) == f
    assert ring.parse(str(f)) == f
    # the same terms summed in another order give an equal, equally hashed f
    rng.shuffle(terms)
    g = sum((ring.monomial(e, c) for e, c in terms), ring.zero())
    assert g == f and hash(g) == hash(f)
