"""Property tests for the packed monomial keys of the Groebner engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from theta_loci.groebner import _MAXEXP, MonomialOrder
from theta_loci.poly import Monomial, degrevlex_cmp

NVARS = 4
# sums of two exponents drawn here stay inside the packed range
exponents = st.tuples(*[st.integers(0, _MAXEXP // 2 - 1)] * NVARS)
small_exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
orders = st.sampled_from([(), (0,), (3,), (1, 2), (0, 2, 3)]).map(
    lambda drop: MonomialOrder(NVARS, drop))


def _sign(x):
    return (x > 0) - (x < 0)


@settings(deadline=None)
@given(st.one_of(exponents, small_exponents), st.one_of(exponents, small_exponents))
def test_degrevlex_keys_order_like_degrevlex_cmp(a, b):
    order = MonomialOrder(NVARS)
    assert _sign(order.key(a) - order.key(b)) == \
        degrevlex_cmp(Monomial(a), Monomial(b))


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
