"""Property tests for packed monomial keys and plain packings, polynomial
arithmetic and the Groebner engine's Hilbert-driven pruning, dense rows,
saturation by an ideal and the intersection's containment shortcut."""

from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import theta_loci.groebner as groebner
from theta_loci.errors import UsageError
from theta_loci.groebner import (_MAXEXP, Ideal, MonomialOrder,
                                 _buchberger_dicts, _saturate_variable,
                                 _to_dict, generator_profile,
                                 ideal_intersection, saturate,
                                 saturate_by_ideal)
from theta_loci.poly import PolynomialRing, _slot_sum

from oracles import (degrevlex_cmp, intersection_by_elimination, order_key,
                     saturate_by_iterated_quotient, unpack_row)

NVARS = 4
# sums of two exponents drawn here stay inside the packed range
exponents = st.tuples(*[st.integers(0, _MAXEXP // 2 - 1)] * NVARS)
small_exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
orders = st.one_of(
    st.sampled_from([(), (0,), (3,), (1, 2), (0, 2, 3)]).map(
        lambda drop: MonomialOrder(NVARS, drop)),
    st.sampled_from([0, 1]).map(lambda i: MonomialOrder(NVARS, last=i)))


def _sign(x):
    return (x > 0) - (x < 0)


@settings(deadline=None)
@given(st.one_of(exponents, small_exponents), st.one_of(exponents, small_exponents))
def test_degrevlex_keys_order_like_degrevlex_cmp(a, b):
    order = MonomialOrder(NVARS)
    assert _sign(order_key(order, a) - order_key(order, b)) == degrevlex_cmp(a, b)


@settings(deadline=None)
@given(st.integers(0, NVARS - 1), st.one_of(exponents, small_exponents),
       st.one_of(exponents, small_exponents))
def test_last_variable_keys_order_like_degrevlex_cmp(i, a, b):
    """MonomialOrder(n, last=i) is degrevlex with variable i moved last."""
    def i_last(e):
        return e[:i] + e[i + 1:] + (e[i],)

    order = MonomialOrder(NVARS, last=i)
    assert (_sign(order_key(order, a) - order_key(order, b))
            == degrevlex_cmp(i_last(a), i_last(b)))
    # the ring's own keys convert to the order's and back without unpacking
    ring_key = order_key(MonomialOrder(NVARS), a)
    assert order.moved(ring_key) == order_key(order, a)
    assert order.moved(order_key(order, a), back=True) == ring_key


@settings(deadline=None)
@given(orders, exponents, exponents)
def test_keys_add_like_monomials_multiply(order, a, b):
    ab = tuple(x + y for x, y in zip(a, b))
    assert order_key(order, a) + order_key(order, b) == order_key(order, ab)
    assert order.plain(order_key(order, ab)) == _packing(order, ab)


@settings(deadline=None)
@given(orders, st.one_of(exponents, small_exponents),
       st.one_of(exponents, small_exponents))
def test_plain_packing_divides_and_adds_like_monomials(order, a, b):
    pa, pb = order.plain(order_key(order, a)), order.plain(order_key(order, b))
    assert order.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert order.plain(order_key(order, a) + order_key(order, b)) == pa + pb


def _packing(order, e):
    """The plain packing of exponents e: slot i holds variable i."""
    return sum(x << (16 * i) for i, x in enumerate(e))


@st.composite
def orders_and_exponent_pairs(draw):
    """An order on 1-12 variables (native, some variable last, or a block
    order with any nonempty drop set) and two exponent tuples below _MAXEXP."""
    n = draw(st.integers(1, 12))
    drop = draw(st.sets(st.integers(0, n - 1), min_size=1))
    order = draw(st.sampled_from([MonomialOrder(n), MonomialOrder(n, tuple(drop)),
                                  MonomialOrder(n, last=min(drop))]))
    exps = st.tuples(*[st.one_of(st.integers(0, 3),
                                 st.integers(0, _MAXEXP - 1))] * n)
    return order, draw(exps), draw(exps)


TOP = (_MAXEXP - 1,) * 12  # slot sums far past 2^16


@settings(deadline=None)
@example((MonomialOrder(12, (0, 2)), TOP, TOP[:11] + (0,)))
@example((MonomialOrder(12, last=3), TOP, (0,) * 12))
@example((MonomialOrder(4, (0, 2)), (5, 0, 7, 1), (2, 3, 7, 0)))
@given(orders_and_exponent_pairs())
def test_lcm_and_key_of_plain_packings(case):
    """The slot-wise lcm of two plain packings is the packing of the
    exponent lcm, the slot sum is the degree, unplain inverts plain, and the
    keys order monomials block by block, each block by degrevlex."""
    order, a, b = case
    lcm = tuple(map(max, a, b))
    pa, pb = _packing(order, a), _packing(order, b)
    assert order.lcm(pa, pb) == order.lcm(pb, pa) == _packing(order, lcm)
    assert _slot_sum(pa, order.nvars) == sum(a)
    for e, pk in ((a, pa), (lcm, order.lcm(pa, pb))):
        assert order.plain(order_key(order, e)) == pk
        assert order.unplain(pk) == order_key(order, e)
    ring_last = [i for i in range(order.nvars) if i != order.last] + [order.last]
    blocks = ([order.drop, [i for i in ring_last if i not in order.drop]]
              if order.drop else [ring_last])
    want = 0
    for blk in blocks:
        want = want or degrevlex_cmp(tuple(a[i] for i in blk), tuple(b[i] for i in blk))
    assert _sign(order_key(order, a) - order_key(order, b)) == want


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


@st.composite
def homogeneous_ideals(draw, primes=(2, 3, 7, 31)):
    """Homogeneous generators of degrees 1-3 in 3-4 variables over one of primes."""
    nvars = draw(st.integers(3, 4))
    ring = PolynomialRing(prime=draw(st.sampled_from(primes)), nvars=nvars)
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        deg = draw(st.integers(1, 3))
        # a monomial of degree deg: the multiset of its deg variables
        monomials = st.lists(st.integers(0, nvars - 1), min_size=deg,
                             max_size=deg).map(
            lambda vs: tuple(vs.count(i) for i in range(nvars)))
        gens.append(ring.from_exponent_dict(draw(st.dictionaries(
            monomials, st.integers(1, ring.prime - 1), min_size=1, max_size=5))))
    return ring, gens


@settings(deadline=None)
@given(homogeneous_ideals())
def test_hilbert_pruning_keeps_basis_and_mu(ring_gens):
    """The quota run over the plain run's reduced basis, which reads its
    leads off that basis, returns that basis and the plain run's mu."""
    ring, gens = ring_gens
    order = MonomialOrder(ring.nvars)
    dicts = [_to_dict(g, order) for g in gens if not g.is_zero()]
    plain = _buchberger_dicts(dicts, ring.prime, order)
    assert _buchberger_dicts(plain[0], ring.prime, order, quota=True) == plain


@settings(deadline=None)
@given(homogeneous_ideals())
def test_saturation_by_a_variable_divides_during_the_run(ring_gens):
    """I : z_i^infty for each variable z_i: the engine run that divides as it
    goes, on a fresh ideal and on one with a basis under degrevlex with z_i
    last cached, gives the same basis and generator profile as the
    auxiliary-variable method through z_i^2."""
    ring, gens = ring_gens
    n = ring.nvars
    for i, z in enumerate(ring.gens()):
        fresh = _saturate_variable(Ideal(ring, gens), i)
        cached = Ideal(ring, gens)
        cached.groebner_basis(MonomialOrder(n, last=i))
        divided = _saturate_variable(cached, i)
        slow = saturate(Ideal(ring, gens), z * z)
        basis = slow.groebner_basis().elements
        assert fresh.groebner_basis().elements == basis
        assert divided.groebner_basis().elements == basis
        assert generator_profile(fresh) == generator_profile(divided) \
            == generator_profile(slow)


@settings(deadline=None)
@given(homogeneous_ideals(), st.integers(0, 3), st.integers(1, 3),
       st.integers(1, 3), st.booleans())
def test_runs_that_reach_the_unit_return_it(ring_gens, i, c, k, every_variable):
    """A run with a nonzero constant among its inputs returns [{0: 1}], and so
    does the dividing run by z_i of an ideal that holds a power of z_i, alone
    or beside a power of every other variable.  The dividing run's
    saturation equals the auxiliary-variable method's."""
    ring, gens = ring_gens
    n, p = ring.nvars, ring.prime
    i, c = i % n, c % p or 1
    order = MonomialOrder(n, last=i)
    dicts = [_to_dict(g, order) for g in gens if not g.is_zero()]
    assert _buchberger_dicts(dicts + [{0: c}], p, order)[0] == [{0: 1}]

    zs = ring.gens() if every_variable else [ring.variable(i)]
    powers = gens + [z ** k for z in zs]
    out, mu = _buchberger_dicts([_to_dict(g, order) for g in powers], p, order,
                                divide_last=True)
    assert (out, mu) == ([{0: 1}], None)
    fast = _saturate_variable(Ideal(ring, powers), i)
    slow = saturate(Ideal(ring, powers), ring.variable(i) ** 2)
    assert fast.groebner_basis().elements == slow.groebner_basis().elements \
        == (ring.one(),)
    assert generator_profile(fast) == generator_profile(slow) == {}


def test_quota_run_refuses_inputs_that_are_no_reduced_basis():
    """A quota run over generators that are no reduced basis finds a lead
    that is not among them, and says so, rather than count a wrong mu: the
    S-pair of the quadrics has lcm x^2 y above the unfound z^3 and leads at
    y^2 z, which no input has."""
    ring = PolynomialRing(prime=101, variables=("x", "y", "z"))
    x, y, z = ring.gens()
    order = MonomialOrder(3)
    gens = [x * x - y * z, x * y - z * z, z ** 3]
    with pytest.raises(UsageError, match="reduced basis"):
        _buchberger_dicts([_to_dict(g, order) for g in gens], ring.prime, order,
                          quota=True)


def _cached(ring, gens, i, by_saturation):
    """The ideal of gens saturated by z_i, or the ideal of gens itself; either
    way with its basis under degrevlex with z_i last cached."""
    if by_saturation:
        return _saturate_variable(Ideal(ring, gens), i)
    out = Ideal(ring, gens)
    out.groebner_basis(MonomialOrder(ring.nvars, last=i))
    return out


R7 = PolynomialRing(prime=7, variables=("x", "y", "z"))


@settings(deadline=None)
@example((R7, list(R7.gens()[:2])), 0, 2, False)
@example((R7, list(R7.gens()[:2])), 0, 0, True)
@given(homogeneous_ideals(), st.integers(0, 4), st.integers(0, 3), st.booleans())
def test_intersection_reads_containment_from_cached_bases(ring_gens, split, i,
                                                          by_saturation):
    """For a <= b, with only b's basis under degrevlex with z_i last cached
    (by a saturation or by groebner_basis), ideal_intersection(a, b) and
    ideal_intersection(b, a) start no engine run and give the t-elimination's
    ideal.  A pair where neither contains the other still takes the
    elimination, with the same answer."""
    ring, gens = ring_gens
    split, i = 1 + split % len(gens), i % ring.nvars
    a, extra = gens[:split], gens[split:]
    orders = []
    engine = groebner._buchberger_dicts

    def counted(inputs, p, order, **kwargs):
        orders.append(order.descriptor)
        return engine(inputs, p, order, **kwargs)

    b = _cached(ring, a + extra, i, by_saturation)
    want = intersection_by_elimination(Ideal(ring, a), b).groebner_basis().elements
    for first, second in ((Ideal(ring, a), b), (b, Ideal(ring, a))):
        with mock.patch.object(groebner, "_buchberger_dicts", counted):
            got = ideal_intersection(first, second)
        assert orders == []
        assert got.groebner_basis().elements == want

    if not extra:
        return
    c = _cached(ring, extra, i, by_saturation)
    meet = intersection_by_elimination(Ideal(ring, a), c).groebner_basis().elements
    with mock.patch.object(groebner, "_buchberger_dicts", counted):
        got = ideal_intersection(Ideal(ring, a), c)
    assert got.groebner_basis().elements == meet
    if meet not in (Ideal(ring, a).groebner_basis().elements,
                    c.groebner_basis().elements):
        assert any(d.startswith("eliminate") for d in orders)


DENSE_PRIMES = (2, 101, 32003, 299999999999999999999987)


def _full_forms(p):
    """In 3 variables over F_p, the quadric and the cubic with coefficient
    p - 1 at every monomial of their degree: rows that start with every
    slot at its largest value."""
    ring = PolynomialRing(prime=p, nvars=3)
    return ring, [ring.from_exponent_dict({
        tuple(c.count(i) for i in range(3)): p - 1
        for c in combinations_with_replacement(range(3), d)}) for d in (2, 3)]


def _full_tails(p):
    """In 3 variables over F_p, the quadrics with coefficient 1 at x^2 and at
    xy and p - 1 at every monomial below: monic elements whose S-pair
    starts the slots both tails reach at (p - 1) + (p - 1)^2."""
    ring = PolynomialRing(prime=p, nvars=3)
    monomials = sorted((tuple(c.count(i) for i in range(3))
                        for c in combinations_with_replacement(range(3), 2)),
                       key=lambda e: order_key(MonomialOrder(3), e))
    return ring, [ring.from_exponent_dict({
        e: 1 if e == lead else p - 1 for e in monomials[:monomials.index(lead) + 1]})
        for lead in ((2, 0, 0), (1, 1, 0))]


@settings(deadline=None)
@example(_full_forms(2))
@example(_full_forms(101))
@example(_full_forms(32003))
@example(_full_forms(299999999999999999999987))
@example(_full_tails(2))
@example(_full_tails(101))
@example(_full_tails(299999999999999999999987))
@given(homogeneous_ideals(primes=DENSE_PRIMES))
def test_dense_rows_reduce_like_the_sparse_loop(ring_gens):
    """Every normal form of a run over forms, in a plain, a dividing and a
    quota run under degrevlex with z_n or z_1 last, is the same reduced as a
    packed row as by the sparse loop, whatever its density.  A packed
    S-pair is unpacked for the sparse loop."""
    ring, gens = ring_gens
    seen = []

    def both(f, basis, d):
        assert d is not None  # every input is a form
        sparse = groebner._normal_form_dict(
            unpack_row(f, basis, d) if isinstance(f, int) else f, basis)
        assert groebner._normal_form_dense(f, basis, d) == sparse
        seen.append(d)
        return sparse

    for order in (MonomialOrder(ring.nvars), MonomialOrder(ring.nvars, last=0)):
        dicts = [_to_dict(g, order) for g in gens if not g.is_zero()]
        with mock.patch.object(groebner, "_reduce", both):
            basis, _ = _buchberger_dicts(dicts, ring.prime, order)
            _buchberger_dicts(basis, ring.prime, order, quota=True)
            _buchberger_dicts(dicts, ring.prime, order, divide_last=True)
    assert seen


reducer_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), small_exponents),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(st.just("find"), st.integers(0, 2)),
    st.tuples(st.just("rows"), st.integers(1, 3))), max_size=40)


@settings(deadline=None)
@example(MonomialOrder(NVARS), [(2, 1, 0, 0)],
         [("find", 0), ("add", (1, 1, 0, 0)), ("find", 0), ("add", (2, 0, 0, 0)),
          ("find", 0), ("kill", 0), ("find", 0), ("kill", 1), ("find", 0),
          ("add", (0, 1, 0, 0)), ("find", 0)])
@example(MonomialOrder(NVARS), [(1, 1, 0, 0)],
         [("rows", 2), ("add", (1, 1, 0, 0)), ("rows", 2), ("add", (1, 0, 0, 0)),
          ("rows", 2), ("kill", 0), ("rows", 2), ("kill", 1), ("rows", 2)])
@given(orders, st.lists(small_exponents, min_size=1, max_size=3), reducer_ops)
def test_reducer_memo_answers_like_a_scan_of_the_live_leads(order, lookups, ops):
    """Whatever adds, kills and lookups come before, find_reducer returns
    the first live element whose lead divides the monomial, or -1, also
    for a monomial whose memoized reducer has since been killed.  The row
    loop's column cache agrees with the same scan after every step: a
    reducer it still holds as valid is the first live divisor, and a column
    it holds as having none has none, also after an add gives that column a
    reducer; reducing the sum of all monomials of a degree by the monomial
    leads leaves exactly the monomials with no live divisor."""
    basis = groebner._Basis(order, 101)
    leads: list[tuple[int, ...]] = []

    def scan(e):
        return next((i for i, lead in enumerate(leads) if basis.alive[i]
                     and all(x <= y for x, y in zip(lead, e))), -1)

    def monomials(d):
        return [tuple(c.count(i) for i in range(NVARS))
                for c in combinations_with_replacement(range(NVARS), d)]

    for op, arg in ops:
        if op == "add":
            basis.add({order_key(order, arg): 1})
            leads.append(arg)
        elif op == "kill" and leads:
            basis.kill(arg % len(leads))
        elif op == "find":
            e = lookups[arg % len(lookups)]
            assert basis.find_reducer(order.plain(order_key(order, e))) == scan(e)
        elif op == "rows":
            got = groebner._normal_form_dense(
                {order_key(order, e): 1 for e in monomials(arg)}, basis, arg)
            assert got == {order_key(order, e): 1 for e in monomials(arg) if scan(e) < 0}
        none = -1 - len(leads)
        for d, cols in basis.columns.items():
            col, reducers = cols[2], cols[4]
            for e in monomials(d):
                i = reducers[col[order_key(order, e)]]
                if (i >= 0 and basis.alive[i]) or i == none:  # held as valid
                    assert i == (scan(e) if scan(e) >= 0 else none)


R3 = PolynomialRing(prime=101, variables=("x", "y", "z"))
X, Y, Z = R3.gens()
# exponents of the monomials of degree 0, 1 and 2 in x, y, z
MONOMIALS = {d: [tuple(c.count(i) for i in range(3))
                  for c in combinations_with_replacement(range(3), d)]
             for d in range(3)}


@st.composite
def small_ideals(draw):
    """1-3 generators in x, y, z over F_101: all forms of degree 1-2, or all
    polynomials of degree at most 2."""
    homogeneous = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if homogeneous:
            monomials = MONOMIALS[draw(st.integers(1, 2))]
        else:
            monomials = MONOMIALS[0] + MONOMIALS[1] + MONOMIALS[2]
        gens.append(R3.from_exponent_dict(draw(st.dictionaries(
            st.sampled_from(monomials), st.integers(1, 100),
            min_size=1, max_size=4))))
    return gens


colon_generators = st.one_of(
    st.sampled_from([X, Y, Z]),
    st.tuples(*[st.integers(0, 100)] * 3).filter(any).map(
        lambda c: c[0] * X + c[1] * Y + c[2] * Z),
    st.sampled_from([X * Y, Y * Z, X * Z, X * X]),
    st.integers(1, 100).map(R3.constant))


@settings(deadline=None)
@example([Z * X, Z * (Y + Z)], [X, Y + Z], False)
@example([(X + Y) * Z * Z, (X + Y) * (X + Y) * Y], [X + Y], False)
@example([X * Y, X * Z], [Y, Z], True)
@example([X * Y, X * Z], [Y, X], True)
@example([X, Y * Y], [Z, Y + Z], True)
@given(small_ideals(), st.lists(colon_generators, min_size=1, max_size=3),
       st.booleans())
def test_saturation_by_an_ideal_is_the_iterated_quotient(gens, colon, cached):
    """I : J^infty as the intersection of the per-generator saturations
    equals the first stable I : J^k, for homogeneous and inhomogeneous I and
    J generated by variables, linear forms, products and constants; with
    cached, I carries its degrevlex basis, so that a generator g with
    g*S <= I, S the intersection so far, can be skipped."""
    ideal = Ideal(R3, gens)
    if cached:
        ideal.groebner_basis()
    got = saturate_by_ideal(ideal, Ideal(R3, colon))
    want = saturate_by_iterated_quotient(Ideal(R3, gens), Ideal(R3, colon))
    assert got.groebner_basis().elements == want.groebner_basis().elements


@pytest.mark.parametrize("gens, colon, cached, runs, want", [
    # z*(x) <= I: z is skipped, and S = (x) is not I
    ([X * Y, X * Z], [Y, Z], True, (1, 1), [X]),
    # without a basis on I the skip is never tested, and z takes its run
    ([X * Y, X * Z], [Y, Z], False, (2, 2), [X]),
    # x*x is not in I: x takes its run, and the t-elimination meets
    # (x) with (y, z) to give I back
    ([X * Y, X * Z], [Y, X], True, (2, 3), [X * Y, X * Z]),
    # I is saturated; z's run divides nothing and leaves its basis on I,
    # which shows (y + z)*I <= I, and that basis is the answer's
    ([X, Y * Y], [Z, Y + Z], False, (1, 1), [X, Y * Y]),
])
def test_saturation_by_an_ideal_skips_a_generator_once_g_s_lies_in_i(
        gens, colon, cached, runs, want):
    """saturate_by_ideal skips a generator g when g*S <= I, as read from a
    basis I carries.  runs is (dividing runs, all engine runs): one dividing
    run per variable that is not skipped, and the rest intersections.  The
    answer is returned as built, so a degrevlex run it still needs happens
    when got.groebner_basis() is read, after the count."""
    ideal = Ideal(R3, gens)
    if cached:
        ideal.groebner_basis()
    dividing = []
    engine = groebner._buchberger_dicts

    def counted(inputs, p, order, **kwargs):
        dividing.append(kwargs.get("divide_last", False))
        return engine(inputs, p, order, **kwargs)

    with mock.patch.object(groebner, "_buchberger_dicts", counted):
        got = saturate_by_ideal(ideal, Ideal(R3, colon))
    assert (sum(dividing), len(dividing)) == runs
    assert got.groebner_basis().elements == Ideal(R3, want).groebner_basis().elements
