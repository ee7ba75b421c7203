"""Groebner engine and derived ideal invariants.

Buchberger with the Gebauer-Moeller pair criteria and normal (minimal lcm
degree) selection.  Monomials are packed into single integers so that integer
comparison realizes the term order and integer addition realizes monomial
multiplication.  Divisibility is a SWAR check on the plain packing (one slot
per variable), which is computed from the key by arithmetic, so the reduction
loop never unpacks a term into exponents.  Coefficients of the working
polynomial are reduced mod p only when their term is popped.
Inputs join the pair queue by degree, so the run that builds a basis also
counts the minimal generators of a homogeneous ideal (GroebnerBasis.mu).

Saturation by a single polynomial uses the auxiliary-variable method
(adjoin t, add t*f - 1, eliminate t).  For a homogeneous ideal and a plain
variable there is a fast path: dividing each element of a degrevlex basis by
its largest power of the last variable gives a Groebner basis of the
saturation (Bayer-Stillman); the two paths agree and both are tested.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import UsageError
from .poly import Polynomial, PolynomialRing

_BITS = 16
_MASK = (1 << _BITS) - 1
_MAXEXP = 1 << (_BITS - 1)  # exponents must stay below this for SWAR guards


class MonomialOrder:
    """Degrevlex, or a block elimination order with a dominant drop block.

    key(): packed integer; larger key == larger monomial, key(ab) = key(a)+key(b).
    plain(key): plain packing for SWAR divisibility tests, derived from the key
    by arithmetic; one slot per variable, keep block below drop block, and
    plain(key(a) + key(b)) = plain(key(a)) + plain(key(b)).
    """

    def __init__(self, nvars: int, drop: tuple[int, ...] = ()):
        self.nvars = nvars
        self.drop = tuple(sorted(drop))
        self.keep = tuple(i for i in range(nvars) if i not in set(self.drop))
        self.descriptor = ("degrevlex" if not self.drop
                           else f"eliminate[{','.join(map(str, self.drop))}]")
        self._guard = 0
        for i in range(nvars):
            self._guard |= 1 << (_BITS * i + _BITS - 1)

    def _revkey(self, exps, positions) -> int:
        # deg * B^k - sum(e_i * B^slot), most significant slot = last variable
        deg = 0
        n = 0
        for slot, i in enumerate(positions):
            e = exps[i]
            if e >= _MAXEXP:
                raise UsageError("exponent too large for packed order")
            deg += e
            n += e << (_BITS * slot)
        return (deg << (_BITS * len(positions))) - n

    def key(self, exps) -> int:
        if not self.drop:
            return self._revkey(exps, range(self.nvars))
        kk = self._revkey(exps, self.keep)
        kd = self._revkey(exps, self.drop)
        return (kd << (_BITS * (len(self.keep) + 4))) + kk

    @staticmethod
    def _unrev(key: int, k: int) -> int:
        # inverse of _revkey: the degree is key / B^k rounded up
        deg = (key + (1 << (_BITS * k)) - 1) >> (_BITS * k)
        return (deg << (_BITS * k)) - key

    def plain(self, key: int) -> int:
        """Plain packing of a key; every exponent must stay below _MAXEXP.

        Keys formed by addition inside the engine carry exponents below
        2 * _MAXEXP; one at or above _MAXEXP would defeat the SWAR guard.
        """
        if not self.drop:
            pk = self._unrev(key, self.nvars)
        else:
            nk = len(self.keep)
            shift = _BITS * (nk + 4)
            pk = (self._unrev(key >> shift, len(self.drop)) << (_BITS * nk)) \
                + self._unrev(key & ((1 << shift) - 1), nk)
        if pk & self._guard:
            raise UsageError("exponent too large for packed order")
        return pk

    def exps(self, key: int) -> tuple[int, ...]:
        pk = self.plain(key)
        out = [0] * self.nvars
        for slot, i in enumerate(self.keep + self.drop):
            out[i] = (pk >> (_BITS * slot)) & _MASK
        return tuple(out)

    def divides(self, pk_small: int, pk_big: int) -> bool:
        return ((pk_big | self._guard) - pk_small) & self._guard == self._guard


# ---------------------------------------------------------------------------
# engine: polynomials as {order key: coeff} dicts, monic basis elements


class _Basis:
    """Reducer list with parallel arrays for the hot divisibility loop."""

    def __init__(self, order: MonomialOrder, p: int):
        self.order = order
        self.p = p
        self.lead_key: list[int] = []
        self.lead_pk: list[int] = []
        self.lead_exps: list[tuple[int, ...]] = []
        self.tail: list[list[tuple[int, int]]] = []   # without the (monic) lead
        self.alive: list[bool] = []

    def add(self, d: dict[int, int]) -> int:
        """Add a monic polynomial dict; returns its index."""
        k = max(d)
        self.lead_key.append(k)
        self.lead_pk.append(self.order.plain(k))
        self.lead_exps.append(self.order.exps(k))
        self.tail.append(sorted((kk, c) for kk, c in d.items() if kk != k))
        self.alive.append(True)
        return len(self.lead_key) - 1

    def find_reducer(self, pk: int) -> int:
        """Index of the first live element whose lead divides plain pk, or -1."""
        guard = self.order._guard
        big = pk | guard
        alive = self.alive
        for i, lpk in enumerate(self.lead_pk):
            if alive[i] and (big - lpk) & guard == guard:
                return i
        return -1


def _normal_form_dict(f: dict[int, int], basis: _Basis) -> dict[int, int]:
    """Remainder of f on division by the (monic) basis elements.

    Coefficients are reduced mod p only when their term is popped.  A term a
    reduction step makes lies below the popped term, so no key is pushed twice.
    """
    p = basis.p
    plain = basis.order.plain
    find_reducer = basis.find_reducer
    cur = dict(f)
    out: dict[int, int] = {}
    heap = [-k for k in cur]
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        c = cur.pop(k) % p
        if not c:
            continue
        i = find_reducer(plain(k))
        if i < 0:
            out[k] = c
            continue
        shift = k - basis.lead_key[i]
        for tk, tc in basis.tail[i]:
            nk = tk + shift
            prev = cur.get(nk)
            if prev is None:
                cur[nk] = -c * tc
                heapq.heappush(heap, -nk)
            else:
                cur[nk] = prev - c * tc
    return out


def _monic(d: dict[int, int], p: int) -> dict[int, int]:
    """d scaled so that its coefficient at the largest key is 1."""
    lc = d[max(d)]
    if lc == 1:
        return d
    inv = pow(lc, p - 2, p)
    return {k: (c * inv) % p for k, c in d.items()}


def _spoly(basis: _Basis, i: int, j: int, lcm_key: int) -> dict[int, int]:
    p = basis.p
    si = lcm_key - basis.lead_key[i]
    sj = lcm_key - basis.lead_key[j]
    d: dict[int, int] = {}
    for tk, tc in basis.tail[i]:
        d[tk + si] = tc
    for tk, tc in basis.tail[j]:
        k = tk + sj
        c = (d.get(k, 0) - tc) % p
        if c:
            d[k] = c
        elif k in d:
            del d[k]
    return d


def _lcm_key(order: MonomialOrder, e1, e2) -> int:
    return order.key(tuple(max(a, b) for a, b in zip(e1, e2)))


def _buchberger_dicts(inputs: list[dict[int, int]], p: int, order: MonomialOrder
                      ) -> tuple[list[dict[int, int]], dict[int, int]]:
    """Reduced Groebner basis of the given polynomial dicts, and mu.

    Inputs and S-pairs share one queue in degree order, the degree-d pairs
    before the degree-d inputs (Kreuzer-Robbiano, CCA2 4.6).  mu[d] counts
    the degree-d inputs left with a nonzero remainder; for homogeneous
    inputs that is the number of degree-d minimal generators.
    """
    basis = _Basis(order, p)
    pairs: list[tuple[int, int, int, int]] = []  # (lcm degree, lcm key, i, j)

    def update(d: dict[int, int]) -> None:
        # Gebauer-Moeller installation of the Buchberger criteria.
        t = basis.add(d)
        et = basis.lead_exps[t]
        kt = basis.lead_key[t]
        pkt = basis.lead_pk[t]
        # old pairs: keep (i,j) unless lm_t | lcm(i,j) strictly refines it
        kept = []
        for deg, lk, i, j in pairs:
            if not order.divides(pkt, order.plain(lk)):
                kept.append((deg, lk, i, j))
                continue
            if _lcm_key(order, basis.lead_exps[i], et) == lk or \
               _lcm_key(order, basis.lead_exps[j], et) == lk:
                kept.append((deg, lk, i, j))
        # new pairs, grouped by lcm and minimalized by divisibility
        groups: dict[int, list[int]] = {}
        for i in range(t):
            if not basis.alive[i]:
                continue
            groups.setdefault(_lcm_key(order, basis.lead_exps[i], et), []).append(i)
        minimal: list[int] = []  # plain packings of the kept lcms
        for lk in sorted(groups):
            lpk = order.plain(lk)
            if any(order.divides(mpk, lpk) for mpk in minimal):
                continue
            # Buchberger's product criterion kills the whole lcm class; the
            # leads are coprime exactly when key(lcm) = key(lead_i) + key(lead_t)
            if any(basis.lead_key[i] + kt == lk for i in groups[lk]):
                continue
            minimal.append(lpk)
            kept.append((sum(order.exps(lk)), lk, groups[lk][0], t))
        heapq.heapify(kept)
        pairs[:] = kept
        # prune now-redundant reducers
        for i in range(t):
            if basis.alive[i] and order.divides(pkt, basis.lead_pk[i]):
                basis.alive[i] = False

    seeds = [(sum(order.exps(max(d))), d) for d in inputs if d]  # (lead degree, f)
    seeds.sort(key=lambda s: (s[0], max(s[1])))
    mu: dict[int, int] = {}
    nxt = 0
    while nxt < len(seeds) or pairs:
        if nxt < len(seeds) and (not pairs or seeds[nxt][0] < pairs[0][0]):
            deg, d = seeds[nxt]
            nxt += 1
            r = _normal_form_dict(d, basis)
            if r:
                mu[deg] = mu.get(deg, 0) + 1
        else:
            _, lk, i, j = heapq.heappop(pairs)
            r = _normal_form_dict(_spoly(basis, i, j, lk), basis)
        if r:
            update(_monic(r, p))

    # interreduction: only the minimal leads stay alive; a lead divides no
    # term below it, so each tail is reduced once against that one basis
    live = [i for i in range(len(basis.lead_key)) if basis.alive[i]]
    live.sort(key=lambda i: basis.lead_key[i])
    minimal_idx: list[int] = []
    for i in live:
        if not any(order.divides(basis.lead_pk[j], basis.lead_pk[i])
                   for j in minimal_idx):
            minimal_idx.append(i)
    basis.alive = [False] * len(basis.alive)
    for i in minimal_idx:
        basis.alive[i] = True
    reduced: list[dict[int, int]] = []
    for i in minimal_idx:
        d = _normal_form_dict(dict(basis.tail[i]), basis)
        d[basis.lead_key[i]] = 1
        reduced.append(d)
    return reduced, mu


# ---------------------------------------------------------------------------
# public types


class Ideal:
    """An ideal presented by generators; nonzero generators only.

    Instances are immutable apart from an internal per-order cache of
    computed reduced bases (idempotent writes of immutable values, so
    concurrent use needs no coordination).
    """

    def __init__(self, ring: PolynomialRing, generators, saturated: bool = False):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise UsageError("generator from a different ring")
        self.ring = ring
        self.generators = gens
        self.saturated = saturated
        self._gb_cache: dict[str, GroebnerBasis] = {}

    @property
    def homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def groebner_basis(self, order: MonomialOrder | None = None) -> "GroebnerBasis":
        if order is None:
            order = MonomialOrder(self.ring.nvars)
        cached = self._gb_cache.get(order.descriptor)
        if cached is not None:
            return cached
        gb = buchberger_reduced(self, order)
        self._gb_cache[order.descriptor] = gb
        return gb

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, list(self.groebner_basis().elements)).is_zero()

    def is_unit(self) -> bool:
        els = self.groebner_basis().elements
        return len(els) == 1 and els[0].is_constant() and not els[0].is_zero()

    def is_zero(self) -> bool:
        return not self.generators

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        return self.groebner_basis().elements == other.groebner_basis().elements

    def __hash__(self):
        return hash((self.ring, self.groebner_basis().elements))

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators over {self.ring!r})"


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic, canonically sorted Groebner basis.

    mu[d] counts the degree-d inputs that the engine run which built the
    basis left with a nonzero remainder.  For homogeneous generators that is
    the number of degree-d minimal generators of the ideal.
    """

    ring: PolynomialRing
    order: str
    elements: tuple[Polynomial, ...]
    mu: dict[int, int] = field(compare=False)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _to_dict(f: Polynomial, order: MonomialOrder) -> dict[int, int]:
    return {order.key(m.exponents): c for m, c in f.terms}

def _from_dict(d: dict[int, int], ring: PolynomialRing,
               order: MonomialOrder) -> Polynomial:
    return ring.from_exponent_dict({order.exps(k): c for k, c in d.items()})


def normal_form(f: Polynomial, divisors, order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of f modulo the given divisor list (need not be a basis).

    No term of the result is divisible by any divisor leading term, and
    f minus the result lies in the ideal the divisors generate.
    """
    ring = f.ring
    if order is None:
        order = MonomialOrder(ring.nvars)
    basis = _Basis(order, ring.prime)
    for g in divisors:
        if g.ring != ring:
            raise UsageError("divisor from a different ring")
        if not g.is_zero():
            basis.add(_monic(_to_dict(g, order), ring.prime))
    return _from_dict(_normal_form_dict(_to_dict(f, order), basis), ring, order)


def buchberger_reduced(ideal_or_polys, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis; the zero ideal yields an empty basis."""
    if isinstance(ideal_or_polys, Ideal):
        ring = ideal_or_polys.ring
        gens = ideal_or_polys.generators
    else:
        gens = tuple(g for g in ideal_or_polys if not g.is_zero())
        if not gens:
            raise UsageError("cannot infer ring from an empty polynomial list")
        ring = gens[0].ring
    if order is None:
        order = MonomialOrder(ring.nvars)
    dicts = [_to_dict(g, order) for g in gens]
    out, mu = _buchberger_dicts(dicts, ring.prime, order)
    return GroebnerBasis(ring, order.descriptor,
                         tuple(_from_dict(d, ring, order) for d in out), mu)


# ---------------------------------------------------------------------------
# elimination, saturation, intersection, quotient


def _extend_ring(ring: PolynomialRing, extra: str) -> PolynomialRing:
    name = extra
    while name in ring.variables:
        name = "_" + name
    return PolynomialRing(prime=ring.prime, variables=ring.variables + (name,))

def _lift(f: Polynomial, big: PolynomialRing) -> Polynomial:
    return big.from_exponent_dict(
        {m.exponents + (0,) * (big.nvars - f.ring.nvars): c for m, c in f.terms})

def _drop_last(f: Polynomial, small: PolynomialRing) -> Polynomial:
    d = {}
    for m, c in f.terms:
        if any(m.exponents[small.nvars:]):
            raise UsageError("polynomial still involves an eliminated variable")
        d[m.exponents[:small.nvars]] = c
    return small.from_exponent_dict(d)


def _avoiding(elements, drop) -> list[Polynomial]:
    """The elements none of whose terms involve a variable in drop.

    Of a basis under a block order with drop dominant, these are the
    elements whose lead avoids drop, and they generate the contraction.
    Polynomial.leading_monomial is the degrevlex lead and cannot decide it.
    """
    return [g for g in elements
            if not any(m.exponents[i] for m, _ in g.terms for i in drop)]


def eliminate(ideal: Ideal, drop_vars) -> Ideal:
    """Generators of the contraction to the subring without drop_vars.

    drop_vars may hold variable names or 0-based indices; the result lives in
    the same ring, its generators simply avoid the dropped variables.
    """
    ring = ideal.ring
    drop: set[int] = set()
    for v in drop_vars:
        if isinstance(v, str):
            if v not in ring.variables:
                raise UsageError(f"unknown variable {v!r}")
            drop.add(ring.variables.index(v))
        else:
            if not 0 <= v < ring.nvars:
                raise UsageError(f"variable index {v} out of range")
            drop.add(int(v))
    if not drop:
        return Ideal(ring, ideal.generators)
    order = MonomialOrder(ring.nvars, tuple(sorted(drop)))
    return Ideal(ring, _avoiding(buchberger_reduced(ideal, order).elements, drop))


def _keeping_basis(gb: GroebnerBasis, src: Ideal, saturated: bool = False) -> Ideal:
    """The ideal generated by gb, with gb cached on it.

    gb must be a basis of src.  It is cached only when src's generators are
    homogeneous: mu counts minimal generators only then, and an inhomogeneous
    ideal can have a homogeneous basis ((x + y^2, y^2) has basis (x, y^2)).
    """
    out = Ideal(gb.ring, gb.elements, saturated=saturated)
    if src.homogeneous:
        out._gb_cache[gb.order] = gb
    return out


def _saturate_last_variable(ideal: Ideal) -> Ideal:
    """I : z_n^infty for homogeneous I, by dividing degrevlex basis elements.

    In degrevlex with z_n last, a homogeneous polynomial is divisible by z_n
    exactly when its leading monomial is, so dividing each element of the
    basis once by its largest power of z_n gives a Groebner basis of the
    saturation (Bayer-Stillman 1987; Eisenbud, Commutative Algebra, 15.12).
    One engine run over the divided set reduces it and counts its mu.
    """
    ring = ideal.ring
    last = ring.nvars - 1
    gb = ideal.groebner_basis()
    divided = []
    for g in gb.elements:
        e = min(m.exponents[last] for m, _ in g.terms)
        if e > 0:
            g = ring.from_exponent_dict(
                {m.exponents[:last] + (m.exponents[last] - e,): c for m, c in g.terms})
        divided.append(g)
    if divided != list(gb.elements):
        gb = buchberger_reduced(Ideal(ring, divided))
    return _keeping_basis(gb, ideal, saturated=True)


def _permute_ring(ring: PolynomialRing, perm) -> PolynomialRing:
    return PolynomialRing(prime=ring.prime,
                          variables=tuple(ring.variables[i] for i in perm))

def _permute_poly(f: Polynomial, perm, target: PolynomialRing) -> Polynomial:
    return target.from_exponent_dict(
        {tuple(m.exponents[i] for i in perm): c for m, c in f.terms})


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f^infty.  Auxiliary-variable method; fast path for plain variables."""
    if f.is_zero():
        raise UsageError("cannot saturate by the zero polynomial")
    ring = ideal.ring
    if f.ring != ring:
        raise UsageError("saturating polynomial from a different ring")
    if f.is_constant():
        return _keeping_basis(ideal.groebner_basis(), ideal, saturated=True)
    if ideal.is_zero():
        return Ideal(ring, (), saturated=True)
    # fast path: f is a single variable and I is homogeneous
    if (ideal.homogeneous and len(f.terms) == 1
            and f.terms[0][0].total_degree == 1):
        idx = next(i for i, e in enumerate(f.terms[0][0].exponents) if e)
        if idx == ring.nvars - 1:
            return _saturate_last_variable(ideal)
        perm = [i for i in range(ring.nvars) if i != idx] + [idx]
        inv = [0] * ring.nvars
        for pos, i in enumerate(perm):
            inv[i] = pos
        pring = _permute_ring(ring, perm)
        moved = Ideal(pring, [_permute_poly(g, perm, pring) for g in ideal.generators])
        sat = _saturate_last_variable(moved)
        return Ideal(ring, [_permute_poly(g, inv, ring) for g in sat.generators],
                     saturated=True)
    big = _extend_ring(ring, "t")
    t = big.variable(big.nvars - 1)
    gens = [_lift(g, big) for g in ideal.generators]
    gens.append(t * _lift(f, big) - 1)
    elim = buchberger_reduced(Ideal(big, gens),
                              MonomialOrder(big.nvars, (big.nvars - 1,)))
    kept = _avoiding(elim.elements, (big.nvars - 1,))
    return Ideal(ring, [_drop_last(g, ring) for g in kept], saturated=True)


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    """I cap J via the t-homogenization trick (t*I + (1-t)*J, eliminate t)."""
    if a.ring != b.ring:
        raise UsageError("ideals from different rings")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return Ideal(ring, ())
    big = _extend_ring(ring, "t")
    t = big.variable(big.nvars - 1)
    one_minus_t = big.one() - t
    gens = [t * _lift(g, big) for g in a.generators]
    gens += [one_minus_t * _lift(g, big) for g in b.generators]
    elim = buchberger_reduced(Ideal(big, gens),
                              MonomialOrder(big.nvars, (big.nvars - 1,)))
    kept = _avoiding(elim.elements, (big.nvars - 1,))
    return Ideal(ring, [_drop_last(g, ring) for g in kept])


def _exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g, asserting exact divisibility."""
    ring = f.ring
    p = ring.prime
    q = ring.zero()
    r = f
    ginv = ring.field.inverse(g.leading_coefficient())
    glead = g.leading_monomial()
    while not r.is_zero():
        m = r.leading_monomial()
        if not glead.divides(m):
            raise UsageError("division is not exact")
        c = (r.leading_coefficient() * ginv) % p
        term = ring.monomial((m / glead).exponents, c)
        q = q + term
        r = r - term * g
    return q


def ideal_quotient(a: Ideal, b: Ideal) -> Ideal:
    """I : J, as the intersection of I : g over the generators g of J."""
    if a.ring != b.ring:
        raise UsageError("ideals from different rings")
    ring = a.ring
    if b.is_zero():
        return Ideal(ring, (ring.one(),))
    out: Ideal | None = None
    for g in b.generators:
        if g.is_constant():
            part = _keeping_basis(a.groebner_basis(), a)
        else:
            meet = ideal_intersection(a, Ideal(ring, (g,)))
            part = Ideal(ring, [_exact_divide(h, g) for h in meet.generators])
        out = part if out is None else ideal_intersection(out, part)
    assert out is not None
    return _keeping_basis(out.groebner_basis(), out)


def _variable_indices(ideal: Ideal) -> list[int] | None:
    """If every generator is a plain variable, their indices; else None."""
    out = []
    for g in ideal.generators:
        if len(g.terms) != 1 or g.terms[0][0].total_degree != 1:
            return None
        out.append(next(i for i, e in enumerate(g.terms[0][0].exponents) if e))
    return out


def saturate_by_ideal(a: Ideal, b: Ideal) -> Ideal:
    """I : J^infty, as a stabilized iterated quotient.

    When J is generated by plain variables and I is homogeneous, the
    saturation equals the intersection of the single-variable saturations
    (pigeonhole on monomials of J^N), which is much cheaper.
    """
    if a.ring != b.ring:
        raise UsageError("ideals from different rings")
    ring = a.ring
    if b.is_zero():
        return Ideal(ring, (ring.one(),), saturated=True)
    var_idx = _variable_indices(b)
    if var_idx is not None and a.homogeneous and var_idx:
        out: Ideal | None = None
        for i in var_idx:
            part = saturate(a, ring.variable(i))
            out = part if out is None else ideal_intersection(out, part)
        assert out is not None
        return _keeping_basis(out.groebner_basis(), out, saturated=True)
    cur = _keeping_basis(a.groebner_basis(), a)
    while True:
        nxt = ideal_quotient(cur, b)
        if nxt.groebner_basis().elements == cur.groebner_basis().elements:
            return _keeping_basis(cur.groebner_basis(), cur, saturated=True)
        cur = nxt


# ---------------------------------------------------------------------------
# Hilbert series


class UnivariatePolynomial:
    """Small dense polynomial in t with int or Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial([self[i] - other[i] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivariatePolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UnivariatePolynomial(out)

    def shift(self, k):
        if self.is_zero():
            return self
        return UnivariatePolynomial((0,) * k + self.coeffs)

    def __call__(self, x):
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def divide_one_minus_t(self):
        """Exact division by (1 - t); requires self(1) == 0."""
        if self(1) != 0:
            raise UsageError("not divisible by 1 - t")
        out = []
        acc = 0
        for c in self.coeffs[:-1] if self.coeffs else ():
            acc += c
            out.append(acc)
        return UnivariatePolynomial(out)

    def __eq__(self, other):
        return isinstance(other, UnivariatePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                body = tpow if mag == 1 else f"{mag}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"UnivariatePolynomial({self})"


@dataclass(frozen=True)
class HilbertData:
    """Numerator over the full ring, Krull dimension, degree, Hilbert polynomial."""

    numerator: UnivariatePolynomial
    krull_dimension: int
    degree: int
    hilbert_polynomial: UnivariatePolynomial
    nvars: int = field(compare=False, default=0)

    def hilbert_function(self, d: int) -> int:
        """Actual Hilbert function value from the numerator (valid for all d)."""
        n = self.nvars
        total = 0
        for j, c in enumerate(self.numerator.coeffs):
            if d - j >= 0:
                total += c * comb(d - j + n - 1, n - 1)
        return total


def _minimalize_monomials(gens: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    out = []
    for g in sorted(gens, key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in out):
            out.append(g)
    return frozenset(out)


def _monomial_numerator(gens: frozenset[tuple[int, ...]], nvars: int,
                        memo: dict) -> UnivariatePolynomial:
    """Hilbert numerator of R/(monomial ideal), pivot-variable recursion."""
    if not gens:
        return UnivariatePolynomial.one()
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if any(sum(g) == 0 for g in gens):
        return UnivariatePolynomial.zero()
    counts = [0] * nvars
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    best = max(range(nvars), key=lambda i: counts[i])
    if counts[best] <= 1:
        # pairwise coprime supports: product of (1 - t^deg)
        out = UnivariatePolynomial.one()
        for g in gens:
            out = out * (UnivariatePolynomial.one()
                         - UnivariatePolynomial.one().shift(sum(g)))
        memo[gens] = out
        return out
    # 0 -> R/(I:x) (-1) -> R/I -> R/(I + x) -> 0
    plus = _minimalize_monomials(frozenset(
        [tuple(1 if i == best else 0 for i in range(nvars))]
        + [g for g in gens if g[best] == 0]))
    colon = _minimalize_monomials(frozenset(
        tuple(e - 1 if i == best and e > 0 else e for i, e in enumerate(g))
        for g in gens))
    out = _monomial_numerator(plus, nvars, memo) \
        + _monomial_numerator(colon, nvars, memo).shift(1)
    memo[gens] = out
    return out


def _require_homogeneous(ideal: Ideal) -> None:
    for idx, g in enumerate(ideal.generators):
        if not g.is_homogeneous():
            raise UsageError(f"generator {idx} is not homogeneous: {g}")


def hilbert(ideal: Ideal) -> HilbertData:
    """Hilbert data of R/I for homogeneous I (usage error otherwise)."""
    _require_homogeneous(ideal)
    n = ideal.ring.nvars
    gb = ideal.groebner_basis()
    leads = frozenset(g.leading_monomial().exponents for g in gb.elements)
    leads = _minimalize_monomials(leads)
    numerator = _monomial_numerator(leads, n, {})
    if numerator.is_zero():  # unit ideal
        return HilbertData(numerator, -1, 0, UnivariatePolynomial.zero(), n)
    codim = 0
    q = numerator
    while q(1) == 0:
        q = q.divide_one_minus_t()
        codim += 1
    dim = n - codim
    degree = q(1)
    if dim <= 0:
        hp = UnivariatePolynomial.zero()
    else:
        # HF(d) = sum_j q_j * C(d - j + dim - 1, dim - 1)
        #       = sum_j q_j * prod_{k=1}^{dim-1} (d - j + k) / (dim - 1)!
        hp = UnivariatePolynomial.zero()
        denom = 1
        for k in range(1, dim):
            denom *= k
        for j, c in enumerate(q.coeffs):
            if c == 0:
                continue
            term = UnivariatePolynomial((Fraction(1),))
            for k in range(1, dim):
                term = term * UnivariatePolynomial((Fraction(k - j), Fraction(1)))
            term = UnivariatePolynomial([Fraction(x, denom) * c for x in term.coeffs])
            hp = hp + term
        hp = UnivariatePolynomial([Fraction(x) for x in hp.coeffs])
    return HilbertData(numerator, dim, degree, hp, n)


def generator_profile(ideal: Ideal) -> dict[int, int]:
    """Minimal generator counts by degree, {degree: count}, for homogeneous I.

    Read from the mu of the degrevlex basis, so it makes no engine run of its
    own; the zero and the unit ideal have none.
    """
    _require_homogeneous(ideal)
    if ideal.is_unit():
        return {}
    return dict(ideal.groebner_basis().mu)


def resolution_hilbert_numerator(terms) -> UnivariatePolynomial:
    """sum_h (-1)^h rank_h t^{twist_h} for (rank, twist, homological index) triples."""
    out = UnivariatePolynomial.zero()
    for rank, twist, h in terms:
        sign = -1 if h % 2 else 1
        out = out + UnivariatePolynomial((sign * rank,)).shift(twist)
    return out
