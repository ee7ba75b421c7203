"""Groebner engine and derived ideal invariants.

Buchberger with the Gebauer-Moeller pair criteria and normal (minimal lcm
degree) selection.  The engine works on {key: coeff} dicts of poly's packed
keys: integer comparison realizes the term order and integer addition realizes
monomial multiplication.  Under degrevlex they are the keys a Polynomial holds;
other orders convert each key by arithmetic on its plain packing (one slot
per variable), which is itself computed from the key by arithmetic.
Divisibility is a SWAR check on the plain packing and an lcm is its
slot-wise max (Monagan-Pearce 2011), so the engine never unpacks a term into
exponents.  Coefficients of the working polynomial are reduced mod p only
when their term is popped.
Inputs join the pair queue by degree, so the run that builds a basis also
counts the minimal generators of a homogeneous ideal (GroebnerBasis.mu).

A run whose inputs are all forms, under an order with no drop block, has
only forms of known degree to reduce: seeds, S-polynomials and the tails of
the final interreduction.  Such a form of degree d can be reduced as one
packed integer row, one slot per degree-d monomial with the lead in the top
slot (F4's Macaulay rows, Faugere 1999, packed as in Dumas-Fousse-Salvy
2011).  A slot is W = bit_length((p - 1) + ncols * (p - 1)^2) bits wide,
ncols = C(n + d - 1, d): it starts below p and each of at most ncols steps
adds at most (p - 1)^2, so it never carries into the next.  A form takes a
row when it has at least a quarter of its degree's monomials,
4 * len(f) >= ncols, or when it has at least 64 terms and
256 * len(f) >= ncols * W, since a row step costs big-integer work in
proportion to ncols * W; every other form takes the sparse loop.  The row
loop pops the same terms in the same order and asks find_reducer the same
questions as the sparse loop, so it returns the same remainder.

A homogeneous degrevlex run whose final leading ideal is known in advance
can skip work that this knowledge proves redundant (Traverso 1996).  Each
new degree-d lead is one of that ideal's degree-d minimal generators, so once
the run has found all of them the partial basis spans I_d; the rest of the
degree's pairs and inputs would reduce to zero and are skipped, and basis and
mu are unchanged.  A saturation's dividing run counts no mu; when a profile
of its result is read, generator_profile counts mu by one more run over the
reduced basis, which knows its leading ideal and carries such a quota.  A
quota that is too small would silently drop basis elements, so it must come
from the final leads.

Saturation by a single polynomial uses the auxiliary-variable method
(adjoin t, add t*f - 1, eliminate t).  For a homogeneous ideal and any plain
variable z_i there is a fast path under degrevlex with z_i last, where a
form is divisible by z_i exactly when its lead is (Bayer-Stillman).  The
engine divides each new element by the power of z_i in its lead as it finds
it, so the basis of the raw ideal, with its high-degree part from the
component on z_i = 0, is never built.  The two paths agree and both are
tested.  Saturation by an ideal J has one path for every I and J:
I : J^infty is the intersection of the I : g^infty over J's generators g,
so a J of variables takes the dividing run once per variable.  Those
saturations often contain one another, so an intersection first asks
whether one ideal lies in the other: I cap J is I when I <= J and J when
J <= I.  It decides that only by reducing one ideal's generators against a
basis the other already carries under degrevlex with some z_i last, so the
test starts no engine run; without such a basis, or when neither ideal
contains the other, the intersection takes the t-elimination.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations_with_replacement
from math import comb, factorial
from operator import le

from .errors import UsageError
from .poly import (_BITS, _MASK, _MAXEXP, Polynomial, PolynomialRing, _degree,
                   _revkey, _slot_sum, _unrev)


class MonomialOrder:
    """Degrevlex with variable `last` last (native: z_n last, the ring's own),
    or a block elimination order with a dominant drop block.

    key(): packed integer; larger key == larger monomial, key(ab) = key(a)+key(b).
    Under the native order it is the key a Polynomial stores.
    plain(key): plain packing for SWAR divisibility tests and lcms, derived
    from the key by arithmetic; slot j holds variable slots[j], and
    plain(key(a) + key(b)) = plain(key(a)) + plain(key(b)).  A block order
    keeps the ring's slot layout: its drop and keep blocks are masks of one
    plain packing, each keyed as deg * B^n - block, the drop block's key
    shifted above the other's.
    """

    def __init__(self, nvars: int, drop: tuple[int, ...] = (), last: int | None = None):
        self.nvars = nvars
        self.drop = tuple(sorted(drop))
        if last is not None and (self.drop or not 0 <= last < nvars):
            raise UsageError(f"no degrevlex order on {nvars} variables has {last} last")
        last = nvars - 1 if last is None else last
        self.native = not self.drop and last == nvars - 1
        self.slots = tuple(i for i in range(nvars) if i != last) + (last,)
        self.descriptor = (f"eliminate[{','.join(map(str, self.drop))}]" if self.drop
                           else "degrevlex" if self.native else f"degrevlex[{last}]")
        self._guard = sum(1 << (_BITS * i + _BITS - 1) for i in range(nvars))
        full = (1 << (_BITS * nvars)) - 1
        dmask = sum(_MASK << (_BITS * i) for i in self.drop)
        self._blocks = (dmask, full ^ dmask) if self.drop else (full,)
        self._shift = _BITS * (nvars + 4)  # a block key fits below this

    def key(self, exps) -> int:
        k = _revkey(exps, self.slots)
        return self.moved(k) if self.drop else k

    def plain(self, key: int) -> int:
        """Plain packing of a key; every exponent must stay below _MAXEXP.

        Keys formed by addition inside the engine carry exponents below
        2 * _MAXEXP; one at or above _MAXEXP would defeat the SWAR guard.
        """
        if not self.drop:
            pk = _unrev(key, self.nvars)
        else:
            hi = key >> self._shift
            pk = _unrev(hi, self.nvars) + _unrev(key - (hi << self._shift), self.nvars)
        if pk & self._guard:
            raise UsageError("exponent too large for packed order")
        return pk

    def unplain(self, pk: int) -> int:
        """The key whose plain packing is pk (plain's inverse)."""
        n = self.nvars
        key = 0
        for mask in self._blocks:
            b = pk & mask
            key = (key << self._shift) + (_slot_sum(b, n) << (_BITS * n)) - b
        return key

    def lcm(self, a: int, b: int) -> int:
        """Plain packing of the lcm of two plain packings, their slot-wise max.
        With exponents below _MAXEXP no slot of (a | G) - b borrows from the
        next, and its guard bit survives exactly where a's is at least b's."""
        m = ((((a | self._guard) - b) & self._guard) >> (_BITS - 1)) * _MASK
        return (a & m) | (b & ~m)

    def moved(self, key: int, back: bool = False) -> int:
        """This order's key of the monomial with ring key key; with back, the
        ring key of this order's key.  Moving z_i last rotates slots i..n-1
        of the plain packing by one and keeps the degree field, so the key
        moves by the change of packing.  A block order keys the ring's plain
        packing, and its two block keys add up to the ring key."""
        if self.drop:
            if not back:
                return self.unplain(_unrev(key, self.nvars))
            hi = key >> self._shift
            return key - (hi << self._shift) + hi
        s, w = _BITS * self.slots[-1], _BITS * (self.nvars - 1 - self.slots[-1])
        seg = _unrev(key, self.nvars) >> s
        new = (((seg << _BITS) & ((1 << (w + _BITS)) - 1)) | (seg >> w) if back
               else (seg >> _BITS) | ((seg & _MASK) << w))
        return key + ((seg - new) << s)

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
        self.tail: list[list[tuple[int, int]]] = []   # without the (monic) lead
        self.alive: list[bool] = []
        # find_reducer's answers, valid for good (see find_reducer)
        self.found: dict[int, int] = {}
        # the dense path's column maps by degree and packed rows by
        # (element, shift); an element never changes once added
        self.columns: dict[int, tuple] = {}
        self.rows: dict[tuple[int, int], int] = {}

    def add(self, d: dict[int, int]) -> int:
        """Add a monic polynomial dict; returns its index."""
        k = max(d)
        self.lead_key.append(k)
        self.lead_pk.append(self.order.plain(k))
        self.tail.append(sorted((kk, c) for kk, c in d.items() if kk != k))
        self.alive.append(True)
        return len(self.lead_key) - 1

    def kill(self, i: int) -> None:
        self.alive[i] = False

    def find_reducer(self, pk: int) -> int:
        """Index of the first live element whose lead divides plain pk, or -1.

        found[pk] is where the last lookup of pk stopped: i >= 0 when element
        i was the first live divisor, -1 - n when none of the first n
        elements was (a missing entry reads as -1, n = 0).  Elements are
        only appended, and an element only ever goes from live to dead, so
        what found[pk] says about the elements before i (or n) stays true:
        a lookup returns i while it is live and otherwise resumes the scan
        after it, and the memo never needs clearing.
        """
        lead_pk, alive, found = self.lead_pk, self.alive, self.found
        i = found.get(pk, -1)
        if i >= 0:
            if alive[i]:
                return i
            i += 1
        else:
            i = -1 - i
        guard = self.order._guard
        big = pk | guard
        for j in range(i, len(lead_pk)):
            if alive[j] and (big - lead_pk[j]) & guard == guard:
                found[pk] = j
                return j
        found[pk] = -1 - len(lead_pk)
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


def _width(p: int, ncols: int) -> int:
    """Bits per slot of a packed row over F_p with ncols slots."""
    return ((p - 1) + ncols * (p - 1) ** 2).bit_length()


def _columns(basis: _Basis, d: int) -> tuple:
    """(keys, plain packings, {key: slot}, slot width W) of the degree-d
    monomials, slot 0 the smallest key, so that the top slot is the lead.

    Under an order with no drop block a degree-d key is d * B^n minus its
    plain packing, so the map is built from the packings alone.
    """
    cols = basis.columns.get(d)
    if cols is None:
        n, p = basis.order.nvars, basis.p
        unit = [1 << (_BITS * s) for s in range(n)]
        pks = sorted((sum(unit[s] for s in c)
                      for c in combinations_with_replacement(range(n), d)), reverse=True)
        top = d << (_BITS * n)
        keys = [top - pk for pk in pks]
        width = _width(p, len(keys))
        cols = basis.columns[d] = (keys, pks, {k: j for j, k in enumerate(keys)}, width)
    return cols


def _normal_form_dense(f: dict[int, int], basis: _Basis, d: int) -> dict[int, int]:
    """_normal_form_dict(f, basis) for a degree-d form f, under an order with
    no drop block, with f packed as one integer row.

    Slot j, W bits wide, holds the coefficient of the j-th smallest degree-d
    monomial.  A step reads the top nonzero slot mod p, clears it, and, if a
    basis lead divides that monomial, adds (p - c) times the packed tail of
    the reducer's multiple, whose slots all lie below.  Slots start in
    [0, p), and each step adds at most (p - 1)^2 to a slot; every step
    clears a lower slot than the one before, so there are at most ncols
    steps and a slot stays at most (p - 1) + ncols * (p - 1)^2, which fits
    W = bit_length((p - 1) + ncols * (p - 1)^2) bits without a carry into
    the next slot.  The terms are popped in the same order and find_reducer
    sees the same basis, so the remainder is the sparse loop's.
    """
    keys, pks, col, width = _columns(basis, d)
    p = basis.p
    find_reducer = basis.find_reducer
    lead_key, tail, rows = basis.lead_key, basis.tail, basis.rows
    r = 0
    for k, c in f.items():
        r += (c % p) << (width * col[k])
    out: dict[int, int] = {}
    while r:
        j = (r.bit_length() - 1) // width
        s = width * j
        v = r >> s
        r -= v << s
        c = v % p
        if not c:
            continue
        i = find_reducer(pks[j])
        if i < 0:
            out[keys[j]] = c
            continue
        shift = keys[j] - lead_key[i]
        row = rows.get((i, shift))
        if row is None:
            row = rows[i, shift] = sum((tc % p) << (width * col[tk + shift])
                                       for tk, tc in tail[i])
        r += (p - c) * row
    return out


def _reduce(f: dict[int, int], basis: _Basis, d: int | None) -> dict[int, int]:
    """The engine's normal form of f; d is f's degree when f is a form under
    an order with no drop block, else None.

    A degree-d form is reduced as a packed row when it has at least a
    quarter of the ncols = C(n + d - 1, d) monomials of its degree, or when
    it has at least 64 terms and 256 * len(f) >= ncols * W, W the slot width
    of _width: a row step costs big-integer work in proportion to ncols * W,
    and below 64 terms the sparse loop is cheap at any width.  ncols and W
    are counted, not listed, so deciding builds no column map.
    """
    # below _MAXEXP every degree-d monomial is one plain() accepts
    if d is not None and d < _MAXEXP:
        t, ncols = len(f), comb(basis.order.nvars + d - 1, d)
        if 4 * t >= ncols or (t >= 64 and 256 * t >= ncols * _width(basis.p, ncols)):
            return _normal_form_dense(f, basis, d)
    return _normal_form_dict(f, basis)


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


def _buchberger_dicts(inputs: list[dict[int, int]], p: int, order: MonomialOrder,
                      quota: dict[int, int] | None = None,
                      divide_last: bool = False
                      ) -> tuple[list[dict[int, int]], dict[int, int] | None]:
    """Reduced Groebner basis of the given polynomial dicts, and mu.

    Inputs and S-pairs share one queue in degree order, the degree-d pairs
    before the degree-d inputs (Kreuzer-Robbiano, CCA2 4.6).  mu[d] counts
    the degree-d inputs left with a nonzero remainder; for homogeneous
    inputs that is the number of degree-d minimal generators.

    Hilbert-driven pruning (Traverso, J. Symbolic Comput. 22, 1996): quota
    is {d: number of degree-d minimal generators of the final leading
    ideal}, when that ideal is known in advance; pass it only for
    homogeneous inputs under a degrevlex order, where every item of degree
    d is a degree-d form.  Each new degree-d lead is one of those
    generators, so once the run has found quota[d] of them, the rest of the
    degree's pairs and inputs would all reduce to zero and are skipped,
    which leaves the basis and mu as they are.  generator_profile reads its
    quota from the leads of a reduced basis, the run's own inputs.

    divide_last saturates homogeneous inputs I by the order's last variable
    z (degrevlex, no drop block) while the basis is built: each new element
    whose lead is divisible by z^e is divided by z^e before it joins the
    basis.  Under degrevlex with z last the lead of a form has the fewest z,
    so every term is divisible by z^e.
    - Every element stays in I : z^infty.
    - At the end no lead is divisible by z, so the basis is a reduced basis
      of some J' with I <= J' <= I : z^infty and J' : z^infty = J'
      (Bayer-Stillman, Invent. Math. 87, 1987).
    - Hence J' = I : z^infty.
    A quota counts the final leads of I, not of I : z^infty, so a dividing
    run takes none.  After a division mu is None, since the inputs no
    longer meet the basis of the ideal they generate; generator_profile
    counts it by a quota run when it is read.
    """
    basis = _Basis(order, p)
    pairs: list[tuple[int, ...]] = []  # (lcm degree, lcm key, i, j, lcm packing)
    # every seed, S-polynomial and tail of a run over forms is a form
    n = order.nvars
    forms = not order.drop and all(_degree(max(d), n) == _degree(min(d), n)
                                   for d in inputs if d)

    def update(d: dict[int, int]) -> None:
        # Gebauer-Moeller installation of the Buchberger criteria.
        t = basis.add(d)
        pkt = basis.lead_pk[t]
        lead_pk = basis.lead_pk
        # old pairs: keep (i,j) unless lm_t | lcm(i,j) strictly refines it
        kept = []
        for pair in pairs:
            _, _, i, j, lpk = pair
            if not order.divides(pkt, lpk) or order.lcm(lead_pk[i], pkt) == lpk \
                    or order.lcm(lead_pk[j], pkt) == lpk:
                kept.append(pair)
        # new pairs, grouped by lcm and minimalized by divisibility
        groups: dict[int, list[int]] = {}  # lcm plain packing -> the i
        for i in range(t):
            if basis.alive[i]:
                groups.setdefault(order.lcm(lead_pk[i], pkt), []).append(i)
        minimal: list[int] = []  # plain packings of the kept lcms
        for lk, lpk in sorted((order.unplain(lpk), lpk) for lpk in groups):
            if any(order.divides(mpk, lpk) for mpk in minimal):
                continue
            # Buchberger's product criterion kills the whole lcm class; the
            # leads are coprime exactly when their packings add up to the lcm
            if any(lead_pk[i] + pkt == lpk for i in groups[lpk]):
                continue
            minimal.append(lpk)
            kept.append((_slot_sum(lpk, n), lk, groups[lpk][0], t, lpk))
        heapq.heapify(kept)
        pairs[:] = kept
        # prune now-redundant reducers
        for i in range(t):
            if basis.alive[i] and order.divides(pkt, basis.lead_pk[i]):
                basis.kill(i)

    seeds = [(_slot_sum(order.plain(max(d)), n), d) for d in inputs if d]  # (degree, f)
    seeds.sort(key=lambda s: (s[0], max(s[1])))

    zshift = _BITS * (n - 1)  # z's slot in the plain packing
    zkey = order.unplain(1 << zshift)
    divided = False
    mu: dict[int, int] = {}
    nxt = 0
    deg_now, left = -1, None  # left: degree-deg_now leads still to find
    while nxt < len(seeds) or pairs:
        take_seed = nxt < len(seeds) and (not pairs or seeds[nxt][0] < pairs[0][0])
        deg = seeds[nxt][0] if take_seed else pairs[0][0]
        if deg != deg_now:
            deg_now, left = deg, None if quota is None else quota.get(deg, 0)
        if take_seed:
            f = seeds[nxt][1]
            nxt += 1
            if left == 0:
                continue
            r = _reduce(f, basis, deg if forms else None)
            if r:
                mu[deg] = mu.get(deg, 0) + 1
        else:
            _, lk, i, j, _ = heapq.heappop(pairs)
            if left == 0:
                continue
            r = _reduce(_spoly(basis, i, j, lk), basis, deg if forms else None)
        if r:
            r = _monic(r, p)
            e = (order.plain(max(r)) >> zshift) & _MASK if divide_last else 0
            if e:
                r = {k - e * zkey: c for k, c in r.items()}
                divided = True
            update(r)
            if left is not None:
                left -= 1

    # interreduction: the live leads are the minimal ones, since a new lead
    # is divisible by no live lead and kills the live leads it divides; a
    # lead divides no term below it, so each tail is reduced once against
    # that one basis
    live = [i for i in range(len(basis.lead_key)) if basis.alive[i]]
    live.sort(key=lambda i: basis.lead_key[i])
    reduced: list[dict[int, int]] = []
    for i in live:
        d = _reduce(dict(basis.tail[i]), basis,
                    _slot_sum(basis.lead_pk[i], n) if forms else None)
        d[basis.lead_key[i]] = 1
        reduced.append(d)
    return reduced, None if divided else mu


# ---------------------------------------------------------------------------
# public types


class Ideal:
    """An ideal presented by generators; nonzero generators only.

    Instances are immutable apart from an internal per-order cache of
    computed reduced bases.
    """

    def __init__(self, ring: PolynomialRing, generators):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise UsageError("generator from a different ring")
        self.ring = ring
        self.generators = gens
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
    the number of degree-d minimal generators of the ideal.  mu is None when
    the run divided its elements by a variable (a saturation); then
    generator_profile counts it.
    """

    ring: PolynomialRing
    order: str
    elements: tuple[Polynomial, ...]
    mu: dict[int, int] | None = field(compare=False)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _to_dict(f: Polynomial, order: MonomialOrder) -> dict[int, int]:
    return dict(f.packed) if order.native else {order.moved(k): c for k, c in f.packed}

def _from_dict(d: dict[int, int], ring: PolynomialRing,
               order: MonomialOrder) -> Polynomial:
    return ring._from_keys(d if order.native else
                           {order.moved(k, back=True): c for k, c in d.items()})


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
    out, mu = _buchberger_dicts([_to_dict(g, order) for g in gens], ring.prime, order)
    return GroebnerBasis(ring, order.descriptor,
                         tuple(_from_dict(d, ring, order) for d in out), mu)


# ---------------------------------------------------------------------------
# elimination, saturation, intersection, quotient


def _extend_ring(ring: PolynomialRing, extra: str) -> PolynomialRing:
    name = extra
    while name in ring.variables:
        name = "_" + name
    return PolynomialRing(prime=ring.prime, variables=ring.variables + (name,))

def _lift(f: Polynomial, target: PolynomialRing) -> Polynomial:
    """f in target, whose variables are f's with some added or dropped last.

    That leaves the plain packing as it is and moves only the degree field,
    so the keys keep their order.  A dropped variable must not occur in f.
    """
    old, new = _BITS * f.ring.nvars, _BITS * target.nvars
    out = []
    for key, c in f.packed:
        pk = _unrev(key, f.ring.nvars)
        if pk >> new:
            raise UsageError("polynomial still involves an eliminated variable")
        out.append(((((key + pk) >> old) << new) - pk, c))
    return Polynomial(target, tuple(out))


def _avoiding(elements, drop) -> list[Polynomial]:
    """The elements none of whose terms involve a variable in drop.

    Of a basis under a block order with drop dominant, these are the
    elements whose lead avoids drop, and they generate the contraction.
    A polynomial's first term is its degrevlex lead and cannot decide it.
    """
    mask = sum(_MASK << (_BITS * i) for i in drop)
    return [g for g in elements
            if not any(_unrev(k, g.ring.nvars) & mask for k, _ in g.packed)]


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


def _keeping_basis(gb: GroebnerBasis, src: Ideal) -> Ideal:
    """The ideal generated by gb, with gb cached on it.

    gb must be a basis of src.  It is cached only when src's generators are
    homogeneous: mu counts minimal generators only then, and an inhomogeneous
    ideal can have a homogeneous basis ((x + y^2, y^2) has basis (x, y^2)).
    """
    out = Ideal(gb.ring, gb.elements)
    if src.homogeneous:
        out._gb_cache[gb.order] = gb
    return out


def _saturate_variable(ideal: Ideal, i: int) -> Ideal:
    """I : z_i^infty for homogeneous I, under degrevlex with z_i last.

    A basis of I under that order that is already cached and has no element
    divisible by z_i is a basis of the saturation.  Otherwise one engine run
    over the generators divides each new element by the power of z_i in its
    lead as it is found (divide_last in _buchberger_dicts; Bayer-Stillman
    1987).  That run counts mu only when it divided nothing; after a division
    generator_profile counts it, if it is ever read.
    """
    ring, n = ideal.ring, ideal.ring.nvars
    order = MonomialOrder(n, last=i)
    gb = ideal._gb_cache.get(order.descriptor)
    zmask = _MASK << (_BITS * i)
    if gb is None or any(all(_unrev(k, n) & zmask for k, _ in g.packed)
                         for g in gb.elements):
        out, mu = _buchberger_dicts([_to_dict(g, order) for g in ideal.generators],
                                    ring.prime, order, divide_last=True)
        gb = GroebnerBasis(ring, order.descriptor,
                           tuple(_from_dict(d, ring, order) for d in out), mu)
    return _keeping_basis(gb, ideal)


def _variable_index(f: Polynomial) -> int | None:
    """i when f is a nonzero multiple of the variable z_i, else None."""
    if len(f.packed) != 1 or f.degree != 1:
        return None
    return (_unrev(f.packed[0][0], f.ring.nvars).bit_length() - 1) // _BITS


def _contract_t(ring: PolynomialRing, gens) -> Ideal:
    """The ideal gens(t, up) generates in ring[t], contracted to ring; t is a
    new last variable and up lifts a polynomial of ring into ring[t]."""
    big = _extend_ring(ring, "t")
    up = partial(_lift, target=big)
    kept = eliminate(Ideal(big, gens(big.variable(big.nvars - 1), up)),
                     [big.nvars - 1]).generators
    return Ideal(ring, [_lift(g, ring) for g in kept])


def _meet(parts) -> Ideal:
    """The intersection of a nonempty iterable of ideals, with its degrevlex
    basis cached on it."""
    out = reduce(ideal_intersection, parts)
    return _keeping_basis(out.groebner_basis(), out)


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f^infty = (I + (t*f - 1)) cap R; fast path for plain variables."""
    if f.is_zero():
        raise UsageError("cannot saturate by the zero polynomial")
    ring = ideal.ring
    if f.ring != ring:
        raise UsageError("saturating polynomial from a different ring")
    if ideal.is_zero():
        return Ideal(ring, ())
    # fast path: f is a single variable and I is homogeneous
    idx = _variable_index(f)
    if idx is not None and ideal.homogeneous:
        return _saturate_variable(ideal, idx)
    return _contract_t(ring, lambda t, up: [up(g) for g in ideal.generators]
                       + [t * up(f) - 1])


def _inside(a: Ideal, b: Ideal) -> bool:
    """Is a <= b, as read from a basis already cached on b under degrevlex
    with some z_i last?  False when b has no such basis: the test makes no
    engine run."""
    n, p = b.ring.nvars, b.ring.prime
    for i in range(n):
        order = MonomialOrder(n, last=i)
        gb = b._gb_cache.get(order.descriptor)
        if gb is not None:
            basis = _Basis(order, p)
            for g in gb.elements:
                basis.add(_to_dict(g, order))
            return not any(_reduce(_to_dict(g, order), basis, None)
                           for g in a.generators)
    return False


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    """I cap J = (t*I + (1 - t)*J) cap R.

    If I <= J the answer is I, and if J <= I it is J.  Containment is read
    only from a basis one of them already carries under degrevlex with some
    z_i last; when neither carries one, or neither contains the other, the
    t-elimination runs.
    """
    if a.ring != b.ring:
        raise UsageError("ideals from different rings")
    if a.is_zero() or b.is_zero():
        return Ideal(a.ring, ())
    if _inside(a, b):
        return a
    if _inside(b, a):
        return b
    return _contract_t(a.ring, lambda t, up: [t * up(g) for g in a.generators]
                       + [(1 - t) * up(g) for g in b.generators])


def _exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g, asserting exact divisibility."""
    ring = f.ring
    order = MonomialOrder(ring.nvars)
    gk, gc = g.packed[0]
    ginv = ring.field.inverse(gc)
    q = ring.zero()
    r = f
    while not r.is_zero():
        k, c = r.packed[0]
        if not order.divides(order.plain(gk), order.plain(k)):
            raise UsageError("division is not exact")
        term = Polynomial(ring, ((k - gk, (c * ginv) % ring.prime),))
        q = q + term
        r = r - term * g
    return q


def ideal_quotient(a: Ideal, b: Ideal) -> Ideal:
    """I : J = cap_g (I cap (g)) / g over the generators g of J."""
    if a.ring != b.ring:
        raise UsageError("ideals from different rings")
    ring = a.ring
    if b.is_zero():
        return Ideal(ring, (ring.one(),))

    def part(g: Polynomial) -> Ideal:
        meet = ideal_intersection(a, Ideal(ring, (g,)))
        return Ideal(ring, [_exact_divide(h, g) for h in meet.generators])

    return _meet(map(part, b.generators))


def saturate_by_ideal(a: Ideal, b: Ideal) -> Ideal:
    """I : J^infty = cap_g I : g^infty over the generators g of J.

    If f*g^N lies in I for each of J's r generators g, then so does f times
    every product of r(N - 1) + 1 generators, in which some g occurs N times
    (pigeonhole); conversely f*J^N <= I puts every f*g^N in I.
    """
    if a.ring != b.ring:
        raise UsageError("ideals from different rings")
    if b.is_zero():
        return Ideal(a.ring, (a.ring.one(),))
    return _meet(saturate(a, g) for g in b.generators)


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
        return _hilbert_function(self.numerator, self.nvars, d)


def _hilbert_function(numerator: UnivariatePolynomial, nvars: int, d: int) -> int:
    """HF(d) of the module with Hilbert series numerator / (1 - t)^nvars."""
    return sum(c * comb(d - j + nvars - 1, nvars - 1)
               for j, c in enumerate(numerator.coeffs[:d + 1]))


def _minimalize_monomials(gens: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    out = []
    for g in sorted(gens, key=sum):
        if not any(all(map(le, h, g)) for h in out):
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
    # 0 -> R/(I:x) (-1) -> R/I -> R/(I + x) -> 0; the generators of I + x
    # are x and those of I without x, which need no minimalization
    plus = frozenset([tuple(1 if i == best else 0 for i in range(nvars))]
                     + [g for g in gens if g[best] == 0])
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
    # the leads of a reduced basis are already minimal generators
    leads = frozenset(ideal.ring._exps(g.packed[0][0]) for g in gb.elements)
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
    hp = UnivariatePolynomial.zero()
    if dim > 0:
        # HF(d) = sum_j q_j * C(d - j + dim - 1, dim - 1)
        #       = sum_j q_j * prod_{k=1}^{dim-1} (d - j + k) / (dim - 1)!
        for j, c in enumerate(q.coeffs):
            term = UnivariatePolynomial((Fraction(c, factorial(dim - 1)),))
            for k in range(1, dim):
                term = term * UnivariatePolynomial((k - j, 1))
            hp = hp + term
    return HilbertData(numerator, dim, degree, hp, n)


def generator_profile(ideal: Ideal) -> dict[int, int]:
    """Minimal generator counts by degree, {degree: count}, for homogeneous I.

    Read from the mu of the degrevlex basis.  A basis made by a saturation's
    dividing run has none; then one engine run over that reduced basis counts
    it, stopping each degree once it has found the degree's leads (the
    engine's quota).  The zero and the unit ideal have no generators.
    """
    _require_homogeneous(ideal)
    if ideal.is_unit():
        return {}
    gb = ideal.groebner_basis()
    if gb.mu is not None:
        return dict(gb.mu)
    _, mu = _buchberger_dicts([dict(g.packed) for g in gb.elements],
                              ideal.ring.prime, MonomialOrder(ideal.ring.nvars),
                              quota=Counter(g.degree for g in gb.elements))
    return mu


def resolution_hilbert_numerator(terms) -> UnivariatePolynomial:
    """sum_h (-1)^h rank_h t^{twist_h} for (rank, twist, homological index) triples."""
    out = UnivariatePolynomial.zero()
    for rank, twist, h in terms:
        sign = -1 if h % 2 else 1
        out = out + UnivariatePolynomial((sign * rank,)).shift(twist)
    return out
