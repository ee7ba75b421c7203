"""Groebner engine and derived ideal invariants.

Buchberger with the Gebauer-Moeller pair criteria and normal (minimal lcm
degree) selection.  The engine works on {key: coeff} dicts of packed keys:
integer comparison realizes the term order and integer addition realizes
monomial multiplication.  Every order is a weight order refined by the
ring's degrevlex: its key is the key a Polynomial holds plus one weight
field shifted above it, and the ring's own order weighs nothing
(MonomialOrder).  All orders read one plain packing (one slot per variable,
variable i in slot i) off the low field by arithmetic.  Divisibility is a
SWAR check on it and an lcm is its slot-wise max (Monagan-Pearce 2011), so
the engine never unpacks a term into exponents.  Coefficients of the
working polynomial are reduced mod p only when their term is popped.
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
proportion to ncols * W; every other form takes the sparse loop.  An S-pair
(i, j) with lcm L whose two tails together pass that rule starts as the
packed row row(i, L - lead_i) + (p - 1) * row(j, L - lead_j) of two cached
rows, with no dict built: a slot then starts at most (p - 1) + (p - 1)^2,
below L's column, so at most ncols - 1 steps follow and the same W holds.
Each column remembers its reducer and that reducer's row while the answer
stays valid, and a step clears the top slot by an XOR.  The row loop pops
the same terms in the same order and takes the same first live divisor as
the sparse loop, so it returns the same remainder.

A run whose result is already known stops its work early.  A run that puts
a nonzero constant into its basis returns the unit ideal's basis at once,
since every remaining pair and input would reduce to zero.  And a
saturation's dividing run counts no mu; when a profile of its result is
read, generator_profile counts mu by one more run over the reduced basis G,
a quota run, which reads its leading ideal off G (Traverso 1996, sharpened
from lead counts to the leads).  Every new lead of degree d that such a run
finds is a degree-d lead of G it has not found yet, and a remainder leads
below an S-pair's lcm and at or below an input's lead; so a pair or input
whose bound lies below every unfound degree-d lead would reduce to zero and
is skipped, which leaves mu as it is.  The run returns G itself.

Elimination runs under a block order whose weight is the degrevlex key of
the dropped block, and keeps the basis elements whose lead weighs nothing.
Saturation by a single polynomial uses the auxiliary-variable method
(adjoin t, add t*f - 1, eliminate t).  For a homogeneous ideal and any plain
variable z_i there is a fast path under degrevlex with z_i last, where a
form is divisible by z_i exactly when its lead is (Bayer-Stillman).  So I
is saturated when a basis it carries under that order has no element
divisible by z_i (_saturated); otherwise one engine run from I's generators
divides each new element by the power of z_i in its lead as it finds it,
and the raw ideal's high-degree part, from the component on z_i = 0, is
never built.  The two paths agree and both are tested.  I : J^infty is I
when J has a variable by which I is saturated, and otherwise the
intersection of the I : g^infty over J's generators g.  The running
intersection S often lies in the next I : g^infty already, and g*S <= I
shows it: then S <= I : g <= I : g^infty, so S cap I : g^infty = S and g
is skipped (Cox-Little-O'Shea, Ch. 4 sec. 4).  Otherwise the saturation by
g runs and is met with S.  Those saturations often contain one another, so
an intersection first asks whether one ideal lies in the other: I cap J is
I when I <= J and J when J <= I.  Both tests, the skip's and the
intersection's, reduce one ideal's generators against a basis the other
already carries under degrevlex with some z_i last, so they start no engine
run; without such a basis the skip is not taken, and an intersection of two
ideals neither of which contains the other takes the t-elimination.

Hilbert data run on the plain packings of the degrevlex basis's leads too:
the pivot recursion (Bigatti 1997) gives their numerator, and
HilbertData.from_numerator reads the rest off it, or off a resolution's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import comb, factorial

from .errors import UsageError
from .poly import (_BITS, _MASK, _MAXEXP, Polynomial, PolynomialRing, _degree,
                   _slot_sum, _unrev)


class MonomialOrder:
    """Degrevlex with variable `last` last (native: z_n last, the ring's own),
    or a block elimination order with a dominant drop block, each a weight
    order refined by the ring's degrevlex (Cox-Little-O'Shea, Ch. 2 sec. 4).

    key(a) = moved(ring key of a): the ring key (the one a Polynomial stores)
    plus its weight shifted above it; larger key == larger monomial, and
    key(ab) = key(a) + key(b).  The native order weighs nothing, so its key
    is the ring key.  With z_i last the weight is (deg << 16) - e_i: by
    degree, then by fewer z_i, then as in the ring.  With a drop block D it
    is the degrevlex key of the D block, so any monomial in D outweighs
    every monomial without, and a key of weight 0 avoids D.
    plain(key): plain packing of the ring key (variable i in slot i) for
    SWAR divisibility tests and lcms; plain(key(a) + key(b)) =
    plain(key(a)) + plain(key(b)).
    """

    def __init__(self, nvars: int, drop: tuple[int, ...] = (), last: int | None = None):
        self.nvars = nvars
        self.drop = tuple(sorted(drop))
        if last is not None and (self.drop or not 0 <= last < nvars):
            raise UsageError(f"no degrevlex order on {nvars} variables has {last} last")
        self.last = nvars - 1 if last is None else last
        self.native = not self.drop and self.last == nvars - 1
        self.descriptor = (f"eliminate[{','.join(map(str, self.drop))}]" if self.drop
                           else "degrevlex" if self.native else f"degrevlex[{self.last}]")
        self._guard = sum(1 << (_BITS * i + _BITS - 1) for i in range(nvars))
        self._dmask = sum(_MASK << (_BITS * i) for i in self.drop)
        self._shift = _BITS * (nvars + 4)  # a ring key fits below this
        self._low = (1 << self._shift) - 1

    def plain(self, key: int) -> int:
        """Plain packing of a key; every exponent must stay below _MAXEXP.

        Keys formed by addition inside the engine carry exponents below
        2 * _MAXEXP; one at or above _MAXEXP would defeat the SWAR guard.
        """
        pk = _unrev(key, self.nvars)  # the weight field is a multiple of B^n
        if pk & self._guard:
            raise UsageError("exponent too large for packed order")
        return pk

    def unplain(self, pk: int) -> int:
        """The key whose plain packing is pk (plain's inverse)."""
        return self.moved((_slot_sum(pk, self.nvars) << (_BITS * self.nvars)) - pk)

    def lcm(self, a: int, b: int) -> int:
        """Plain packing of the lcm of two plain packings, their slot-wise max.
        With exponents below _MAXEXP no slot of (a | G) - b borrows from the
        next, and its guard bit survives exactly where a's is at least b's."""
        m = ((((a | self._guard) - b) & self._guard) >> (_BITS - 1)) * _MASK
        return (a & m) | (b & ~m)

    def moved(self, key: int, back: bool = False) -> int:
        """This order's key of the monomial with ring key key: the key plus
        its weight; with back, the ring key of this order's key."""
        if back:
            return key & self._low
        if self.native:
            return key
        n = self.nvars
        pk = _unrev(key, n)
        if self.drop:
            b = pk & self._dmask
            weight = (_slot_sum(b, n) << (_BITS * n)) - b
        else:
            weight = (_degree(key, n) << _BITS) - ((pk >> (_BITS * self.last)) & _MASK)
        return key + (weight << self._shift)

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
        # the dense path's column maps and column reducers by degree (see
        # _columns) and packed rows by (element, shift); an element never
        # changes once added
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
    """(keys, plain packings, {key: slot}, slot width W, reducers, reducer
    rows) of the degree-d monomials, slot 0 the smallest key, so that the
    top slot is the lead.

    A degree-d ring key is d * B^n minus its plain packing, and the order
    moves it to its own key, so the map is built from the packings alone.
    reducers[j] and reducer_rows[j] remember column j's reducer and the
    packed tail of its multiple.  A reducer i >= 0 stays valid while element
    i is alive, and -1 - n, no reducer among the first n elements, while the
    basis has n elements: as with find_reducer's memo, elements are only
    appended and only ever die, so the first live divisor stays the first
    while it lives.  The entries start at -1, valid while the basis is empty.
    """
    cols = basis.columns.get(d)
    if cols is None:
        order, p = basis.order, basis.p
        n = order.nvars
        unit = [1 << (_BITS * s) for s in range(n)]
        top = d << (_BITS * n)
        keys = sorted(map(order.moved, [top - sum(unit[s] for s in c) for c in
                                        combinations_with_replacement(range(n), d)]))
        pks = [top - (k & order._low) for k in keys]  # k & _low: the ring key
        width = _width(p, len(keys))
        cols = basis.columns[d] = (keys, pks, {k: j for j, k in enumerate(keys)}, width,
                                   [-1] * len(keys), [0] * len(keys))
    return cols


def _row(basis: _Basis, i: int, shift: int, cols: tuple) -> int:
    """The packed tail of element i times the monomial of key shift, in the
    column map cols of its degree; packed once, from the top term down, one
    shift and one or per term (the first shift moves a zero)."""
    row = basis.rows.get((i, shift))
    if row is None:
        _, _, col, width = cols[:4]
        p = basis.p
        row, at = 0, len(col)
        for tk, tc in reversed(basis.tail[i]):
            t = col[tk + shift]
            row = (row << (width * (at - t))) | (tc % p)
            at = t
        row = basis.rows[i, shift] = row << (width * at)
    return row


def _normal_form_dense(f: dict[int, int] | int, basis: _Basis, d: int) -> dict[int, int]:
    """_normal_form_dict(f, basis) for a degree-d form f, under an order with
    no drop block, with f a dict or already packed as one integer row.

    Slot j, W bits wide, holds the coefficient of the j-th smallest degree-d
    monomial.  A step reads the top nonzero slot mod p, clears it by an XOR
    (v << s holds exactly the row's bits at or above s), and, if a basis lead
    divides that monomial, adds (p - c) times the packed tail of the
    reducer's multiple, whose slots all lie below.  A packed dict starts its
    slots in [0, p) and a packed S-pair (_spoly) at most (p - 1) + (p - 1)^2,
    with every slot below the lcm's column.  Each step adds at most
    (p - 1)^2 to a slot, and every step clears a lower slot than the one
    before, so there are at most ncols steps for a dict and ncols - 1 for a
    pair; either way a slot stays at most (p - 1) + ncols * (p - 1)^2, which
    fits W = bit_length((p - 1) + ncols * (p - 1)^2) bits without a carry
    into the next slot.  The terms are popped in the same order and each
    reducer is the first live divisor, as find_reducer gives it, so the
    remainder is the sparse loop's.  A column's reducer and row are read
    from the column cache (_columns) while its entry is valid, and asked of
    find_reducer and _row otherwise.
    """
    cols = _columns(basis, d)
    keys, pks, col, width, reducers, reducer_rows = cols
    p = basis.p
    find_reducer, alive, lead_key = basis.find_reducer, basis.alive, basis.lead_key
    none = -1 - len(lead_key)  # no reducer in the basis as it stands
    if isinstance(f, int):
        r = f
    else:
        r = 0
        for k, c in f.items():
            r += (c % p) << (width * col[k])
    out: dict[int, int] = {}
    while r:
        j = (r.bit_length() - 1) // width
        s = width * j
        v = r >> s
        r ^= v << s
        c = v % p
        if not c:
            continue
        i = reducers[j]
        if i >= 0 and alive[i]:
            row = reducer_rows[j]
        elif i == none:
            out[keys[j]] = c
            continue
        else:
            i = find_reducer(pks[j])
            if i < 0:
                reducers[j] = none
                out[keys[j]] = c
                continue
            reducers[j] = i
            row = reducer_rows[j] = _row(basis, i, keys[j] - lead_key[i], cols)
        r += (p - c) * row
    return out


def _dense(t: int, basis: _Basis, d: int | None) -> bool:
    """Does a degree-d form with t terms take the row loop?  d is as in
    _reduce: None takes the sparse loop.

    A form does when it has at least a quarter of the ncols = C(n + d - 1, d)
    monomials of its degree, or when it has at least 64 terms and
    256 * t >= ncols * W, W the slot width of _width: a row step costs
    big-integer work in proportion to ncols * W, and below 64 terms the
    sparse loop is cheap at any width.  ncols and W are counted, not listed,
    so deciding builds no column map.
    """
    # below _MAXEXP every degree-d monomial is one plain() accepts
    if d is None or d >= _MAXEXP:
        return False
    ncols = comb(basis.order.nvars + d - 1, d)
    return 4 * t >= ncols or (t >= 64 and 256 * t >= ncols * _width(basis.p, ncols))


def _reduce(f: dict[int, int] | int, basis: _Basis, d: int | None) -> dict[int, int]:
    """The engine's normal form of f, a dict or a packed row of _spoly; d is
    f's degree when f is a form under an order with no drop block, else
    None.  A packed row goes straight to the row loop, and a dict takes it
    when _dense says so."""
    if isinstance(f, int) or _dense(len(f), basis, d):
        return _normal_form_dense(f, basis, d)
    return _normal_form_dict(f, basis)


def _monic(d: dict[int, int], p: int) -> dict[int, int]:
    """d scaled so that its coefficient at the largest key is 1."""
    lc = d[max(d)]
    if lc == 1:
        return d
    inv = pow(lc, p - 2, p)
    return {k: (c * inv) % p for k, c in d.items()}


def _spoly(basis: _Basis, i: int, j: int, lcm_key: int,
           d: int | None) -> dict[int, int] | int:
    """The S-polynomial m_i * tail_i - m_j * tail_j of the pair (i, j) with
    lcm lcm_key, m the monomial that lifts a lead to the lcm; d is as in
    _reduce.

    When _dense holds on len(tail_i) + len(tail_j), it is the packed row
    row(i, m_i) + (p - 1) * row(j, m_j) from the cached rows (_row), a slot
    at most (p - 1) + (p - 1)^2 and every slot below the lcm's column; no
    dict is built and nothing is repacked.  Otherwise it is a dict of its
    nonzero coefficients mod p.
    """
    p = basis.p
    si = lcm_key - basis.lead_key[i]
    sj = lcm_key - basis.lead_key[j]
    if _dense(len(basis.tail[i]) + len(basis.tail[j]), basis, d):
        cols = _columns(basis, d)
        return _row(basis, i, si, cols) + (p - 1) * _row(basis, j, sj, cols)
    out: dict[int, int] = {}
    for tk, tc in basis.tail[i]:
        out[tk + si] = tc
    for tk, tc in basis.tail[j]:
        k = tk + sj
        c = (out.get(k, 0) - tc) % p
        if c:
            out[k] = c
        elif k in out:
            del out[k]
    return out


def _buchberger_dicts(inputs: list[dict[int, int]], p: int, order: MonomialOrder,
                      quota: bool = False, divide_last: bool = False
                      ) -> tuple[list[dict[int, int]], dict[int, int] | None]:
    """Reduced Groebner basis of the given polynomial dicts, and mu.

    Inputs and S-pairs share one queue in degree order, the degree-d pairs
    before the degree-d inputs (Kreuzer-Robbiano, CCA2 4.6).  mu[d] counts
    the degree-d inputs left with a nonzero remainder; for homogeneous
    inputs that is the number of degree-d minimal generators.

    A run whose next basis element is a nonzero constant, after any
    division below, returns [{0: 1}] at once: every remaining pair and input
    would reduce to zero, so the reduced basis and mu are what the full run
    would give.

    A quota run (Traverso, J. Symbolic Comput. 22, 1996, with the leads in
    place of their counts) takes as inputs the reduced basis G, under this
    degrevlex order, of a homogeneous ideal I, and returns G and mu.  Its
    quota is G's leads, read off the inputs by degree.  After the items of
    degree below d the partial basis is a Groebner basis of I up to degree
    d - 1, so its leads include every minimal generator of lt(I) below
    degree d.  A new degree-d lead lies in lt(I) and is divisible by no
    partial-basis lead, so it is a degree-d minimal generator of lt(I): a
    degree-d lead of G that the run has not found yet.  A pair's remainder
    leads below the pair's lcm, so the run skips, as reducing to zero, a
    degree-d pair whose lcm is at or below every unfound degree-d lead:
    pairs pop in ascending lcm order, so these are a prefix of the degree's
    pairs, or all of them once the degree has no unfound lead.  Inputs pop
    after their degree's pairs, by ascending lead, so an input's lead is
    either found already, and the input, whose remainder leads at or below
    it, is skipped too; or the lowest unfound lead, and the input joins
    unreduced, as no other lead of a reduced G divides a term of it.
    A skipped item changes neither the basis nor mu.  A new lead that is not
    an unfound lead of G shows that the inputs were no reduced basis, and
    raises a UsageError.  The run builds no reduced basis of its own.

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
    A quota is the leads of I's basis, not of I : z^infty's, so a quota run
    never divides.  After a division mu is None, since the inputs no
    longer meet the basis of the ideal they generate; generator_profile
    counts it by a quota run when it is read.
    """
    basis = _Basis(order, p)
    pairs: list[tuple[int, ...]] = []  # (lcm degree, lcm key, i, j, lcm packing)
    n = order.nvars

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
    # every seed, S-polynomial and tail of a run over forms is a form
    forms = not order.drop and all(_slot_sum(order.plain(min(f)), n) == deg
                                   for deg, f in seeds)
    # a quota run's leads still to find, by degree: at first all of G's
    unfound: dict[int, set[int]] = {}
    if quota:
        for deg, f in seeds:
            unfound.setdefault(deg, set()).add(max(f))

    zshift = _BITS * order.last  # z's slot in the plain packing
    zkey = order.unplain(1 << zshift)
    divided = False
    mu: dict[int, int] = {}
    nxt = 0
    while nxt < len(seeds) or pairs:
        take_seed = nxt < len(seeds) and (not pairs or seeds[nxt][0] < pairs[0][0])
        deg = seeds[nxt][0] if take_seed else pairs[0][0]
        form_deg = deg if forms else None
        if quota:
            ahead = unfound.get(deg)
            low = min(ahead) if ahead else None  # None: the degree is done
        if take_seed:
            f = seeds[nxt][1]
            nxt += 1
            if quota and max(f) != low:
                continue
            r = f if quota else _reduce(f, basis, form_deg)
            if r:
                mu[deg] = mu.get(deg, 0) + 1
        else:
            _, lk, i, j, _ = heapq.heappop(pairs)
            if quota and (low is None or lk <= low):
                continue
            r = _reduce(_spoly(basis, i, j, lk, form_deg), basis, form_deg)
        if r:
            r = _monic(r, p)
            e = (order.plain(max(r)) >> zshift) & _MASK if divide_last else 0
            if e:
                r = {k - e * zkey: c for k, c in r.items()}
                divided = True
            lead = max(r)
            if not lead:  # the unit: every other item would reduce to zero
                return [{0: 1}], None if divided else mu
            if quota:
                if lead not in ahead:
                    raise UsageError("a quota run's inputs must be a reduced basis "
                                     "under its order")
                ahead.remove(lead)
            update(r)
    if quota:
        return inputs, mu

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
# elimination, saturation, intersection


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
    order = MonomialOrder(ring.nvars, tuple(drop))
    # a basis element whose lead weighs 0 avoids drop, since every term in a
    # dropped variable weighs more; those elements generate the contraction
    out, _ = _buchberger_dicts([_to_dict(g, order) for g in ideal.generators],
                               ring.prime, order)
    return Ideal(ring, [_from_dict(d, ring, order) for d in out
                        if not max(d) >> order._shift])


def _saturated(ideal: Ideal, i: int) -> bool:
    """Is homogeneous I = I : z_i^infty, as read off a basis I already
    carries under degrevlex with z_i last?  Yes when no element of it is
    divisible by z_i (Bayer-Stillman 1987); False when I carries none."""
    n = ideal.ring.nvars
    gb = ideal._gb_cache.get(MonomialOrder(n, last=i).descriptor)
    zmask = _MASK << (_BITS * i)
    return gb is not None and not any(all(_unrev(k, n) & zmask for k, _ in g.packed)
                                      for g in gb.elements)


def _saturate_variable(ideal: Ideal, i: int) -> Ideal:
    """I : z_i^infty for homogeneous I: one engine run over I's generators
    under degrevlex with z_i last divides each new element by the power of
    z_i in its lead as it is found (divide_last in _buchberger_dicts).  The
    run counts mu only when it divided nothing; otherwise generator_profile
    counts it, if it is ever read.  The saturation carries the run's basis."""
    ring, order = ideal.ring, MonomialOrder(ideal.ring.nvars, last=i)
    out, mu = _buchberger_dicts([_to_dict(g, order) for g in ideal.generators],
                                ring.prime, order, divide_last=True)
    sat = Ideal(ring, [_from_dict(d, ring, order) for d in out])
    sat._gb_cache[order.descriptor] = GroebnerBasis(ring, order.descriptor,
                                                    sat.generators, mu)
    return sat


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
        return ideal if _saturated(ideal, idx) else _saturate_variable(ideal, idx)
    return _contract_t(ring, lambda t, up: [up(g) for g in ideal.generators]
                       + [t * up(f) - 1])


def _inside(a: Ideal, b: Ideal) -> bool:
    """Is a <= b, as read from a basis already cached on b under degrevlex
    with some z_i last?  False when b has no such basis: the test makes no
    engine run.  It serves both ideal_intersection's containment shortcut
    and saturate_by_ideal's skip, where a is g*S and b is I."""
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


def saturate_by_ideal(a: Ideal, b: Ideal) -> Ideal:
    """I : J^infty = cap_g I : g^infty over the generators g of J.

    If f*g^N lies in I for each of J's r generators g, then so does f times
    every product of r(N - 1) + 1 generators, in which some g occurs N times
    (pigeonhole); conversely f*J^N <= I puts every f*g^N in I.

    I <= I : J^infty <= I : z^infty for a variable z among the g, so the
    answer is I when homogeneous I is saturated by z.  Otherwise a g with
    g*S <= I, S the intersection so far, is skipped: S <= I : g^infty, so
    S cap I : g^infty = S.  _inside reads g*S <= I off a basis I carries.
    """
    if a.ring != b.ring:
        raise UsageError("ideals from different rings")
    if b.is_zero():
        return Ideal(a.ring, (a.ring.one(),))
    if a.homogeneous and any(i is not None and _saturated(a, i)
                             for i in map(_variable_index, b.generators)):
        return a
    out = None
    for g in b.generators:
        if out is not None and _inside(Ideal(a.ring, [g * s for s in out.generators]), a):
            continue  # g*S <= I puts S in I : g^infty
        sat = saturate(a, g)
        out = sat if out is None else ideal_intersection(out, sat)
    return out


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

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial([self[i] - other[i] for i in range(n)])

    def __mul__(self, other):
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
    """Numerator N of a Hilbert series N / (1 - t)^nvars, Krull dimension,
    degree, Hilbert polynomial; from_numerator reads the last three off N."""

    numerator: UnivariatePolynomial
    krull_dimension: int
    degree: int
    hilbert_polynomial: UnivariatePolynomial
    nvars: int = field(compare=False, default=0)

    @classmethod
    def from_numerator(cls, numerator: UnivariatePolynomial, nvars: int) -> HilbertData:
        """The data of numerator / (1 - t)^nvars: with numerator = (1 - t)^codim
        * q and q(1) != 0, the degree is q(1); a zero numerator is the unit
        ideal's, of Krull dimension -1."""
        if numerator.is_zero():
            return cls(numerator, -1, 0, UnivariatePolynomial.zero(), nvars)
        codim = 0
        q = numerator
        while q(1) == 0:
            q = q.divide_one_minus_t()
            codim += 1
        dim = nvars - codim
        hp = UnivariatePolynomial.zero()
        if dim > 0:
            # HF(d) = sum_j q_j * C(d - j + dim - 1, dim - 1)
            #       = sum_j q_j * prod_{k=1}^{dim-1} (d - j + k) / (dim - 1)!
            for j, c in enumerate(q.coeffs):
                term = UnivariatePolynomial((Fraction(c, factorial(dim - 1)),))
                for k in range(1, dim):
                    term = term * UnivariatePolynomial((k - j, 1))
                hp = hp + term
        return cls(numerator, dim, q(1), hp, nvars)

    @property
    def codim(self) -> int:
        return self.nvars - self.krull_dimension

    def hilbert_function(self, d: int) -> int:
        """Actual Hilbert function value from the numerator (valid for all d)."""
        return _hilbert_function(self.numerator, self.nvars, d)


def _hilbert_function(numerator: UnivariatePolynomial, nvars: int, d: int) -> int:
    """HF(d) of the module with Hilbert series numerator / (1 - t)^nvars."""
    return sum(c * comb(d - j + nvars - 1, nvars - 1)
               for j, c in enumerate(numerator.coeffs[:d + 1]))


def _monomial_numerator(gens: frozenset[int], order: MonomialOrder,
                        memo: dict) -> UnivariatePolynomial:
    """Hilbert numerator of R/I, I the monomial ideal generated by gens,
    plain packings of order's n slots (Bigatti 1997)."""
    if not gens:
        return UnivariatePolynomial.one()
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if 0 in gens:
        return UnivariatePolynomial.zero()
    n = order.nvars
    counts = [sum(1 for g in gens if g >> s & _MASK) for s in range(0, _BITS * n, _BITS)]
    best = max(range(n), key=counts.__getitem__)
    if counts[best] <= 1:
        # pairwise coprime supports: product of (1 - t^deg)
        out = UnivariatePolynomial.one()
        for g in gens:
            out = out - out.shift(_slot_sum(g, n))
    else:
        # 0 -> R/(I:x^m) (-m) -> R/I -> R/(I + x^m) -> 0, m the least positive
        # exponent of x; I + x^m is x^m and the g without x, already minimal
        slot = _MASK << (_BITS * best)
        xm = min(g & slot for g in gens if g & slot)
        plus = frozenset([xm] + [g for g in gens if not g & slot])
        # I : x^m drops x^m from each g with x; keep the minimal ones
        colon = []
        for g in sorted({g - xm if g & slot else g for g in gens},
                        key=partial(_slot_sum, k=n)):
            if not any(order.divides(h, g) for h in colon):
                colon.append(g)
        out = _monomial_numerator(plus, order, memo) \
            + _monomial_numerator(frozenset(colon), order, memo).shift(xm >> _BITS * best)
    memo[gens] = out
    return out


def _require_homogeneous(ideal: Ideal) -> None:
    for idx, g in enumerate(ideal.generators):
        if not g.is_homogeneous():
            raise UsageError(f"generator {idx} is not homogeneous: {g}")


def hilbert(ideal: Ideal) -> HilbertData:
    """Hilbert data of R/I for homogeneous I (usage error otherwise), read
    off the plain packings of its degrevlex basis's leads."""
    _require_homogeneous(ideal)
    n = ideal.ring.nvars
    leads = frozenset(_unrev(g.packed[0][0], n) for g in ideal.groebner_basis().elements)
    return HilbertData.from_numerator(_monomial_numerator(leads, MonomialOrder(n), {}), n)


def generator_profile(ideal: Ideal) -> dict[int, int]:
    """Minimal generator counts by degree, {degree: count}, for homogeneous I.

    Read from the mu of the degrevlex basis.  A basis made by a saturation's
    dividing run has none; then a quota run over that reduced basis G counts
    it (_buchberger_dicts).  Each lead the run finds is one of G's it has not
    found yet, and an S-pair's remainder leads below the pair's lcm, so the
    run skips the pairs and inputs that cannot reach an unfound lead of
    their degree.  The zero and the unit ideal have no generators.
    """
    _require_homogeneous(ideal)
    if ideal.is_unit():
        return {}
    gb = ideal.groebner_basis()
    if gb.mu is not None:
        return dict(gb.mu)
    _, mu = _buchberger_dicts([dict(g.packed) for g in gb.elements],
                              ideal.ring.prime, MonomialOrder(ideal.ring.nvars),
                              quota=True)
    return mu


def resolution_hilbert_numerator(terms) -> UnivariatePolynomial:
    """sum_h (-1)^h rank_h t^{twist_h} for (rank, twist, homological index) triples."""
    out = UnivariatePolynomial.zero()
    for rank, twist, h in terms:
        sign = -1 if h % 2 else 1
        out = out + UnivariatePolynomial((sign * rank,)).shift(twist)
    return out
