"""Brute-force oracles and reference implementations that only the tests use.

The Bott calculator reads the length of a signed permutation as the number
of positive roots with which the weight pairs negatively.
hyperoctahedral_word_lengths finds the minimal word lengths by breadth-first
search over the hyperoctahedral group, so the tests can hold the degree of
bott_type_c at w.rho - rho against the word length of w.

saturate_by_iterated_quotient computes I : J^infty as the first of
I : J, I : J^2, ... that the next quotient leaves as it is, so the tests can
hold saturate_by_ideal's intersection of per-generator saturations against it.
ideal_quotient forms each I : J by dividing I cap (g) by g, and
intersection_by_elimination always takes the t-elimination, so neither runs
the containment shortcut of ideal_intersection that the tests check.
degrevlex_cmp compares exponent tuples by the definition of degrevlex, so the
tests can hold the engine's packed keys against it; order_key is the key an
order gives an exponent tuple, its ring key moved into the order.
unpack_row reads a packed row of the engine's row loop back into a
{key: coefficient} dict slot by slot, from the column map of its degree, so
the tests can hand a packed S-pair to the sparse loop and compare it with
the S-polynomial built as a dict.
w39_matrix_by_deletion builds the whole skew 9x9 comultiplication matrix
of a degree-3 tensor and deletes the chart row and column, so the tests can
hold w39_matrix, which never builds the 9x9 matrix, against it.
cofactor_determinant expands a determinant along its first row, a path that
shares nothing with the Pfaffian recursion, so the tests can check Pf^2 = det.
matching_pfaffian sums over perfect matchings, each signed by its number of
crossing pairs, so the tests can check the Pfaffian itself, sign included.
hook_content_dim is the hook content formula for the rank of a Schur
functor, so the tests can hold schur_dim's Weyl product against it.
s7_orbit maps a vinberg configuration key through all 5040 permutations of
1..7, so the tests can hold the generator closure of vinberg._orbit against it.
tangent_rows builds the gl_7 tangent matrix of a degree-3 tensor on sorted
index tuples, signing each E_ab image by the inversions of the permutation
that sorts it, and rank_mod_p is Gauss-Jordan elimination with row swaps, so
the tests can hold vinberg's mask rows and pivot-dict rank against them.
is_pentagon_by_cyclic_order tries every order of five coordinate lines for
one in which each line meets exactly its two cyclic neighbours, so the tests
can hold the degree count of pipeline._is_pentagon against it.
dense_profile counts minimal generators degree by degree as
dim I_d - rank(R_1 * I_(d-1)), by dense ranks of all multiples of the
generators, so the tests can hold generator_profile against it.
monomial_numerator_by_tuples is the pivot recursion for the Hilbert
numerator of a monomial ideal on exponent tuples, minimalizing by
slot-by-slot comparison, so the tests can hold groebner._monomial_numerator,
which runs on plain packings and tests divisibility by SWAR, against it.
It recurses one level per unit of its pivot's exponent, so
monomial_numerator_by_taylor sums (-1)^|S| t^deg lcm(S) over the subsets S
of the generators instead (the Taylor complex, or inclusion-exclusion over
the principal ideals), which holds for exponents of any size.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement, permutations
from operator import le

from theta_loci.groebner import Ideal, UnivariatePolynomial, _contract_t
from theta_loci.multilinear import SkewMatrix
from theta_loci.poly import Polynomial, PolynomialRing, _revkey
from theta_loci.vinberg import _TRIPLE_INDEX, TRIPLES


def degrevlex_cmp(a, b) -> int:
    """-1, 0 or +1 as exponent tuple a is below, equal to or above b.

    Higher total degree wins; on ties the tuple with the smaller exponent
    on the last differing variable (scanning from the last variable) is larger.
    """
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def order_key(order, exps) -> int:
    """The key of the monomial with exponents exps under a MonomialOrder."""
    return order.moved(_revkey(exps))


def unpack_row(r: int, basis, d: int) -> dict[int, int]:
    """{key: coefficient mod p} of the nonzero slots of a packed degree-d row
    over basis, read off the column map basis.columns[d] (keys, ..., width)."""
    keys, width = basis.columns[d][0], basis.columns[d][3]
    mask = (1 << width) - 1
    out = {}
    for j, key in enumerate(keys):
        c = ((r >> (width * j)) & mask) % basis.p
        if c:
            out[key] = c
    return out


def hyperoctahedral_word_lengths(n: int) -> dict[tuple[int, ...], int]:
    """BFS word lengths w.r.t. s_1..s_{n-1} (adjacent swap) and s_n (negate last)."""
    ident = tuple(range(1, n + 1))
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            neighbors = []
            for i in range(n - 1):  # s_i w: swap the values i+1 and i+2
                a, b = i + 1, i + 2
                swapped = []
                for x in w:
                    if abs(x) == a:
                        swapped.append(b if x > 0 else -b)
                    elif abs(x) == b:
                        swapped.append(a if x > 0 else -a)
                    else:
                        swapped.append(x)
                neighbors.append(tuple(swapped))
            neighbors.append(tuple(-x if abs(x) == n else x for x in w))  # s_n w
            for u in neighbors:
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def saturate_by_iterated_quotient(a: Ideal, b: Ideal) -> Ideal:
    """I : J^infty as a stabilized iterated quotient: I : J^(k+1) is
    (I : J^k) : J, and the chain stops once a quotient changes nothing."""
    cur = a
    while True:
        nxt = ideal_quotient(cur, b)
        if nxt == cur:
            return cur
        cur = nxt


def intersection_by_elimination(a: Ideal, b: Ideal) -> Ideal:
    """I cap J = (t*I + (1 - t)*J) cap R, eliminating t."""
    return _contract_t(a.ring, lambda t, up: [t * up(g) for g in a.generators]
                       + [(1 - t) * up(g) for g in b.generators])


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g by long division on leading terms; ValueError unless exact."""
    ring = f.ring
    g_exps, g_coeff = g.terms[0]
    g_inv = ring.field.inverse(g_coeff)
    q = ring.zero()
    while not f.is_zero():
        f_exps, f_coeff = f.terms[0]
        shift = tuple(a - b for a, b in zip(f_exps, g_exps))
        if min(shift) < 0:
            raise ValueError(f"{g} does not divide {f}")
        term = ring.monomial(shift, f_coeff * g_inv % ring.prime)
        q = q + term
        f = f - term * g
    return q


def ideal_quotient(a: Ideal, b: Ideal) -> Ideal:
    """I : J = cap_g (I cap (g)) / g over the generators g of J."""
    ring = a.ring
    if b.is_zero():
        return Ideal(ring, (ring.one(),))

    def part(g: Polynomial) -> Ideal:
        meet = intersection_by_elimination(a, Ideal(ring, (g,)))
        return Ideal(ring, [exact_divide(h, g) for h in meet.generators])

    return reduce(intersection_by_elimination, map(part, b.generators))


def w39_matrix_by_deletion(v, chart: int = 9) -> SkewMatrix:
    """The 8x8 chart matrix of a degree-3 tensor on C^9: e_i ^ e_j ^ e_k
    with coefficient c adds -c z_k at (i, j), +c z_j at (i, k) and -c z_i at
    (j, k) of the 9x9 matrix, whose chart row and column are then deleted."""
    ring = PolynomialRing(prime=v.prime, nvars=9)
    z = ring.gens()
    full = {}
    for (i, j, k), c in v.coefficients.items():
        for r, s, f in ((i, j, -z[k - 1]), (i, k, z[j - 1]), (j, k, -z[i - 1])):
            full[(r - 1, s - 1)] = full.get((r - 1, s - 1), ring.zero()) + f.scale(c)
    big = SkewMatrix.from_upper(ring, 9, full)
    return big.submatrix(i for i in range(9) if i != chart - 1)


def cofactor_determinant(matrix) -> Polynomial:
    """det of a square matrix of polynomials (a SkewMatrix or any object
    with ring and entries), by cofactor expansion along the first row."""

    def det(rows):
        if not rows:
            return matrix.ring.one()
        total = matrix.ring.zero()
        for j, a in enumerate(rows[0]):
            if not a.is_zero():
                cof = det([row[:j] + row[j + 1:] for row in rows[1:]])
                total = total + (a * cof if j % 2 == 0 else -(a * cof))
        return total

    return det([tuple(row) for row in matrix.entries])


def _matchings(rows):
    """The perfect matchings of an increasing tuple, as tuples of pairs."""
    if not rows:
        yield ()
        return
    for k in range(1, len(rows)):
        rest = rows[1:k] + rows[k + 1:]
        for m in _matchings(rest):
            yield ((rows[0], rows[k]),) + m


def matching_pfaffian(matrix, rows=None) -> Polynomial:
    """Pf of the principal submatrix on rows (all rows by default): the sum
    over the perfect matchings of the product of their entries (i, j), i < j,
    times -1 to the number of crossing pairs a < c < b < d."""
    rows = tuple(range(matrix.size) if rows is None else sorted(rows))
    ring = matrix.ring
    total = ring.zero()
    if len(rows) % 2:
        return total
    for pairs in _matchings(rows):
        term = ring.one()
        for i, j in pairs:
            term = term * matrix.entries[i][j]
        crossings = sum(1 for (a, b), (c, d) in combinations(sorted(pairs), 2)
                        if a < c < b < d)
        total = total + (-term if crossings % 2 else term)
    return total


def cells(lam):
    """The cells (row, column) of a partition's diagram, row by row."""
    return [(i, j) for i, row in enumerate(lam) for j in range(row)]


def content(cell) -> int:
    i, j = cell
    return j - i


def hook(lam, cell) -> int:
    """Cells to the right of cell, below it, and cell itself."""
    i, j = cell
    return (lam[i] - j - 1) + sum(1 for row in lam[i + 1:] if row > j) + 1


def hook_content_dim(lam, n: int) -> Fraction:
    """prod over the cells of lam of (n + content) / hook."""
    out = Fraction(1)
    for cell in cells(lam):
        out *= Fraction(n + content(cell), hook(lam, cell))
    return out


@cache
def _s7_index_maps():
    """For each of the 5040 permutations of 1..7, the induced map on triple
    indices."""
    return tuple(tuple(_TRIPLE_INDEX[tuple(sorted(sigma[x - 1] for x in t))]
                       for t in TRIPLES)
                 for sigma in permutations(range(1, 8)))


def s7_orbit(key) -> set[tuple]:
    """The S_7 orbit of a configuration key (a2 indices, a1 indices), one
    image per permutation."""
    a2_idx, a1_idx = key
    return {(tuple(sorted(row[i] for i in a2_idx)),
             tuple(sorted(row[i] for i in a1_idx))) for row in _s7_index_maps()}


def _apply_elementary(a: int, b: int, triple, coeff: int, prime: int, acc):
    """Accumulate E_{ab} . (coeff * e_triple) into acc (dict on sorted triples)."""
    for slot, x in enumerate(triple):
        if x != b:
            continue
        replaced = list(triple)
        replaced[slot] = a
        if len(set(replaced)) < 3:
            continue
        sign = 1
        arranged = sorted(replaced)
        # sign of the permutation sorting the replaced slot into position
        perm = sorted(range(3), key=lambda r: replaced[r])
        inv = sum(1 for r in range(3) for s in range(r + 1, 3)
                  if perm[r] > perm[s])
        if inv % 2:
            sign = -1
        key = tuple(arranged)
        acc[key] = (acc.get(key, 0) + sign * coeff) % prime


def tangent_rows(v) -> list[list[int]]:
    """The rows E_ab . v of the tangent matrix of a degree-3 tensor on C^7,
    leaving out each E_ab that kills every triple of v; columns in the order
    of vinberg.TRIPLES."""
    rows = []
    for a in range(1, 8):
        for b in range(1, 8):
            acc: dict[tuple[int, ...], int] = {}
            for triple, c in v.coefficients.items():
                _apply_elementary(a, b, triple, c, v.prime, acc)
            if acc:
                rows.append([acc.get(t, 0) for t in TRIPLES])
    return rows


def rank_mod_p(rows, p: int) -> int:
    """Gauss-Jordan elimination rank of a small dense matrix mod p."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def is_pentagon_by_cyclic_order(lines) -> bool:
    """Do the lines form one 5-cycle: is there an order in which each line
    shares an index with its two cyclic neighbours and with no other line?"""
    if len(lines) != 5:
        return False
    for order in permutations(lines):
        if all(bool(set(order[i]) & set(order[j])) == ((j - i) % 5 in (1, 4))
               for i, j in combinations(range(5), 2)):
            return True
    return False


def dense_profile(ideal):
    """Oracle: mu_d = dim I_d - rank(R_1 * I_(d-1)), by dense ranks mod p."""
    n = ideal.ring.nvars
    profile = {}
    for d in range(1, max(g.degree for g in ideal.generators) + 1):
        # the multiples m*g of degree d span I_d; those with deg m >= 1
        # span R_1 * I_(d-1)
        columns = list(exponents_of_degree(n, d))
        every, shifted = [], []
        for g in ideal.generators:
            k = d - g.degree
            for mono in exponents_of_degree(n, k) if k >= 0 else ():
                terms = {tuple(a + b for a, b in zip(mono, e)): c
                         for e, c in g.terms}
                row = [terms.get(e, 0) for e in columns]
                every.append(row)
                if k >= 1:
                    shifted.append(row)
        mu = (rank_mod_p(every, ideal.ring.prime)
              - rank_mod_p(shifted, ideal.ring.prime))
        if mu:
            profile[d] = mu
    return profile


def exponents_of_degree(n, k):
    for combo in combinations_with_replacement(range(n), k):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _minimalize_monomials(gens):
    out = []
    for g in sorted(gens, key=sum):
        if not any(all(map(le, h, g)) for h in out):
            out.append(g)
    return frozenset(out)


def monomial_numerator_by_tuples(gens, nvars: int, memo=None) -> UnivariatePolynomial:
    """Hilbert numerator of R/(monomial ideal), pivot-variable recursion on
    the exponent tuples gens of its generators."""
    gens = _minimalize_monomials(gens)
    memo = {} if memo is None else memo
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
    plus = frozenset([tuple(1 if i == best else 0 for i in range(nvars))]
                     + [g for g in gens if g[best] == 0])
    colon = frozenset(tuple(e - 1 if i == best and e > 0 else e for i, e in enumerate(g))
                      for g in gens)
    out = monomial_numerator_by_tuples(plus, nvars, memo) \
        + monomial_numerator_by_tuples(colon, nvars, memo).shift(1)
    memo[gens] = out
    return out


def monomial_numerator_by_taylor(gens) -> UnivariatePolynomial:
    """Hilbert numerator of R/(monomial ideal), the alternating sum over the
    subsets S of the exponent tuples gens of (-1)^|S| t^deg lcm(S)."""
    coeffs = {}
    for k in range(len(gens) + 1):
        for subset in combinations(gens, k):
            d = sum(map(max, zip(*subset)))
            coeffs[d] = coeffs.get(d, 0) + (-1) ** k
    return UnivariatePolynomial([coeffs.get(d, 0) for d in range(max(coeffs) + 1)])
