"""Borel-Weil-Bott calculator (types A and C) and representation dimensions.

The dotted action w.(a) = w(a + rho) - rho drives everything, through one rule
for both types (Bott's theorem): pair a + rho with every positive root.  A zero
pairing means all cohomology vanishes; otherwise the cohomological degree is
the number of negative pairings, which is the length of the (signed)
permutation sorting a + rho, and the dominant weight is a + rho sorted (by
absolute value in type C) minus rho.  The test suite holds the degree against
minimal word lengths found by breadth-first search in the generators
s_1..s_{n-1} (adjacent swaps) and s_n (negate the last coordinate).

The explicit Schur module is the image of the columns' exterior powers in the
rows' symmetric powers, expanded from one table of signed orderings per
column length.  Resolution terms have h >= 0 and mult >= 1, and a weight has
at most N - 1 (type A) or n - 1 (type C) entries.

Line-bundle translation conventions:

* type A, on P^{N-1}: the weight-lambda bundle on the rank N-1 tautological
  quotient twisted by O(d) corresponds to the length-N weight
  (d, -lambda_{N-1}, ..., -lambda_1).
* type C, on P^{2n-1}: the symplectic weight-lambda bundle on the rank 2n-2
  subquotient twisted by O(d) corresponds to (d, lambda_1, ..., lambda_{n-1}).
  The sign convention here is calibrated against the known cohomology tables
  reproduced in the acceptance suite rather than derived.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import (accumulate, chain, combinations, pairwise, permutations,
                       product, starmap)
from math import comb, log2, log10, prod
from operator import add, mul, sub

from .errors import UsageError


# ---------------------------------------------------------------------------
# partitions


def _partition(lam) -> tuple[int, ...]:
    """lam as weakly decreasing integers, trailing zeros stripped."""
    lam = tuple(int(x) for x in lam)
    if any(a < b for a, b in pairwise(lam)):
        raise UsageError(f"{lam} is not weakly decreasing")
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The column lengths of a partition's diagram."""
    return tuple(sum(p > j for p in parts) for j in range(parts[0] if parts else 0))


def schur_dim(lam, n: int) -> int:
    """Rank of the weight-lam Schur functor on an n-dimensional space.

    Weyl's product over the l nonzero rows (0-based i, j):
    prod_{i<j<l} (lam_i - lam_j + j - i) / (j - i)
    * prod_{i<l} C(lam_i + n - 1 - i, n - l) / C(n - 1 - i, n - l),
    the second product being the factors with lam_j = 0 for j >= l.  A pair
    of equal rows has factor (j - i) / (j - i) = 1, so the first product
    runs, for each row i, only over the rows j after the block of rows equal
    to it: (1^l) forms no pair.  Weakly decreasing integer weights of full
    length n are shifted by a determinant power first (which leaves the rank
    fixed), and partitions with more than n rows give 0.
    """
    if n < 0:
        raise UsageError(f"n must be nonnegative, got n = {n}")
    lam = _partition(lam)
    if len(lam) > n:  # a nonzero row below row n
        return 0
    if lam and lam[-1] < 0:
        if len(lam) < n:
            raise UsageError(f"negative parts require a full-length weight, "
                             f"got {lam} at n = {n}")
        low = lam[-1]
        lam = tuple(x - low for x in lam if x > low)
    l = len(lam)
    up = Counter(comb(lam[i] + n - 1 - i, n - l) for i in range(l))
    down = Counter(comb(n - 1 - i, n - l) for i in range(l))
    after = {x: i + 1 for i, x in enumerate(lam)}  # one past each block's last row
    for i in range(l):
        for j in range(after[lam[i]], l):
            up[lam[i] - lam[j] + j - i] += 1
            down[j - i] += 1
    return _quotient(up, down)


def weyl_dim_type_c(lam, n: int) -> int:
    """Dimension of the irreducible Sp(2n) representation with highest weight lam."""
    lam = tuple(int(x) for x in lam)
    if n < 0:
        raise UsageError(f"n must be nonnegative, got n = {n}")
    if len(lam) > n and any(x != 0 for x in lam[n:]):
        raise UsageError(f"{lam} has more than {n} parts")
    lam = (lam + (0,) * n)[:n]
    if any(lam[i] < lam[i + 1] for i in range(n - 1)) or (lam and lam[-1] < 0):
        raise UsageError(f"{lam} is not a partition")
    l = [lam[i] + n - i for i in range(n)]
    m = [n - i for i in range(n)]
    up, down = Counter(l), Counter(m)
    for i, j in combinations(range(n), 2):
        up[l[i] ** 2 - l[j] ** 2] += 1
        down[m[i] ** 2 - m[j] ** 2] += 1
    return _quotient(up, down)


def _quotient(up: Counter, down: Counter) -> int:
    """prod(up) // prod(down) over the counted factors, after cancelling the
    factors both count ((1^3000) at n = 3000 would multiply out superfactorials
    of 42M bits); pairwise, since one factor at a time is quadratic.  An
    answer whose log10 passes Python's int-to-text digit limit (0: none) by
    more than one, the slack for rounding, is refused before any product."""
    sides = (up - down, down - up)
    logs = [sum(k * log10(f) for f, k in side.items()) for side in sides]
    limit = sys.get_int_max_str_digits()
    if limit and logs[0] - logs[1] > limit + 1:
        raise UsageError(f"the answer has an integer of more than {limit} digits")
    out = []
    for side in sides:
        terms = [f ** k for f, k in side.items()]
        while len(terms) > 1:
            terms = [prod(terms[k:k + 2]) for k in range(0, len(terms), 2)]
        out.append(prod(terms))
    return out[0] // out[1]


# ---------------------------------------------------------------------------
# dotted action


@dataclass(frozen=True)
class BottOutcome:
    vanishes: bool
    degree: int | None = None
    dominant_weight: tuple[int, ...] | None = None
    dimension: int | None = None


def rho(family: str, n: int) -> tuple[int, ...]:
    """Half the sum of the positive roots: (n-1, ..., 0) for GL_n (family
    'A'), (n, ..., 1) for Sp(2n) (family 'C')."""
    if family not in ("A", "C"):
        raise UsageError(f"family must be 'A' or 'C', got {family!r}")
    top = n - 1 if family == "A" else n
    return tuple(range(top, top - n, -1))


def bott_outcome(family: str, alpha) -> BottOutcome:
    """Dotted-action outcome for an integer weight of GL_N ('A') or Sp(2n) ('C').

    v = alpha + rho is paired with each positive root: e_i - e_j (i < j), and
    in type C also e_i + e_j and 2e_i.  A zero pairing means v is fixed by a
    reflection and all cohomology vanishes; otherwise the degree is the number
    of negative pairings, the length of the w taking v to the dominant chamber.
    """
    alpha = tuple(int(x) for x in alpha)
    n = len(alpha)
    shift = rho(family, n)
    v = [a + r for a, r in zip(alpha, shift)]
    if 0 in _pairings(family, v):
        return BottOutcome(vanishes=True)
    degree = sum(p < 0 for p in _pairings(family, v))
    if family == "C":
        v = [abs(x) for x in v]
    dominant = tuple(x - r for x, r in zip(sorted(v, reverse=True), shift))
    dim = schur_dim if family == "A" else weyl_dim_type_c
    return BottOutcome(False, degree, dominant, dim(dominant, n))


def _pairings(family: str, v):
    """The pairings of v with the positive roots, one at a time (there are
    about n^2 of them, too many to hold for a weight of 10^4 entries)."""
    out = starmap(sub, combinations(v, 2))
    if family == "C":
        out = chain(out, starmap(add, combinations(v, 2)), v)
    return out


def bott_type_a(alpha) -> BottOutcome:
    """Dotted-action outcome for a length-N integer weight (GL_N)."""
    return bott_outcome("A", alpha)


def bott_type_c(alpha) -> BottOutcome:
    """Dotted-action outcome for a length-n weight (Sp(2n))."""
    return bott_outcome("C", alpha)


# ---------------------------------------------------------------------------
# explicit Schur functor construction


_SCHUR_MAX_DIM = 10_000


def schur_module_rank(lam, n: int) -> int:
    """Rank of the explicit comultiply-then-multiply Schur map on C^n.

    Source: tensor product over columns j of wedge^{lam'_j} C^n.  Each column
    is expanded by alternation, the filled diagram is read off along rows, and
    each row is multiplied into a symmetric power.  The rank of the resulting
    integer matrix is the dimension of the Schur module.  Source or target
    dimensions above _SCHUR_MAX_DIM (10,000) are usage errors, decided by
    running products of binomials (each at least 1) before any basis is listed.
    """
    if n < 0:
        raise UsageError(f"n must be nonnegative, got n = {n}")
    parts = _partition(lam)
    if parts and parts[-1] < 0:
        raise UsageError(f"{parts} has negative parts")
    if len(parts) > n:  # the first column, of length len(parts), is longer than n
        return 0
    if not parts:
        return 1
    # the target guard reads only the rows, so it runs before the conjugate
    # (parts[0] entries) is built; dim S^p C^n >= n, so n decides first and
    # no binomial with both n and p large is expanded
    tgt_dim = accumulate((comb(n + p - 1, p) for p in parts), mul)  # dim S^p C^n
    if n > _SCHUR_MAX_DIM or any(d > _SCHUR_MAX_DIM for d in tgt_dim):
        raise UsageError("Schur construction exceeds the size guard")
    conj = _conjugate(parts)
    if any(d > _SCHUR_MAX_DIM for d in accumulate((comb(n, c) for c in conj), mul)):
        raise UsageError("Schur construction exceeds the size guard")

    signed = {c: [(sigma, (-1) ** sum(a > b for a, b in combinations(sigma, 2)))
                  for sigma in permutations(range(c))] for c in set(conj)}
    rows: dict[tuple, int] = {}
    images = (_schur_image(parts, chosen, signed)
              for chosen in product(*(combinations(range(n), c) for c in conj)))
    return _integer_rank([{rows.setdefault(key, len(rows)): v for key, v in image.items() if v}
                          for image in images])


def _schur_image(parts, chosen, signed) -> Counter:
    """Image of the source vector wedging chosen[j] in column j: the signed
    sum over every filling by orderings of the columns (signed[c] for length
    c, with signs), each row sorted into its symmetric-power monomial."""
    orderings = [[(tuple(base[i] for i in sigma), sign) for sigma, sign in signed[len(base)]]
                 for base in chosen]
    image = Counter()
    for picks in product(*orderings):
        filled = [column for column, _ in picks]
        key = tuple(tuple(sorted(filled[j][r] for j in range(p))) for r, p in enumerate(parts))
        image[key] += prod(sign for _, sign in picks)
    return image


def _integer_rank(cols: list[dict[int, int]]) -> int:
    """Exact rank of a sparse integer matrix given by columns: each is reduced
    by the pivots {least row: echelon column scaled to 1 there} in the order
    found (each is zero on the rows of those before it), and what is left
    becomes a pivot at its least row."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for col in cols:
        vec = {r: Fraction(v) for r, v in col.items()}
        for prow, pivot in pivots.items():
            factor = vec.get(prow)
            if factor:
                for r, v in pivot.items():
                    vec[r] = vec.get(r, 0) - factor * v
        vec = {r: v for r, v in vec.items() if v}
        if vec:
            prow = min(vec)
            pivots[prow] = {r: v / vec[prow] for r, v in vec.items()}
    return len(pivots)


# ---------------------------------------------------------------------------
# resolution cohomology


@dataclass(frozen=True)
class ResolutionTerm:
    """One locally free term: S_weight of the tautological bundle, twisted,
    in homological position h >= 0 with multiplicity mult >= 1."""

    weight: tuple[int, ...]
    twist: int
    h: int
    mult: int = 1

    def __post_init__(self):
        if self.h < 0:
            raise UsageError(f"'h' must be >= 0, got {self.h}")
        if self.mult < 1:
            raise UsageError(f"'mult' must be >= 1, got {self.mult}")


@dataclass(frozen=True)
class Space:
    """Ambient projective space: ('A', N) is P^{N-1}; ('C', n) is P^{2n-1}."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "C"):
            raise UsageError("space family must be 'A' or 'C'")
        if self.rank < 1:
            raise UsageError(f"space rank must be at least 1, got {self.rank}")

    @property
    def dimension(self) -> int:
        return self.rank - 1 if self.family == "A" else 2 * self.rank - 1


@dataclass(frozen=True)
class CohomologyTable:
    entries: tuple[int, ...] | None
    contributions: tuple[tuple[int, int, int], ...]  # (h, cohomological degree, dim)
    degeneration_verified: bool


def _translate_weight(term: ResolutionTerm, space: Space) -> tuple[int, ...]:
    """The weight bott_outcome takes for a term: its twist, then its weight
    zero-padded to space.rank - 1 entries (reversed and negated in type A)."""
    lam = tuple(int(x) for x in term.weight)
    width = space.rank - 1
    if len(lam) > width:
        bundle = width if space.family == "A" else 2 * width
        raise UsageError(f"weight longer than {width}, the length of a weight "
                         f"of the rank-{bundle} bundle")
    if space.family == "C" and any(x < 0 for x in lam):
        raise UsageError("symplectic weights are partitions")
    if len(lam) < width and lam and lam[-1] < 0:
        raise UsageError("negative weights must be given at full length")
    lam += (0,) * (width - len(lam))
    return (term.twist,) + (lam if space.family == "C" else tuple(-x for x in reversed(lam)))


def cohomology_of_resolution(terms, space: Space) -> CohomologyTable:
    """Cohomology of the sheaf resolved by the given terms, if certifiable.

    Each term F_h contributes its H^j to H^{j-h} of the resolved sheaf.  The
    table is emitted only when no spectral differential d_r (r >= 2) can
    connect two nonzero contributions and every contribution lands in
    cohomological degrees 0..dim; otherwise only the contribution log is
    returned, with degeneration_verified False.
    """
    terms = list(terms)
    if not any(t.h == 0 and not any(t.weight) and t.twist == 0 for t in terms):
        raise UsageError("the h = 0 term must be the untwisted structure sheaf")
    agg: dict[tuple[int, int], int] = {}
    for term in terms:
        out = bott_outcome(space.family, _translate_weight(term, space))
        if not out.vanishes:
            key = (term.h, out.degree)
            agg[key] = agg.get(key, 0) + out.dimension * term.mult
    contributions = tuple(sorted((h, j, d) for (h, j), d in agg.items() if d))

    dim = space.dimension
    spots = {(h, j) for h, j, _ in contributions}
    if not all(0 <= j - h <= dim for h, j in spots) or any(
            (h - r, j - r + 1) in spots for h, j in spots for r in range(2, h + 1)):
        return CohomologyTable(None, contributions, False)
    entries = [0] * (dim + 1)
    for h, j, d in contributions:
        entries[j - h] += d
    return CohomologyTable(tuple(entries), contributions, True)


# ---------------------------------------------------------------------------
# Verlinde numbers


_VERLINDE_MAX_LEVEL = 40
_VERLINDE_MAX_BITS = 4096


def _matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def verlinde(g: int, k: int) -> int:
    """Rank-2 Verlinde number at genus g and level k, in integers.

    V = Tr(H^{g-1}) with H = sum_a N_a^2 over the SU(2)_k fusion matrices:
    N_a[b][c] = 1 iff |a - b| <= c <= min(a + b, 2k - a - b) and a + b + c
    is even, for a, b, c in 0..k.  The N_a commute and have eigenvalues
    S_aj / S_0j, so H has eigenvalues 1 / S_0j^2 and V is the Verlinde sum
    of S_0j^{2-2g} over j.

    Each 1 / S_0j^2 = (k + 2) / (2 sin^2(pi (j + 1) / (k + 2))) is at most
    ((k + 2) / 2)^3, as sin x >= 2x / pi on [0, pi / 2], so
    V <= (k + 1) ((k + 2) / 2)^{3(g-1)}.  Levels above _VERLINDE_MAX_LEVEL
    (40), and g and k for which that bound exceeds 2^_VERLINDE_MAX_BITS
    (2^4096), are usage errors, decided before any matrix is built.
    """
    if g < 2 or k < 1:
        raise UsageError(f"need genus >= 2 and level >= 1, got g = {g}, k = {k}")
    if k > _VERLINDE_MAX_LEVEL:
        raise UsageError(f"level {k} is above the largest level, {_VERLINDE_MAX_LEVEL}")
    if log2(k + 1) + 3 * (g - 1) * log2((k + 2) / 2) > _VERLINDE_MAX_BITS:
        raise UsageError(f"the Verlinde number at genus {g} and level {k} may "
                         f"exceed 2^{_VERLINDE_MAX_BITS}")
    levels = range(k + 1)
    h = [[0] * (k + 1) for _ in levels]
    for a in levels:
        n_a = [[int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)
                for c in levels] for b in levels]
        h = [list(map(add, x, y)) for x, y in zip(h, _matmul(n_a, n_a))]
    power, e = None, g - 1
    while e:
        if e & 1:
            power = h if power is None else _matmul(power, h)
        e >>= 1
        if e:
            h = _matmul(h, h)
    return sum(power[i][i] for i in levels)
