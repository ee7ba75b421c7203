"""Combinatorial orbit classification for degree-3 alternating tensors on C^7.

Weight vectors e_i ^ e_j ^ e_k pair by (S, T) = |S cap T| - 1, which matches
the restriction of the invariant form.  A support configuration is a tuple of
triples realizing the simple-root Gram matrix of a target type built from A_1
and A_2 components (all roots here have the same length, so the Gram condition
reduces to matching pairings):

* components of type A_1 are mutually orthogonal: pairwise intersections of
  size 1, also with the A_2 triples;
* the two simple roots of an A_2 pair to -1: disjoint triples.

Configurations are classified up to the S_7 action on indices: a class is
the closure of one configuration under the transposition (1 2) and the
7-cycle (1 2 ... 7), which generate S_7, and its representative is the least
element of that orbit.  Orbit dimensions are ranks of the infinitesimal gl_7
action mod a prime: E_ab sends the triple mask m with b in m and a not in
m - {b} to m - {b} + {a}, signed by the parity of the elements of m strictly
between a and b, and the rank is an echelon of pivot rows keyed by their
leading column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import UsageError
from .multilinear import AlternatingVector, SplitMix64
from .poly import _literal

RANK_PRIME = (1 << 31) - 1  # Mersenne prime, comfortably above 1e9

TRIPLES = tuple(combinations(range(1, 8), 3))
_TRIPLE_INDEX = {t: i for i, t in enumerate(TRIPLES)}
_MASKS = tuple(sum(1 << x for x in t) for t in TRIPLES)  # bit x set for x in t
_MASK_INDEX = {m: i for i, m in enumerate(_MASKS)}
# _ORTHO[i]: bitset of the triples meeting triple i in exactly one element
_ORTHO = tuple(sum(1 << j for j, n in enumerate(_MASKS) if (m & n).bit_count() == 1)
               for m in _MASKS)


def _index_map(sigma) -> tuple[int, ...]:
    """The map on triple indices induced by x -> sigma[x - 1] on 1..7."""
    return tuple(_TRIPLE_INDEX[tuple(sorted(sigma[x - 1] for x in t))] for t in TRIPLES)


# the transposition (1 2) and the 7-cycle (1 2 ... 7), which generate S_7
_GENERATORS = (_index_map((2, 1, 3, 4, 5, 6, 7)), _index_map((2, 3, 4, 5, 6, 7, 1)))

SUPPORT_TYPES = ("A1", "2A1", "3A1", "4A1", "A2", "A2+A1", "A2+2A1", "A2+3A1")

_TYPE_SHAPE = {
    "A1": (0, 1), "2A1": (0, 2), "3A1": (0, 3), "4A1": (0, 4),
    "A2": (1, 0), "A2+A1": (1, 1), "A2+2A1": (1, 2), "A2+3A1": (1, 3),
}


def triple_pairing(s, t) -> int:
    """Invariant pairing of weight vectors: |S cap T| - 1."""
    return len(set(s) & set(t)) - 1


@dataclass(frozen=True)
class SupportConfig:
    """A realized support: A_2 pair (possibly empty) plus orthogonal A_1 triples.

    Construction validates the Gram condition: the A_2 roots pair to -1
    (disjoint triples), everything else pairs to 0 (one-element meets).
    """

    target_type: str
    a2_pair: tuple[tuple[int, ...], ...]  # () or a sorted pair of triples
    a1_triples: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = _TYPE_SHAPE.get(self.target_type)
        if shape is None:
            raise UsageError(f"unknown support type {self.target_type!r}")
        if (len(self.a2_pair) // 2, len(self.a1_triples)) != shape:
            raise UsageError("configuration shape does not match its type")
        roots = self.triples()
        for i, s in enumerate(roots):
            for j, t in enumerate(roots):
                both_a2 = i < len(self.a2_pair) and j < len(self.a2_pair)
                expect = 2 if i == j else (-1 if both_a2 else 0)
                if triple_pairing(s, t) != expect:
                    raise UsageError(
                        f"pairing ({s},{t}) = {triple_pairing(s, t)}, "
                        f"expected {expect}")

    def triples(self) -> tuple[tuple[int, ...], ...]:
        return self.a2_pair + self.a1_triples


def _config_key(a2_idx, a1_idx):
    return (tuple(sorted(a2_idx)), tuple(sorted(a1_idx)))


def _orbit(key) -> set[tuple]:
    """The S_7 orbit of a configuration key: its closure under _GENERATORS."""
    orbit = {key}
    frontier = [key]
    while frontier:
        a2_idx, a1_idx = frontier.pop()
        for g in _GENERATORS:
            image = (tuple(sorted(g[i] for i in a2_idx)),
                     tuple(sorted(g[i] for i in a1_idx)))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _a1_extensions(base_idx, count):
    """All sorted index tuples of `count` extra triples pairwise meeting in
    one element, each also meeting every base triple in one element."""
    allowed = (1 << len(TRIPLES)) - 1
    for b in base_idx:
        allowed &= _ORTHO[b]
    out = []

    def rec(allowed, chosen):
        if len(chosen) == count:
            out.append(chosen)
            return
        while allowed:
            low = allowed & -allowed
            allowed ^= low  # what is left lies above the chosen index
            c = low.bit_length() - 1
            rec(allowed & _ORTHO[c], chosen + (c,))

    rec(allowed, ())
    return out


def _gram_classes(target_type: str):
    """Gram-compatible configurations of one type, up to S_7 (no completeness).

    Classes are found by orbit walking: each unvisited configuration grows
    into its orbit by closure under the two generators of S_7, so each orbit
    is walked once, at two images per element, and its least element is the
    class representative.
    """
    n_a2, n_a1 = _TYPE_SHAPE[target_type]
    raw = []
    if n_a2:
        for i, j in combinations(range(len(TRIPLES)), 2):
            if not _MASKS[i] & _MASKS[j]:  # disjoint: pairing -1
                for ext in _a1_extensions((i, j), n_a1):
                    raw.append(_config_key((i, j), ext))
    else:
        for ext in _a1_extensions((), n_a1):
            raw.append(_config_key((), ext))
    raw_set = set(raw)
    visited: set[tuple] = set()
    classes = {}
    for key0 in raw:
        if key0 in visited:
            continue
        orbit = _orbit(key0)
        visited |= orbit
        if not orbit <= raw_set:
            raise UsageError("orbit walk left the candidate set")  # unreachable
        best = min(orbit)
        classes[best] = SupportConfig(
            target_type,
            tuple(TRIPLES[i] for i in best[0]),
            tuple(TRIPLES[i] for i in best[1]))
    return [classes[k] for k in sorted(classes)]


def _generic_dimension(config: SupportConfig) -> int:
    """Orbit dimension of a deterministic generic element of the span."""
    rng = SplitMix64(0x5EED_0001)
    coeffs = {t: 1 + rng.next64() % (RANK_PRIME - 1) for t in config.triples()}
    return orbit_dimension(AlternatingVector(7, 3, RANK_PRIME, coeffs))


@cache
def _genuine_classes() -> dict[str, list[SupportConfig]]:
    """Gram classes of every type, filtered by the dimension certificate.

    A completeness check is not implemented; instead a class is discarded
    when its generic element's orbit dimension already arises from a kept
    class with fewer simple roots (equal dimension means equal orbit here,
    since the ten orbit dimensions are pairwise distinct).  The one casualty
    is the 4A_1-shaped configuration with all pairwise intersections
    distinct, whose generic element lies in the dimension-26 orbit already
    produced by A_2.
    """
    order = sorted(SUPPORT_TYPES, key=lambda t: sum(_TYPE_SHAPE[t]) + _TYPE_SHAPE[t][0])
    kept: dict[str, list[SupportConfig]] = {}
    dims_by_roots: list[tuple[int, int]] = []  # (root count, dimension)
    for typ in order:
        n_roots = 2 * _TYPE_SHAPE[typ][0] + _TYPE_SHAPE[typ][1]
        kept[typ] = []
        for config in _gram_classes(typ):
            dim = _generic_dimension(config)
            if any(r < n_roots and d == dim for r, d in dims_by_roots):
                continue
            kept[typ].append(config)
            dims_by_roots.append((n_roots, dim))
    return kept


def enumerate_supports(target_type: str):
    """Support configurations of the target type up to the S_7 action.

    Returns (class_count, representatives), each the least element of its
    orbit under the closure of two generators of S_7 (see _gram_classes),
    with non-supports removed by the dimension certificate (see
    _genuine_classes).
    """
    if target_type not in _TYPE_SHAPE:
        raise UsageError(f"unknown support type {target_type!r}")
    reps = _genuine_classes()[target_type]
    return len(reps), reps


# ---------------------------------------------------------------------------
# orbit dimensions


def orbit_dimension(v: AlternatingVector) -> int:
    """Dimension of the GL_7 orbit of v: rank of the 49 x 35 tangent matrix.

    The rank is taken mod v.prime, and a rank mod p is at most the rational
    rank; orbit_table checks the ranks of its representatives against the
    stored dimensions.
    """
    if v.ambient != 7 or v.degree != 3:
        raise UsageError("orbit_dimension needs a degree-3 tensor on C^7")
    terms = [(_MASKS[_TRIPLE_INDEX[t]], c) for t, c in v.coefficients.items()]
    rows = []
    for a in range(1, 8):
        for b in range(1, 8):
            # E_ab puts e_a in place of e_b; sorting it into place passes the
            # elements of T strictly between a and b
            between = (1 << max(a, b)) - (2 << min(a, b)) if a != b else 0
            row = [0] * len(TRIPLES)
            for m, c in terms:
                rest = m ^ (1 << b)
                if m >> b & 1 and not rest >> a & 1:
                    col = _MASK_INDEX[rest | (1 << a)]
                    row[col] += -c if (m & between).bit_count() % 2 else c
            rows.append(row)
    return _rank_mod_p(rows, v.prime)


def _rank_mod_p(rows, p: int) -> int:
    """Rank of a dense matrix mod p.

    pivots maps a leading column to an echelon row scaled to 1 there.  Each
    row is reduced left to right by the pivots found so far; at its first
    column with no pivot and a nonzero entry it becomes that column's pivot.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        for col in range(len(row)):
            x = row[col] % p
            if not x:
                continue
            piv = pivots.get(col)
            if piv is None:
                inv = pow(x, p - 2, p)
                pivots[col] = [y * inv % p for y in row]
                break
            row = [(y - x * z) % p for y, z in zip(row, piv)]
    return len(pivots)


# ---------------------------------------------------------------------------
# the ten orbits


@dataclass(frozen=True)
class OrbitRecord:
    label: int
    support_type: str
    representative_triples: tuple[tuple[int, ...], ...]
    expected_dimension: int

    def representative(self, prime: int = RANK_PRIME) -> AlternatingVector:
        return AlternatingVector(7, 3, prime,
                                 {t: 1 for t in self.representative_triples})


ORBITS = (
    OrbitRecord(0, "0", (), 0),
    OrbitRecord(1, "A1", ((1, 2, 3),), 13),
    OrbitRecord(2, "2A1", ((1, 2, 3), (1, 4, 5)), 20),
    OrbitRecord(3, "3A1", ((1, 2, 3), (1, 4, 5), (1, 6, 7)), 21),
    OrbitRecord(4, "3A1", ((1, 2, 3), (1, 4, 5), (2, 4, 6)), 25),
    OrbitRecord(5, "A2", ((1, 2, 3), (4, 5, 6)), 26),
    OrbitRecord(6, "4A1", ((1, 2, 3), (1, 4, 5), (1, 6, 7), (3, 5, 7)), 28),
    OrbitRecord(7, "A2+A1", ((1, 2, 3), (4, 5, 6), (1, 4, 7)), 31),
    OrbitRecord(8, "A2+2A1", ((1, 2, 3), (4, 5, 6), (1, 4, 7), (2, 5, 7)), 34),
    OrbitRecord(9, "A2+3A1",
                ((1, 2, 3), (4, 5, 6), (1, 4, 7), (2, 5, 7), (3, 6, 7)), 35),
)


def orbit_table():
    """The ten orbit records with dimensions verified by the tangent rank.

    Raises if any computed dimension disagrees with the stored table.
    """
    out = []
    for rec in ORBITS:
        dim = orbit_dimension(rec.representative())
        if dim != rec.expected_dimension:
            raise UsageError(
                f"orbit {rec.label}: computed dimension {dim} != "
                f"expected {rec.expected_dimension}")
        out.append(rec)
    return out


def parse_bracket_terms(text: str, prime: int = RANK_PRIME) -> AlternatingVector:
    """Parse `[1,2,3]+[4,5,6]` (optional integer multipliers, `-` allowed);
    numbers are ASCII digits, indices apart by a comma or whitespace.  A
    bracket [i,j,k] is the wedge e_i ^ e_j ^ e_k, so `[2,1,3]` is -[1,2,3]."""
    sep = r"(?:\s*,\s*|\s+)"
    pattern = re.compile(rf"\s*([+-])?\s*(?:([0-9]+)\s*\*\s*)?"
                         rf"\[\s*([0-9]+){sep}([0-9]+){sep}([0-9]+)\s*\]")
    pos = 0
    coeffs: dict[tuple[int, int, int], int] = {}
    found = False
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise UsageError(f"cannot parse terms near {text[pos:pos + 12]!r}")
            break
        found = True
        sign, mult, i, j, k = m.groups()
        c = _literal(mult) if mult else 1
        if sign == "-":
            c = -c
        idx = tuple(map(_literal, (i, j, k)))
        key = tuple(sorted(idx))
        if len(set(key)) != 3:
            raise UsageError(f"repeated index in [{i},{j},{k}]")
        if sum(a > b for a, b in combinations(idx, 2)) % 2:
            c = -c  # an odd sorting permutation
        coeffs[key] = (coeffs.get(key, 0) + c) % prime
        pos = m.end()
    if not found:
        raise UsageError("no bracket terms found")
    return AlternatingVector(7, 3, prime, coeffs)
