"""Skew-symmetric matrices of linear forms, Pfaffians, and section builders.

Two section-to-matrix constructions are provided:

* ``w39_matrix``: a degree-3 alternating tensor in 9 variables is comultiplied
  into a skew 9x9 matrix of linear forms; deleting the chart row/column gives
  the 8x8 matrix whose Pfaffian ideals cut out the degeneracy loci.  The chart
  variable stays live in the entries; the pipeline saturates by it afterwards.
* ``c5w25_matrix``: an element of C^5 tensor (wedge^2 C^5), presented as five
  constant skew matrices M_a, becomes sum_a z_a * M_a.

Sections are drawn deterministically with splitmix64: coefficient = next64
mod p, index tuples consumed in lexicographic order.  This is bit-exact
across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import UsageError
from .groebner import Ideal
from .poly import Polynomial, PolynomialRing, PrimeField, _degree

_M64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; next64() yields the standard 64-bit outputs."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)


class SkewMatrix:
    """Square antisymmetric matrix of polynomials of one ring; diagonal zero
    enforced.

    Instances are immutable apart from an internal memo of principal
    sub-Pfaffians, keyed by the bitmask of their row indices.  Each holds
    {ring key: coefficient in [1, p)}, the form of Polynomial.packed.
    """

    __slots__ = ("ring", "size", "entries", "_pf_memo")

    def __init__(self, ring: PolynomialRing, entries):
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise UsageError("matrix is not square")
        for i, row in enumerate(entries):
            for j, a in enumerate(row):
                if not isinstance(a, Polynomial) or a.ring != ring:
                    raise UsageError(f"entry ({i},{j}) is not a polynomial of {ring!r}")
        for i in range(n):
            if not entries[i][i].is_zero():
                raise UsageError(f"nonzero diagonal entry at {i}")
            for j in range(i + 1, n):
                if entries[i][j] != -entries[j][i]:
                    raise UsageError(f"entries ({i},{j}) and ({j},{i}) are not antisymmetric")
        self.ring = ring
        self.size = n
        self.entries = tuple(tuple(row) for row in entries)
        self._pf_memo: dict[int, dict[int, int]] = {0: {0: 1}}

    @classmethod
    def from_upper(cls, ring: PolynomialRing, size: int, upper) -> "SkewMatrix":
        """Build from a dict {(i, j): polynomial} with 0 <= i < j < size."""
        zero = ring.zero()
        rows = [[zero] * size for _ in range(size)]
        for (i, j), f in upper.items():
            if not 0 <= i < j < size:
                raise UsageError(f"bad upper-triangle index ({i},{j})")
            rows[i][j] = rows[i][j] + f
            rows[j][i] = rows[j][i] - f
        return cls(ring, rows)

    def __add__(self, other: "SkewMatrix") -> "SkewMatrix":
        if self.ring != other.ring or self.size != other.size:
            raise UsageError("matrix shape/ring mismatch")
        return SkewMatrix(self.ring, [[a + b for a, b in zip(r1, r2)]
                                      for r1, r2 in zip(self.entries, other.entries)])

    def submatrix(self, rows) -> "SkewMatrix":
        rows = tuple(rows)
        return SkewMatrix(self.ring, [[self.entries[i][j] for j in rows] for i in rows])


def pfaffian(matrix: SkewMatrix) -> Polynomial:
    """Pfaffian; odd sizes give 0.  Convention: Pf([[0,a],[-a,0]]) = a.

    Recursive expansion along the smallest live index.  Every sub-Pfaffian
    is memoized on the matrix, keyed by the bitmask of its live indices, and
    pfaffian_ideal reads the same memo, so Pfaffian ideals of several sizes
    of one matrix compute each principal sub-Pfaffian once.
    """
    if matrix.size % 2:
        return matrix.ring.zero()
    return matrix.ring._from_keys(_sub_pfaffian(matrix, (1 << matrix.size) - 1))


def _sub_pfaffian(matrix: SkewMatrix, mask: int) -> dict[int, int]:
    """Pfaffian of the principal submatrix on the indices set in mask, as
    {ring key: coefficient in [1, p)}.

    A term of an entry times a sub-Pfaffian is a key sum, as in
    Polynomial.__mul__; a minus sign is the coefficient p - c.  Coefficients
    are reduced mod p once, when the sub-Pfaffian is complete.
    """
    memo = matrix._pf_memo
    got = memo.get(mask)
    if got is not None:
        return got
    ring = matrix.ring
    p, n = ring.prime, ring.nvars
    idx = [i for i in range(matrix.size) if mask & (1 << i)]
    first = idx[0]
    row = matrix.entries[first]
    total: dict[int, int] = {}
    negate = False  # position 2 in the sorted index list carries +
    for j in idx[1:]:
        a = row[j].packed
        if a:
            sub = _sub_pfaffian(matrix, mask & ~(1 << first) & ~(1 << j)).items()
            for k1, c1 in a:
                if negate:
                    c1 = p - c1
                for k2, c2 in sub:
                    k = k1 + k2
                    total[k] = total.get(k, 0) + c1 * c2
        negate = not negate
    if total:
        ring._check_exponents(total, _degree(max(total), n))
    out = {k: c % p for k, c in total.items() if c % p}
    memo[mask] = out
    return out


def pfaffian_ideal(matrix: SkewMatrix, size: int) -> Ideal:
    """Ideal of Pfaffians of all principal size x size submatrices."""
    if size < 0:
        raise UsageError(f"Pfaffian ideal size must be non-negative, got {size}")
    if size % 2:
        raise UsageError("Pfaffian ideal size must be even")
    if size > matrix.size:
        raise UsageError("submatrix size exceeds matrix size")
    pfs = [_sub_pfaffian(matrix, sum(1 << i for i in s))
           for s in combinations(range(matrix.size), size)]
    return Ideal(matrix.ring, [matrix.ring._from_keys(d) for d in pfs if d])


# ---------------------------------------------------------------------------
# sections


class AlternatingVector:
    """Element of wedge^k C^n: strictly increasing index tuples -> F_p scalars."""

    __slots__ = ("ambient", "degree", "prime", "coefficients")

    def __init__(self, ambient: int, degree: int, prime: int, coefficients):
        PrimeField(prime)  # refuses a modulus that is not prime before it reduces
        coeffs = {}
        for key, c in coefficients.items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise UsageError(f"index tuple {key} is not strictly increasing")
            if not all(1 <= i <= ambient for i in key):
                raise UsageError(f"index tuple {key} out of range 1..{ambient}")
            c %= prime
            if c:
                coeffs[key] = c
        self.ambient = ambient
        self.degree = degree
        self.prime = prime
        self.coefficients = coeffs

    def __add__(self, other: "AlternatingVector") -> "AlternatingVector":
        if (self.ambient, self.degree, self.prime) != (other.ambient, other.degree, other.prime):
            raise UsageError("alternating vectors are incompatible")
        d = dict(self.coefficients)
        for k, c in other.coefficients.items():
            d[k] = (d.get(k, 0) + c) % self.prime
        return AlternatingVector(self.ambient, self.degree, self.prime, d)

    def __eq__(self, other):
        return (isinstance(other, AlternatingVector)
                and (self.ambient, self.degree, self.prime) ==
                    (other.ambient, other.degree, other.prime)
                and self.coefficients == other.coefficients)

    def __repr__(self):
        return (f"AlternatingVector(wedge^{self.degree} C^{self.ambient}, "
                f"{len(self.coefficients)} terms)")


@dataclass(frozen=True)
class TensorSection:
    """Element of C^5 tensor wedge^2 C^5: keys (a, i, j) with i < j."""

    prime: int
    terms: tuple[tuple[tuple[int, int, int], int], ...]

    @classmethod
    def from_dict(cls, prime: int, d) -> "TensorSection":
        PrimeField(prime)  # refuses a modulus that is not prime before it reduces
        items = []
        for key, c in d.items():
            if not (isinstance(key, tuple) and len(key) == 3
                    and 1 <= key[0] <= 5 and 1 <= key[1] < key[2] <= 5):
                raise UsageError(f"bad tensor index {key}")
            c %= prime
            if c:
                items.append((key, c))
        return cls(prime, tuple(sorted(items)))


def w39_ring(prime: int = 101) -> PolynomialRing:
    return PolynomialRing(prime=prime, nvars=9)


def w39_matrix(v: AlternatingVector, chart: int = 9) -> SkewMatrix:
    """8x8 comultiplication matrix of a degree-3 tensor in the given chart.

    Each basis tensor e_i ^ e_j ^ e_k (i<j<k) contributes the antisymmetric
    placements (i,j) -> -z_k, (i,k) -> +z_j, (j,k) -> -z_i to the full 9x9
    matrix; the chart row and column are then deleted.  For chart 9 this is
    the literal transcription of the matrix builder used for these loci.
    """
    if v.ambient != 9 or v.degree != 3:
        raise UsageError("w39_matrix needs a degree-3 tensor on C^9")
    if not 1 <= chart <= 9:
        raise UsageError("chart must be in 1..9")
    ring = w39_ring(v.prime)
    z = ring.gens()
    full: dict[tuple[int, int], Polynomial] = {}

    def put(a: int, b: int, f: Polynomial) -> None:
        # (a, b) 1-based with a < b expected by from_upper after shift
        key = (a - 1, b - 1)
        full[key] = full.get(key, ring.zero()) + f

    for (i, j, k), c in sorted(v.coefficients.items()):
        put(i, j, -z[k - 1].scale(c))
        put(i, k, z[j - 1].scale(c))
        put(j, k, -z[i - 1].scale(c))
    big = SkewMatrix.from_upper(ring, 9, full)
    keep = [i for i in range(9) if i != chart - 1]
    return big.submatrix(keep)


def c5w25_matrix(v: TensorSection) -> SkewMatrix:
    """5x5 matrix sum_a z_a * M_a; term e_a (x) (e_i ^ e_j) puts z_a at (i, j)."""
    ring = PolynomialRing(prime=v.prime, nvars=5)
    z = ring.gens()
    upper: dict[tuple[int, int], Polynomial] = {}
    for (a, i, j), c in v.terms:
        key = (i - 1, j - 1)
        upper[key] = upper.get(key, ring.zero()) + z[a - 1].scale(c)
    return SkewMatrix.from_upper(ring, 5, upper)


_CASE_INDICES = {
    "w39": lambda: list(combinations(range(1, 10), 3)),
    "c3c3c3": lambda: [(i, j, k) for i in range(1, 4)
                       for j in range(4, 7) for k in range(7, 10)],
    "c5w25": lambda: [(a, i, j) for a in range(1, 6)
                      for (i, j) in combinations(range(1, 6), 2)],
}


def random_section(case: str, seed: int, prime: int = 101):
    """Deterministic pseudo-random section for a named pipeline case.

    Coefficients are next64 mod p with index tuples consumed in lexicographic
    order; identical (case, seed, prime) always gives identical output.  A
    modulus that is not prime is a usage error.
    """
    if case not in _CASE_INDICES:
        raise UsageError(f"unknown case {case!r}")
    PrimeField(prime)  # refuses a modulus that is not prime before it divides
    rng = SplitMix64(seed)
    coeffs = {idx: rng.next64() % prime for idx in _CASE_INDICES[case]()}
    if case == "c5w25":
        return TensorSection.from_dict(prime, coeffs)
    return AlternatingVector(9, 3, prime, coeffs)
