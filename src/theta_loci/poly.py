"""Exact arithmetic: prime fields, degrevlex monomials, canonical multivariate polynomials.

Everything here is immutable after construction and safe to share between
threads.  A polynomial is a sorted tuple of (monomial, nonzero coefficient)
pairs, strictly descending in graded reverse lexicographic order, so
structural equality coincides with mathematical equality.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import UsageError


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all twelve bases above (Sorenson-Webster 2015)
_PRIME_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact below _PRIME_BOUND, which larger n raise."""
    if n >= _PRIME_BOUND:
        raise UsageError(f"modulus {n} is out of range: primality is decided "
                         f"exactly only below {_PRIME_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic mod a prime p; scalars are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        self.p = p

    def __call__(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inverse(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise UsageError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Monomial:
    """Dense exponent vector with cached total degree."""

    __slots__ = ("exponents", "total_degree")

    def __init__(self, exponents: Sequence[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise UsageError(f"negative exponent in {exps}")
        self.exponents = exps
        self.total_degree = sum(exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_width(self, other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        _check_width(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise UsageError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        _check_width(self, other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def sort_key(self):
        # tuple whose natural ascending order is degrevlex ascending
        return (self.total_degree, tuple(-e for e in reversed(self.exponents)))

    def __repr__(self):
        return f"Monomial{self.exponents}"


def _check_width(m1: Monomial, m2: Monomial) -> None:
    if len(m1.exponents) != len(m2.exponents):
        raise UsageError(
            f"monomial width mismatch: {len(m1.exponents)} vs {len(m2.exponents)}"
        )


def degrevlex_cmp(m1: Monomial, m2: Monomial) -> int:
    """Graded reverse lexicographic comparison: -1, 0 or +1.

    Higher total degree wins; on ties the monomial with the smaller exponent
    on the last differing variable (scanning from the last variable) is larger.
    """
    _check_width(m1, m2)
    if m1.total_degree != m2.total_degree:
        return 1 if m1.total_degree > m2.total_degree else -1
    for a, b in zip(reversed(m1.exponents), reversed(m2.exponents)):
        if a != b:
            return 1 if a < b else -1
    return 0


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-))")


class PolynomialRing:
    """Ring descriptor: n variables over F_p, canonical degrevlex order."""

    __slots__ = ("field", "variables", "nvars", "_var_index")

    def __init__(self, prime: int = 101, nvars: int | None = None,
                 variables: Sequence[str] | None = None):
        self.field = PrimeField(prime)
        if variables is None:
            if nvars is None:
                raise UsageError("need nvars or variable names")
            variables = tuple(f"z_{i}" for i in range(1, nvars + 1))
        variables = tuple(variables)
        if len(variables) == 0:
            raise UsageError("ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise UsageError("duplicate variable names")
        self.variables = variables
        self.nvars = len(variables)
        self._var_index = {v: i for i, v in enumerate(variables)}

    @property
    def prime(self) -> int:
        return self.field.p

    def __eq__(self, other):
        return (isinstance(other, PolynomialRing)
                and self.field == other.field
                and self.variables == other.variables)

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"PolynomialRing(GF({self.prime})[{', '.join(self.variables)}])"

    # constructors -------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.prime
        if c == 0:
            return self.zero()
        return Polynomial(self, ((Monomial((0,) * self.nvars), c),))

    def variable(self, i: int) -> "Polynomial":
        """Variable by 0-based index."""
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, ((Monomial(exps), 1),))

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.nvars))

    def monomial(self, exponents: Sequence[int], coeff: int = 1) -> "Polynomial":
        return self.from_terms([(Monomial(exponents), coeff)])

    def from_terms(self, terms: Iterable[tuple[Monomial, int]]) -> "Polynomial":
        acc: dict[tuple[int, ...], int] = {}
        for m, c in terms:
            if len(m.exponents) != self.nvars:
                raise UsageError("monomial width does not match ring")
            key = m.exponents
            acc[key] = (acc.get(key, 0) + c) % self.prime
        return self.from_exponent_dict(acc)

    def from_exponent_dict(self, d: dict[tuple[int, ...], int]) -> "Polynomial":
        terms = [(Monomial(e), c % self.prime) for e, c in d.items() if c % self.prime]
        terms.sort(key=lambda t: t[0].sort_key(), reverse=True)
        return Polynomial(self, tuple(terms))

    # parsing ------------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Parse `c*z_1^e1*...` sums; accepts ^, * and arbitrary whitespace."""
        acc: dict[tuple[int, ...], int] = {}
        pos = 0
        sign = 1
        expect_term = True
        cur_coeff: int | None = None
        cur_exps: list[int] | None = None

        def flush():
            nonlocal cur_coeff, cur_exps, sign
            if cur_exps is None:
                return
            c = (sign * (1 if cur_coeff is None else cur_coeff)) % self.prime
            key = tuple(cur_exps)
            acc[key] = (acc.get(key, 0) + c) % self.prime
            cur_coeff, cur_exps, sign = None, None, 1

        text = text.strip()
        if not text:
            raise UsageError("empty polynomial string")
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise UsageError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
            pos = m.end()
            num, name, caret, star, plus, minus = m.groups()
            if plus or minus:
                if expect_term and cur_exps is None:
                    # leading sign of a term
                    if minus:
                        sign = -sign
                    continue
                flush()
                sign = -1 if minus else 1
                expect_term = True
            elif num is not None:
                if cur_exps is None:
                    cur_exps = [0] * self.nvars
                if cur_coeff is None:
                    cur_coeff = int(num)
                else:
                    cur_coeff *= int(num)
                expect_term = False
            elif name is not None:
                if name not in self._var_index:
                    raise UsageError(f"unknown variable {name!r}")
                if cur_exps is None:
                    cur_exps = [0] * self.nvars
                e = 1
                m2 = _TOKEN.match(text, pos)
                if m2 and m2.group(3):  # caret
                    pos = m2.end()
                    m3 = _TOKEN.match(text, pos)
                    if not (m3 and m3.group(1)):
                        raise UsageError("expected integer exponent after ^")
                    e = int(m3.group(1))
                    pos = m3.end()
                cur_exps[self._var_index[name]] += e
                expect_term = False
            elif caret:
                raise UsageError("unexpected ^")
            elif star:
                if cur_exps is None:
                    raise UsageError("unexpected *")
        flush()
        return self.from_exponent_dict(acc)


class Polynomial:
    """Canonical multivariate polynomial over a prime field.

    Terms are strictly descending in degrevlex with no zero coefficients and
    no duplicate monomials, so `==` is mathematical equality.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: tuple[tuple[Monomial, int], ...]):
        self.ring = ring
        self.terms = terms

    # basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms[0][0].total_degree == 0

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.total_degree for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = self.terms[0][0].total_degree
        return all(m.total_degree == d for m, _ in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise UsageError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self) -> int:
        if not self.terms:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for m, _ in self.terms:
            for i, e in enumerate(m.exponents):
                if e:
                    used.add(i)
        return used

    # arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise UsageError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        d = {m.exponents: c for m, c in self.terms}
        p = self.ring.prime
        for m, c in other.terms:
            k = m.exponents
            d[k] = (d.get(k, 0) + c) % p
        return self.ring.from_exponent_dict(d)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.ring.prime
        return Polynomial(self.ring, tuple((m, p - c) for m, c in self.terms))

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.prime
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Polynomial(self.ring, tuple((m, (a * c) % p) for m, a in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        p = self.ring.prime
        d: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms:
            e1 = m1.exponents
            for m2, c2 in other.terms:
                k = tuple(a + b for a, b in zip(e1, m2.exponents))
                d[k] = (d.get(k, 0) + c1 * c2) % p
        return self.ring.from_exponent_dict(d)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise UsageError("negative power")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inverse(self.leading_coefficient()))

    # evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        """Evaluate at a point of F_p^n."""
        if len(point) != self.ring.nvars:
            raise UsageError("point length does not match ring")
        p = self.ring.prime
        pt = [a % p for a in point]
        total = 0
        for m, c in self.terms:
            v = c
            for x, e in zip(pt, m.exponents):
                if e:
                    v = (v * pow(x, e, p)) % p
            total = (total + v) % p
        return total

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Ring map sending variable i to images[i] (all in one target ring)."""
        if len(images) != self.ring.nvars:
            raise UsageError("need one image per variable")
        target = images[0].ring
        if target.prime != self.ring.prime:
            raise UsageError("substitution must preserve the coefficient field")
        out = target.zero()
        for m, c in self.terms:
            term = target.constant(c)
            for img, e in zip(images, m.exponents):
                if e:
                    term = term * img ** e
            out = out + term
        return out

    # canonical text form --------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(self.ring.variables, m.exponents):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (isinstance(other, Polynomial)
                and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))
