"""Exact arithmetic: prime fields, degrevlex monomials, canonical multivariate polynomials.

A polynomial is a tuple of (key, nonzero coefficient) pairs, strictly descending
by key, so structural equality is mathematical equality.  A key packs the
exponents into one integer, 16 bits per variable, such that integer order is
degrevlex and key(ab) = key(a) + key(b); exponents must stay below 2^15.
Outside the packed form a monomial is an exponent tuple, which `terms` unpacks
from the keys on request.
"""

from __future__ import annotations

import re
import sys
from typing import Sequence

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


_BITS = 16
_MASK = (1 << _BITS) - 1
_MAXEXP = 1 << (_BITS - 1)  # exponents must stay below this for SWAR guards


def _revkey(exps) -> int:
    """The ring key of k exponents: deg * B^k minus their plain packing, in
    which e_i fills slot i; integer order is degrevlex, z_k last."""
    deg = 0
    n = 0
    for slot, e in enumerate(exps):
        if not 0 <= e < _MAXEXP:
            raise UsageError(f"exponent too large: {e} (the bound is {_MAXEXP})"
                             if e > 0 else f"negative exponent {e}")
        deg += e
        n += e << (_BITS * slot)
    return (deg << (_BITS * len(exps))) - n


def _degree(key: int, k: int) -> int:
    """Total degree of a k-slot key: the key / B^k rounded up."""
    return (key + (1 << (_BITS * k)) - 1) >> (_BITS * k)


def _unrev(key: int, k: int) -> int:
    """Inverse of _revkey: the plain packing, exponent i in slot i."""
    return (_degree(key, k) << (_BITS * k)) - key


def _slot_sum(pk: int, k: int) -> int:
    """Sum of the k slots of a plain packing, exact for any k and any slot
    values: the sum of the low bytes plus 256 times that of the high bytes."""
    b = pk.to_bytes(2 * k, "little")
    return sum(b[::2]) + (sum(b[1::2]) << 8)


# a variable name, the only kind parse can read back
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# a variable token carries its optional "^ exponent"; numbers are ASCII
# digits, which int() would also read in other scripts
_TOKEN = re.compile(rf"\s*(?:([0-9]+)|({_NAME})(?:\s*\^\s*([0-9]+))?"
                    r"|(\^)|(\*)|(\+)|(-))")


def _literal(digits: str) -> int:
    """A number of polynomial text; one longer than int() reads is a
    UsageError, not Python's ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise UsageError(f"a number of {len(digits)} digits is more than the "
                         f"limit of {sys.get_int_max_str_digits()}") from None


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
        for v in variables:
            if not isinstance(v, str) or not re.fullmatch(_NAME, v):
                raise UsageError(f"variable name {v!r} is not a letter or _ "
                                 "followed by letters, digits or _")
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
        return Polynomial(self, ((0, c),))

    def variable(self, i: int) -> "Polynomial":
        """Variable by 0-based index."""
        if not 0 <= i < self.nvars:
            raise UsageError(f"variable index {i} out of range 0..{self.nvars - 1}")
        return Polynomial(self, (((1 << (_BITS * self.nvars)) - (1 << (_BITS * i)), 1),))

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.nvars))

    def monomial(self, exponents: Sequence[int], coeff: int = 1) -> "Polynomial":
        return self._from_keys({self._key(exponents): coeff})

    def from_exponent_dict(self, d: dict[tuple[int, ...], int]) -> "Polynomial":
        return self._from_keys({self._key(e): c for e, c in d.items()})

    def _from_keys(self, d: dict[int, int]) -> "Polynomial":
        """The polynomial with coefficient d[k] (taken mod p) at key k."""
        p = self.prime
        return Polynomial(self, tuple(sorted(
            ((k, c % p) for k, c in d.items() if c % p), reverse=True)))

    def _key(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise UsageError("monomial width does not match ring")
        return _revkey(exps)

    def _exps(self, key: int) -> tuple[int, ...]:
        pk = _unrev(key, self.nvars)
        return tuple((pk >> (_BITS * i)) & _MASK for i in range(self.nvars))

    def _check_exponents(self, keys, degree: int) -> None:
        """Refuse keys, sums of two keys of total degree `degree`, if one
        carries an exponent that _key rejects.  Only a degree of _MAXEXP or
        more allows one: two exponents below _MAXEXP sum within their slot."""
        if degree >= _MAXEXP:
            for k in keys:
                self._key(self._exps(k))

    # parsing ------------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Parse `c*z_1^e1*...` sums; accepts ^, * and arbitrary whitespace."""
        text = text.strip()
        if not text:
            raise UsageError("empty polynomial string")
        acc: dict[tuple[int, ...], int] = {}
        sign, coeff, exps = 1, 1, None  # the term being read
        last = "+"  # kind of the previous token: "+" (a sign), "*" or "factor"
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise UsageError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
            pos = m.end()
            num, name, exp, caret, star, plus, minus = m.groups()
            if plus or minus:
                if last == "*":
                    raise UsageError("unexpected sign after *")
                if exps is not None:  # the sign ends a term
                    acc[tuple(exps)] = acc.get(tuple(exps), 0) + sign * coeff
                    sign, coeff, exps = 1, 1, None
                if minus:
                    sign = -sign
                last = "+"
            elif caret:
                raise UsageError("^ must follow a variable and precede an integer")
            elif star:
                if last != "factor":
                    raise UsageError("unexpected *")
                last = "*"
            else:
                if exps is None:
                    exps = [0] * self.nvars
                if num is not None:
                    coeff *= _literal(num)
                elif name in self._var_index:
                    exps[self._var_index[name]] += 1 if exp is None else _literal(exp)
                else:
                    raise UsageError(f"unknown variable {name!r}")
                last = "factor"
        if last != "factor":
            raise UsageError(f"polynomial ends with a dangling operator: {text!r}")
        acc[tuple(exps)] = acc.get(tuple(exps), 0) + sign * coeff
        return self.from_exponent_dict(acc)


class Polynomial:
    """Canonical multivariate polynomial over a prime field.

    packed holds (key, coefficient) pairs, strictly descending by degrevlex
    key, with coefficients in [1, p), so `==` is mathematical equality.
    """

    __slots__ = ("ring", "packed")

    def __init__(self, ring: PolynomialRing, packed: tuple[tuple[int, int], ...]):
        self.ring = ring
        self.packed = packed

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(exponent tuple, coefficient) pairs, descending in degrevlex."""
        return tuple((self.ring._exps(k), c) for k, c in self.packed)

    # basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return not self.packed or self.packed[0][0] == 0

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return _degree(self.packed[0][0], self.ring.nvars)

    def is_homogeneous(self) -> bool:
        # the order is graded, so the first and last terms bound the degrees
        return not self.packed or \
            self.degree == _degree(self.packed[-1][0], self.ring.nvars)

    def leading_coefficient(self) -> int:
        if not self.packed:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.packed[0][1]

    # arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise UsageError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        d = dict(self.packed)
        for k, c in other.packed:
            d[k] = d.get(k, 0) + c
        return self.ring._from_keys(d)

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
        return Polynomial(self.ring, tuple((k, p - c) for k, c in self.packed))

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.prime
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Polynomial(self.ring, tuple((k, (a * c) % p) for k, a in self.packed))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        d: dict[int, int] = {}
        for k1, c1 in self.packed:
            for k2, c2 in other.packed:
                k = k1 + k2
                d[k] = d.get(k, 0) + c1 * c2
        self.ring._check_exponents(d, self.degree + other.degree)
        return self.ring._from_keys(d)

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
        if not self.packed:
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
        for k, c in self.packed:
            v = c
            for x, e in zip(pt, self.ring._exps(k)):
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
        for k, c in self.packed:
            term = target.constant(c)
            for img, e in zip(images, self.ring._exps(k)):
                if e:
                    term = term * img ** e
            out = out + term
        return out

    # canonical text form --------------------------------------------------

    def __str__(self):
        if not self.packed:
            return "0"
        parts = []
        for k, c in self.packed:
            factors = []
            for name, e in zip(self.ring.variables, self.ring._exps(k)):
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
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.ring, self.packed))
