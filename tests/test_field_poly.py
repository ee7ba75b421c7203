"""Prime field, degrevlex order, canonical polynomial arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_loci.errors import UsageError
from theta_loci.poly import PolynomialRing, PrimeField, is_prime


def test_prime_validation():
    PrimeField(2)
    PrimeField(101)
    with pytest.raises(UsageError):
        PrimeField(1)
    with pytest.raises(UsageError):
        PrimeField(91)  # 7 * 13
    assert is_prime(2_147_483_647)
    PrimeField(2 ** 61 - 1)
    # the least strong pseudoprime to the bases 2..37 bounds the range
    for n in (318665857834031151167461, 2 ** 127 - 1):
        with pytest.raises(UsageError, match="318665857834031151167461"):
            PrimeField(n)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == \
        [n for n in range(20000) if _is_prime_by_trial_division(n)]
    # Carmichael numbers, and strong pseudoprimes to the first few bases
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              3215031751, 3825123056546413051):
        assert not is_prime(n)


@settings(deadline=None)
@given(st.integers(0, 10 ** 6 - 1))
def test_miller_rabin_matches_trial_division(n):
    assert is_prime(n) == _is_prime_by_trial_division(n)


def test_inverse():
    F = PrimeField(101)
    for a in range(1, 101):
        assert F.inverse(a) * a % 101 == 1
    with pytest.raises(UsageError):
        F.inverse(0)


def test_degrevlex_examples():
    R = PolynomialRing(prime=101, nvars=3)

    def lead(a, b):
        return (R.monomial(a) + R.monomial(b)).terms[0][0]

    # x1^2 vs x1 x2
    assert lead((1, 1, 0), (2, 0, 0)) == (2, 0, 0)
    # x2^2 vs x1 x3: x3-exponents 0 vs 1, smaller wins
    assert lead((1, 0, 1), (0, 2, 0)) == (0, 2, 0)
    # equal degree, scanning from z: exponents 0 vs 2, smaller wins
    assert lead((0, 0, 2), (1, 1, 0)) == (1, 1, 0)
    # higher degree wins, whatever the last exponents
    assert lead((1, 0, 0), (0, 0, 2)) == (0, 0, 2)
    m = (1, 2, 3)
    assert (R.monomial(m) + R.monomial(m)).terms == ((m, 2),)
    with pytest.raises(UsageError):
        R.monomial((1, 2))


def test_degrevlex_total_order_compatible_with_multiplication():
    # exhaustive on monomials of degree <= 4 in 3 variables
    R = PolynomialRing(prime=101, nvars=3)
    monos = [(a, b, c)
             for a in range(5) for b in range(5) for c in range(5)
             if a + b + c <= 4]
    every = R.from_exponent_dict(dict.fromkeys(monos, 1))
    order = [e for e, _ in every.terms]
    # descending by (degree, reversed exponents negated) is degrevlex
    assert order == sorted(monos, reverse=True,
                           key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
    # m * m1 > m * m2 whenever m1 > m2
    for m in monos:
        assert [e for e, _ in (R.monomial(m) * every).terms] == \
            [tuple(a + b for a, b in zip(m, e)) for e in order]


def test_monomial_invariants():
    R = PolynomialRing(prime=101, nvars=3)
    m = R.monomial((2, 0, 1))
    assert m.degree == 3
    assert (m * R.monomial((0, 1, 0))).terms == (((2, 1, 1), 1),)
    assert (m * R.monomial((0, 1, 0))).degree == 4
    with pytest.raises(UsageError):
        R.monomial((2, -1, 0))


def test_binomial_square():
    R = PolynomialRing(prime=101, variables=("x", "y"))
    x, y = R.gens()
    assert str((x + y) * (x + y)) == "x^2 + 2*x*y + y^2"


def test_characteristic_two_frobenius():
    R = PolynomialRing(prime=2, variables=("x", "y"))
    x, y = R.gens()
    assert str((x + y) * (x + y)) == "x^2 + y^2"


def test_additive_inverse():
    R = PolynomialRing(prime=101, variables=("x", "y"))
    x, y = R.gens()
    f = x * x + 3 * y
    assert (f + f.scale(-1)).is_zero()
    assert (f + (-1) * f).terms == ()


def test_ring_mismatch_raises():
    R1 = PolynomialRing(prime=101, nvars=2)
    R2 = PolynomialRing(prime=7, nvars=2)
    with pytest.raises(UsageError):
        R1.gens()[0] + R2.gens()[0]


def test_parser_roundtrip_and_whitespace():
    R = PolynomialRing(prime=101, nvars=3)
    f = R.parse("5*z_1^2*z_3 + 7*z_2 + 1")
    assert str(f) == "5*z_1^2*z_3 + 7*z_2 + 1"
    assert R.parse(" 5 * z_1 ^ 2 * z_3+7*z_2 + 1 ") == f
    assert R.parse(str(f)) == f
    assert R.parse("z_1 - z_1") == R.zero()
    assert R.parse("-z_1 + 2*z_1") == R.gens()[0]
    assert R.parse("0").is_zero()
    for bad in ("q_1 + 1", "", "z_1 +", "z_1 -", "z_1*", "+", "-", "z_1 * * z_2",
                "z_1^", "z_1^z_2", "z_1*-z_2"):
        with pytest.raises(UsageError):
            R.parse(bad)


def test_variable_index_bounds():
    R = PolynomialRing(prime=101, nvars=3)
    assert str(R.variable(2)) == "z_3"
    for i in (-1, 3):
        with pytest.raises(UsageError, match=f"variable index {i}"):
            R.variable(i)


def test_parser_accepts_negative_coefficients():
    R = PolynomialRing(prime=101, nvars=2)
    f = R.parse("z_1 - 3*z_2")
    assert f == R.gens()[0] - R.gens()[1].scale(3)
    assert str(f) == "z_1 + 98*z_2"


def test_substitute():
    R = PolynomialRing(prime=101, nvars=2)
    S = PolynomialRing(prime=101, variables=("a", "b"))
    a, b = S.gens()
    f = R.parse("z_1^2 + z_2")
    assert f.substitute([a + b, a * b]) == (a + b) ** 2 + a * b
