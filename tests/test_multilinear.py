"""Pfaffians, Pfaffian ideals, section-to-matrix builders, PRNG determinism."""

import random
import re
from itertools import combinations

import pytest

from theta_loci.errors import UsageError
from theta_loci.multilinear import (AlternatingVector, SkewMatrix, SplitMix64,
                                    TensorSection, c5w25_matrix, pfaffian,
                                    pfaffian_ideal, random_section, w39_matrix)
from theta_loci.poly import PolynomialRing

from oracles import cofactor_determinant, matching_pfaffian, w39_matrix_by_deletion


def test_skew_construction_validated():
    ring = PolynomialRing(prime=101, variables=("a",))
    a = ring.gens()[0]
    zero = ring.zero()
    SkewMatrix(ring, [[zero, a], [-a, zero]])
    with pytest.raises(UsageError):
        SkewMatrix(ring, [[zero, a], [a, zero]])
    with pytest.raises(UsageError):
        SkewMatrix(ring, [[a, a], [-a, zero]])


def test_skew_matrix_refuses_entries_outside_its_ring():
    """Every entry is a Polynomial of the matrix's own ring; the first one
    that is not is named."""
    ring = PolynomialRing(prime=101, nvars=3)
    x, y, _ = ring.gens()
    zero = ring.zero()
    for other in (PolynomialRing(prime=32003, nvars=3),
                  PolynomialRing(prime=101, nvars=5)):
        w, o = other.gens()[0], other.zero()
        with pytest.raises(UsageError, match=r"entry \(0,0\) is not a polynomial"):
            SkewMatrix(ring, [[o, w], [-w, o]])
        with pytest.raises(UsageError, match=r"entry \(1,2\) is not a polynomial"):
            SkewMatrix(ring, [[zero, x, y], [-x, zero, w], [-y, -w, zero]])
    with pytest.raises(UsageError, match=r"entry \(0,0\) is not a polynomial"):
        SkewMatrix(ring, [[0, 1], [-1, 0]])
    with pytest.raises(UsageError, match=r"entry \(0,1\) is not a polynomial"):
        SkewMatrix(ring, [[zero, 1], [-1, zero]])


def test_pfaffian_convention_anchor():
    ring = PolynomialRing(prime=101, variables=("a",))
    a = ring.gens()[0]
    zero = ring.zero()
    m = SkewMatrix(ring, [[zero, a], [-a, zero]])
    assert pfaffian(m) == a


def test_pfaffian_generic_4x4():
    names = [f"x_{i}{j}" for i in range(1, 5) for j in range(i + 1, 5)]
    ring = PolynomialRing(prime=101, variables=names)
    x = dict(zip([(i, j) for i in range(1, 5) for j in range(i + 1, 5)],
                 ring.gens()))
    m = SkewMatrix.from_upper(ring, 4, {(i - 1, j - 1): x[(i, j)]
                                        for (i, j) in x})
    # brute-force sum over the 3 perfect matchings of 4 points
    expect = x[(1, 2)] * x[(3, 4)] - x[(1, 3)] * x[(2, 4)] + x[(1, 4)] * x[(2, 3)]
    assert pfaffian(m) == expect


def test_odd_size_pfaffian_is_zero():
    ring = PolynomialRing(prime=101, variables=("a", "b", "c"))
    a, b, c = ring.gens()
    zero = ring.zero()
    m = SkewMatrix(ring, [[zero, a, b], [-a, zero, c], [-b, -c, zero]])
    assert pfaffian(m).is_zero()


def _random_skew(ring, n, rng):
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = {}
            for _ in range(2):
                exps = [0] * ring.nvars
                exps[rng.randrange(ring.nvars)] = 1
                d[tuple(exps)] = rng.randrange(101)
            upper[(i, j)] = ring.from_exponent_dict(d)
    return SkewMatrix.from_upper(ring, n, upper)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(42)
    ring = PolynomialRing(prime=101, nvars=3)
    for n in (4, 6):
        for _ in range(3):
            m = _random_skew(ring, n, rng)
            assert pfaffian(m) * pfaffian(m) == cofactor_determinant(m)


def test_pfaffian_permutation_sign():
    rng = random.Random(43)
    ring = PolynomialRing(prime=101, nvars=3)
    m = _random_skew(ring, 4, rng)
    base = pfaffian(m)
    for _ in range(10):
        sigma = list(range(4))
        rng.shuffle(sigma)
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if sigma[i] > sigma[j])
        got = pfaffian(m.submatrix(sigma))
        assert got == (base if inv % 2 == 0 else -base)


def _random_form(ring, degree, rng):
    """Up to three random terms of one degree; zero about a fifth of the time."""
    p = ring.prime
    if rng.randrange(5) == 0:
        return ring.zero()
    d = {}
    for _ in range(3):
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        d[tuple(exps)] = rng.randrange(p)
    return ring.from_exponent_dict(d)


@pytest.mark.parametrize("prime", [101, 32003, 2 ** 61 - 1])
def test_pfaffians_match_the_matching_sum(prime):
    """pfaffian and pfaffian_ideal of every even size agree with the sum
    over perfect matchings, on sizes 0-8 of linear and quadratic forms."""
    rng = random.Random(prime)
    ring = PolynomialRing(prime=prime, nvars=4)
    for degree in (1, 2):
        for n in range(9):
            upper = {(i, j): _random_form(ring, degree, rng)
                     for i in range(n) for j in range(i + 1, n)}
            m = SkewMatrix.from_upper(ring, n, upper)
            assert pfaffian(m) == matching_pfaffian(m)
            m = SkewMatrix.from_upper(ring, n, upper)
            for size in range(0, n + 1, 2):
                expected = [matching_pfaffian(m, c)
                            for c in combinations(range(n), size)]
                assert pfaffian_ideal(m, size).generators == \
                    tuple(f for f in expected if not f.is_zero())


def test_pfaffian_exponent_guard():
    """An exponent that reaches 2^15 is refused through either entry point,
    as Polynomial.__mul__ refuses it; one just below the bound is kept."""
    ring = PolynomialRing(prime=101, variables=("x",))
    x = ring.gens()[0]
    for read in (pfaffian, lambda m: pfaffian_ideal(m, 4)):
        m = SkewMatrix.from_upper(ring, 4, {(0, 1): x ** 2 ** 14, (2, 3): x ** 2 ** 14})
        with pytest.raises(UsageError, match="exponent too large"):
            read(m)
    m = SkewMatrix.from_upper(ring, 4, {(0, 1): x ** 2 ** 14, (2, 3): x ** (2 ** 14 - 1)})
    assert pfaffian(m) == x ** (2 ** 15 - 1)
    assert pfaffian_ideal(m, 4).generators == (x ** (2 ** 15 - 1),)


def test_pfaffian_ideal_counts():
    names = [f"x_{i}{j}" for i in range(1, 6) for j in range(i + 1, 6)]
    ring = PolynomialRing(prime=101, variables=names)
    gens = iter(ring.gens())
    upper = {(i, j): next(gens) for i in range(5) for j in range(i + 1, 5)}
    m = SkewMatrix.from_upper(ring, 5, upper)
    ideal = pfaffian_ideal(m, 4)
    assert len(ideal.generators) == 5
    assert all(g.degree == 2 for g in ideal.generators)
    with pytest.raises(UsageError):
        pfaffian_ideal(m, 3)
    with pytest.raises(UsageError, match="non-negative, got -2"):
        pfaffian_ideal(m, -2)
    m4 = m.submatrix((0, 1, 2, 3))
    principal = pfaffian_ideal(m4, 4)
    assert principal.generators == (pfaffian(m4),)


def test_pfaffian_ideals_share_one_memo():
    """Sizes 8, 6, 4 of one matrix, read through its shared memo, equal the
    Pfaffians of fresh submatrices, in subset order with zeros dropped."""
    m = w39_matrix(random_section("w39", 1, 101))
    for size in (8, 6, 4):
        expected = [pfaffian(m.submatrix(c))
                    for c in combinations(range(m.size), size)]
        got = pfaffian_ideal(m, size).generators
        assert got == tuple(f for f in expected if not f.is_zero())


def test_pfaffian_ideal_cubic_count_on_8x8():
    v = random_section("w39", 99, 101)
    m = w39_matrix(v)
    ideal = pfaffian_ideal(m, 6)
    assert len(ideal.generators) == 28
    assert all(g.degree == 3 for g in ideal.generators)


def test_w39_matrix_single_triples():
    ring = PolynomialRing(prime=101, nvars=9)
    z = ring.gens()
    v = AlternatingVector(9, 3, 101, {(5, 6, 7): 1})
    m = w39_matrix(v)
    assert m.entries[4][5] == -z[6]
    assert m.entries[4][6] == z[5]
    assert m.entries[5][6] == -z[4]
    nonzero = [(i, j) for i in range(8) for j in range(8)
               if not m.entries[i][j].is_zero()]
    assert sorted(nonzero) == [(4, 5), (4, 6), (5, 4), (5, 6), (6, 4), (6, 5)]

    v = AlternatingVector(9, 3, 101, {(1, 2, 9): 1})
    m = w39_matrix(v)
    assert m.entries[0][1] == -z[8]
    assert m.entries[1][0] == z[8]
    nonzero = [(i, j) for i in range(8) for j in range(8)
               if not m.entries[i][j].is_zero()]
    assert sorted(nonzero) == [(0, 1), (1, 0)]

    zero_v = AlternatingVector(9, 3, 101, {})
    assert all(e.is_zero() for row in w39_matrix(zero_v).entries for e in row)


def test_w39_matrix_matches_literal_transcription():
    """Chart 9 agrees with the literal per-triple matrix builder."""
    ring = PolynomialRing(prime=101, nvars=9)
    z = ring.gens()

    def basic_mat(s):
        upper = {}
        i, j, k = s
        upper[(i - 1, j - 1)] = -z[k - 1]
        if 9 not in s:
            upper[(i - 1, k - 1)] = z[j - 1]
            upper[(j - 1, k - 1)] = -z[i - 1]
        return SkewMatrix.from_upper(ring, 8, upper)

    v = random_section("w39", 17, 101)
    total = SkewMatrix.from_upper(ring, 8, {})
    for triple, c in sorted(v.coefficients.items()):
        contrib = basic_mat(triple)
        scaled = SkewMatrix(ring, [[e.scale(c) for e in row]
                                   for row in contrib.entries])
        total = total + scaled
    assert w39_matrix(v).entries == total.entries


@pytest.mark.parametrize("case", ["w39", "c3c3c3"])
def test_w39_matrix_equals_the_9x9_matrix_without_the_chart(case):
    """w39_matrix places each term straight into the 8x8 chart matrix; it
    equals the whole 9x9 comultiplication matrix with the chart row and
    column deleted, on every chart."""
    for prime in (2, 101, 32003):
        for seed in (1, 2):
            v = random_section(case, seed, prime)
            for chart in range(1, 10):
                want = w39_matrix_by_deletion(v, chart)
                assert w39_matrix(v, chart).entries == want.entries, (prime, seed, chart)


def test_w39_linearity():
    u = random_section("w39", 1, 101)
    v = random_section("w39", 2, 101)
    s = u + v
    # each call builds its own ring; rings compare structurally, so mu + mv adds
    left = w39_matrix(s)
    mu, mv = w39_matrix(u), w39_matrix(v)
    assert left.entries == (mu + mv).entries


def test_c5w25_matrix_single_term():
    section = TensorSection.from_dict(101, {(1, 1, 2): 1})
    m = c5w25_matrix(section)
    z1 = m.ring.gens()[0]
    assert m.entries[0][1] == z1
    assert m.entries[1][0] == -z1
    zero_section = TensorSection.from_dict(101, {})
    assert all(e.is_zero() for row in c5w25_matrix(zero_section).entries
               for e in row)


def test_tensor_section_names_a_bad_index():
    """Every key that is not (a, i, j) with 1 <= a <= 5 and 1 <= i < j <= 5
    is refused by name, the short, long and non-tuple ones included, also
    beside a good key."""
    for key in ((1, 2), (1, 1, 2, 3), (0, 1, 2), (6, 1, 2), (1, 2, 1), (1, 2, 2),
                (1, 0, 2), (1, 1, 6), 5):
        for d in ({key: 1}, {(1, 1, 2): 1, key: 1}):
            with pytest.raises(UsageError, match=re.escape(f"bad tensor index {key}")):
                TensorSection.from_dict(101, d)


def test_index_entries_must_be_integers():
    """An index entry whose type is not int is refused by name, a float that
    compares as in range and True, which would pass for 1, included."""
    for key in ((1.5, 1, 2), ("a", 1, 2), (True, 1, 2), (1, True, 2), (1, 1, 2.0)):
        for d in ({key: 1}, {(2, 3, 4): 1, key: 1}):  # a key equal to key would merge
            with pytest.raises(UsageError, match=re.escape(f"bad tensor index {key}")):
                TensorSection.from_dict(101, d)
    for key in ((1, 2, "a"), (1, 2, 3.0), (True, 2, 3), (1.0, 2, 3)):
        for d in ({key: 1}, {(4, 5, 6): 1, key: 1}):
            with pytest.raises(UsageError,
                               match=re.escape(f"index tuple {key} is not of integers")):
                AlternatingVector(9, 3, 101, d)


def test_c5w25_gallery_matrices_reproduced():
    """Each gallery quintic's matrix, built by c5w25_matrix from its section,
    is the matrix the gallery once wrote out in full, entry for entry."""
    from theta_loci.pipeline import _SECTIONS, GALLERY

    for prime in (2, 101, 2 ** 61 - 1):
        ring = PolynomialRing(prime=prime, nvars=5)
        z1, z2, z3, z4, z5 = ring.gens()
        zero = ring.zero()
        verbatim = {
            "nodal": [
                [zero, z5, z1, z2, z3],
                [-z5, zero, z2, z3, z4],
                [-z1, -z2, zero, z4, z5],
                [-z2, -z3, -z4, zero, zero],
                [-z3, -z4, -z5, zero, zero],
            ],
            "triangle": [
                [zero, zero, z4, z3, z2],
                [zero, zero, zero, z2, z1],
                [-z4, zero, zero, zero, -z5],
                [-z3, -z2, zero, zero, -z4],
                [-z2, -z1, z5, z4, zero],
            ],
            "pentagon": [
                [zero, z1, z2, zero, zero],
                [-z1, zero, zero, z3, zero],
                [-z2, zero, zero, zero, z4],
                [zero, -z3, zero, zero, z5],
                [zero, zero, -z4, -z5, zero],
            ],
            "nonreduced": [
                [zero, zero, z5, z3, z2],
                [zero, zero, zero, z2, z1],
                [-z5, zero, zero, z4, z3],
                [-z3, -z2, -z4, zero, zero],
                [-z2, -z1, -z3, zero, zero],
            ],
            "cuspidal": [
                [zero, z1, z4, zero, z5],
                [-z1, zero, zero, z5, z2],
                [-z4, zero, zero, z2, z3],
                [zero, -z5, -z2, zero, z4],
                [-z5, -z2, -z3, -z4, zero],
            ],
        }
        assert tuple(verbatim) == GALLERY
        for name, rows in verbatim.items():
            matrix = c5w25_matrix(TensorSection.from_dict(prime, _SECTIONS[name]))
            assert matrix.entries == tuple(map(tuple, rows)), (prime, name)


def test_random_section_counts_and_determinism():
    w = random_section("w39", 5, 101)
    assert len(w.coefficients) <= 84
    rng = SplitMix64(5)
    draws = [rng.next64() % 101 for _ in range(84)]
    from itertools import combinations
    expected = {t: d for t, d in zip(combinations(range(1, 10), 3), draws) if d}
    assert w.coefficients == expected

    c = random_section("c3c3c3", 5, 101)
    assert all(t[0] in (1, 2, 3) and t[1] in (4, 5, 6) and t[2] in (7, 8, 9)
               for t in c.coefficients)
    assert len(c.coefficients) <= 27

    assert random_section("w39", 5, 101) == random_section("w39", 5, 101)
    t1 = random_section("c5w25", 5, 101)
    t2 = random_section("c5w25", 5, 101)
    assert t1 == t2
    with pytest.raises(UsageError):
        random_section("nope", 1, 101)


def test_sections_refuse_a_modulus_that_is_not_prime():
    """A section reduces its coefficients mod its prime, so a modulus that
    is not prime is refused as random_section refuses it."""
    for prime in (0, 1, 4, -3):
        with pytest.raises(UsageError, match="not prime"):
            AlternatingVector(7, 3, prime, {(1, 2, 3): 1})
        with pytest.raises(UsageError, match="not prime"):
            TensorSection.from_dict(prime, {(1, 1, 2): 1})
    for prime in (101, (1 << 31) - 1):
        v = AlternatingVector(7, 3, prime, {(1, 2, 3): -1})
        assert v.coefficients == {(1, 2, 3): prime - 1}
        assert TensorSection.from_dict(prime, {(1, 1, 2): -1}).terms == \
            (((1, 1, 2), prime - 1),)


def test_splitmix64_reference_values():
    # published reference stream for seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
