"""Triple pairings, support enumeration, orbit dimensions, the ten-orbit table."""

import random
from functools import cache
from itertools import combinations

import pytest

from oracles import rank_mod_p, s7_orbit, tangent_rows
from theta_loci.errors import UsageError
from theta_loci.multilinear import AlternatingVector, SplitMix64
from theta_loci.vinberg import (_MASKS, _ORTHO, _TRIPLE_INDEX, _TYPE_SHAPE,
                                ORBITS, RANK_PRIME, SUPPORT_TYPES, TRIPLES,
                                _gram_classes, _orbit, _rank_mod_p,
                                enumerate_supports, orbit_dimension,
                                orbit_table, parse_bracket_terms,
                                triple_pairing)


def test_triple_pairing_examples():
    assert triple_pairing((1, 2, 3), (4, 5, 6)) == -1
    assert triple_pairing((1, 2, 3), (1, 2, 3)) == 2
    assert triple_pairing((1, 2, 3), (1, 4, 5)) == 0


def test_pairing_s7_invariant():
    rng = random.Random(21)
    for _ in range(100):
        sigma = list(range(1, 8))
        rng.shuffle(sigma)
        s = tuple(sorted(rng.sample(range(1, 8), 3)))
        t = tuple(sorted(rng.sample(range(1, 8), 3)))
        ss = tuple(sorted(sigma[i - 1] for i in s))
        tt = tuple(sorted(sigma[i - 1] for i in t))
        assert triple_pairing(ss, tt) == triple_pairing(s, t)


def test_enumerate_counts():
    assert enumerate_supports("3A1")[0] == 2
    assert enumerate_supports("4A1")[0] == 1
    assert enumerate_supports("A2")[0] == 1
    assert enumerate_supports("A1")[0] == 1
    assert enumerate_supports("2A1")[0] == 1
    assert enumerate_supports("A2+A1")[0] == 1
    assert enumerate_supports("A2+2A1")[0] == 1
    assert enumerate_supports("A2+3A1")[0] == 1
    with pytest.raises(UsageError):
        enumerate_supports("E8")


def test_enumerate_representatives():
    """The representatives of every type, as the parent of the generator
    closure printed them."""
    a, b, c, d, e, f, g = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
                           (4, 5, 6), (1, 4, 7), (2, 5, 7))
    expected = {
        "A1": [(a,)],
        "2A1": [(a, b)],
        "3A1": [(a, b, c), (a, b, d)],
        "4A1": [(a, b, c, d)],
        "A2": [(a, e)],
        "A2+A1": [(a, e, f)],
        "A2+2A1": [(a, e, f, g)],
        "A2+3A1": [(a, e, f, g, (3, 6, 7))],
    }
    for typ in SUPPORT_TYPES:
        assert [r.triples() for r in enumerate_supports(typ)[1]] == expected[typ], typ


def _key(config):
    return (tuple(_TRIPLE_INDEX[t] for t in config.a2_pair),
            tuple(_TRIPLE_INDEX[t] for t in config.a1_triples))


@cache
def _raw_keys(typ):
    """Every Gram-compatible key of the type, by brute force over triples:
    a disjoint pair (or none) and the A_1 triples, which pairwise meet in one
    element and meet each triple of the pair in one element."""
    n_a2, n_a1 = _TYPE_SHAPE[typ]

    def pairing(i, j):
        return triple_pairing(TRIPLES[i], TRIPLES[j])

    indices = range(len(TRIPLES))
    pairs = [p for p in combinations(indices, 2) if pairing(*p) == -1] if n_a2 else [()]
    out = []
    for a2 in pairs:
        candidates = [c for c in indices if all(pairing(c, b) == 0 for b in a2)]
        for a1 in combinations(candidates, n_a1):
            if all(pairing(s, t) == 0 for s, t in combinations(a1, 2)):
                out.append((a2, a1))
    return out


def test_enumerate_closed_under_permutation():
    """Each representative is the least element of its S_7 orbit, and the
    orbits of distinct representatives are disjoint (orbits by the
    all-permutations oracle)."""
    for typ in SUPPORT_TYPES:
        _, reps = enumerate_supports(typ)
        seen = set()
        for r in reps:
            key = _key(r)
            orbit = s7_orbit(key)
            assert key == min(orbit)
            assert seen.isdisjoint(orbit)
            seen |= orbit


def test_generator_closure_is_the_s7_orbit():
    """_orbit, the closure under (1 2) and (1 2 ... 7), equals the image
    under all 5040 permutations, for every representative and for 50
    seeded raw keys of each type (A_1 has 35, all taken)."""
    rng = random.Random(24)
    for typ in SUPPORT_TYPES:
        raw = _raw_keys(typ)
        keys = [_key(r) for r in enumerate_supports(typ)[1]] + rng.sample(raw, min(50, len(raw)))
        for key in keys:
            assert _orbit(key) == s7_orbit(key), (typ, key)


def test_gram_classes_match_brute_force():
    """The least elements of the oracle orbits over all raw keys of a type,
    before the dimension certificate, are _gram_classes of the type."""
    total = 0
    for typ in SUPPORT_TYPES:
        raw = _raw_keys(typ)
        total += len(raw)
        seen, classes = set(), set()
        for key in raw:
            if key not in seen:
                orbit = s7_orbit(key)
                seen |= orbit
                classes.add(min(orbit))
        assert seen == set(raw), typ
        assert sorted(classes) == [_key(c) for c in _gram_classes(typ)], typ
    assert total == 4725


def test_triple_bitsets_match_the_pairing():
    """_ORTHO and the disjointness of _MASKS against triple_pairing on all
    35 x 35 pairs of triples."""
    for i, s in enumerate(TRIPLES):
        for j, t in enumerate(TRIPLES):
            assert bool(_ORTHO[i] >> j & 1) == (triple_pairing(s, t) == 0), (s, t)
            assert (not _MASKS[i] & _MASKS[j]) == (triple_pairing(s, t) == -1), (s, t)


def test_gram_condition_of_representatives():
    """Every representative realizes the simple-root pairing matrix."""
    for typ in SUPPORT_TYPES:
        _, reps = enumerate_supports(typ)
        for rep in reps:
            a2, a1 = rep.a2_pair, rep.a1_triples
            for i, s in enumerate(a2):
                for j, t in enumerate(a2):
                    expect = 2 if i == j else -1
                    assert triple_pairing(s, t) == expect
            for s in a2:
                for t in a1:
                    assert triple_pairing(s, t) == 0
            for i, s in enumerate(a1):
                for j, t in enumerate(a1):
                    expect = 2 if i == j else 0
                    assert triple_pairing(s, t) == expect


def test_four_a1_completion_counts():
    """Triples completing a 3A_1 base to a genuine 4A_1 support, counted
    before the S_7 dedup, by brute force: a candidate pairs to 0 with each
    base triple, and it counts when base + candidate has the generic orbit
    dimension of a kept 4A_1 class, with coefficients drawn as the dimension
    certificate draws them."""

    def generic_dimension(triples):
        rng = SplitMix64(0x5EED_0001)
        coeffs = {t: 1 + rng.next64() % (RANK_PRIME - 1) for t in triples}
        return orbit_dimension(AlternatingVector(7, 3, RANK_PRIME, coeffs))

    kept = {generic_dimension(c.triples()) for c in enumerate_supports("4A1")[1]}

    def completions(base):
        return sum(generic_dimension(base + (t,)) in kept for t in TRIPLES
                   if all(triple_pairing(t, b) == 0 for b in base))

    assert completions(((1, 2, 3), (1, 4, 5), (1, 6, 7))) == 8
    assert completions(((1, 2, 3), (1, 4, 5), (2, 4, 6))) == 3


def test_orbit_dimension_examples():
    zero = AlternatingVector(7, 3, RANK_PRIME, {})
    assert orbit_dimension(zero) == 0
    single = AlternatingVector(7, 3, RANK_PRIME, {(1, 2, 3): 1})
    assert orbit_dimension(single) == 13
    dense = AlternatingVector(7, 3, RANK_PRIME, {
        (1, 2, 3): 1, (4, 5, 6): 1, (1, 4, 7): 1, (2, 5, 7): 1, (3, 6, 7): 1})
    assert orbit_dimension(dense) == 35


PRIMES = (2, 3, 5, 7, 101, RANK_PRIME)


def test_orbit_dimension_matches_the_sorted_tuple_oracle():
    """The mask rows and pivot-dict rank give the rank of the sorted-tuple
    tangent rows by Gauss-Jordan elimination, at small primes too."""
    rng = random.Random(2501)
    for p in PRIMES:
        tensors = [{}, {(1, 2, 3): 1}, {t: 1 + rng.randrange(p - 1) for t in TRIPLES}]
        for _ in range(60):
            picked = rng.sample(TRIPLES, rng.randint(0, 15))
            tensors.append({t: rng.randrange(p) for t in picked})
        for coeffs in tensors:
            v = AlternatingVector(7, 3, p, coeffs)
            assert orbit_dimension(v) == rank_mod_p(tangent_rows(v), p), (p, coeffs)


def test_rank_matches_gauss_jordan():
    rng = random.Random(2502)
    for _ in range(600):
        p = rng.choice(PRIMES)
        ncols = rng.randint(1, 12)
        rows = [[rng.randrange(-p, 2 * p) if rng.random() < 0.6 else 0
                 for _ in range(ncols)] for _ in range(rng.randint(0, 12))]
        assert _rank_mod_p(rows, p) == rank_mod_p(rows, p), (p, rows)


def test_orbit_table_rows():
    table = orbit_table()
    assert [rec.expected_dimension for rec in table] == \
        [0, 13, 20, 21, 25, 26, 28, 31, 34, 35]
    assert table[4].representative_triples == ((1, 2, 3), (1, 4, 5), (2, 4, 6))
    assert table[6].representative_triples == \
        ((1, 2, 3), (1, 4, 5), (1, 6, 7), (3, 5, 7))
    labels = [rec.label for rec in table]
    assert labels == list(range(10))


def test_dims_strictly_increase():
    dims = [rec.expected_dimension for rec in ORBITS]
    assert all(a < b for a, b in zip(dims, dims[1:]))


def test_orbit_dimension_constant_on_orbits():
    """g . v has the same tangent rank for random invertible g."""
    rng = random.Random(23)
    p = RANK_PRIME

    def random_invertible():
        while True:
            g = [[rng.randrange(p) for _ in range(7)] for _ in range(7)]
            # det via Gaussian elimination mod p
            m = [row[:] for row in g]
            det = 1
            for c in range(7):
                piv = next((r for r in range(c, 7) if m[r][c]), None)
                if piv is None:
                    det = 0
                    break
                if piv != c:
                    m[c], m[piv] = m[piv], m[c]
                    det = -det
                det = det * m[c][c] % p
                inv = pow(m[c][c], p - 2, p)
                m[c] = [x * inv % p for x in m[c]]
                for r in range(c + 1, 7):
                    f = m[r][c]
                    if f:
                        m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
            if det:
                return g

    def act(g, v):
        out = {}
        for (i, j, k), c in v.coefficients.items():
            # g.e_i ^ g.e_j ^ g.e_k expanded into basis triples
            for a in range(1, 8):
                for b in range(1, 8):
                    if b == a:
                        continue
                    for d in range(1, 8):
                        if d in (a, b):
                            continue
                        coeff = (g[a - 1][i - 1] * g[b - 1][j - 1] *
                                 g[d - 1][k - 1]) % p
                        if not coeff:
                            continue
                        key = tuple(sorted((a, b, d)))
                        perm = sorted(range(3), key=lambda r: (a, b, d)[r])
                        inv = sum(1 for r in range(3) for s in range(r + 1, 3)
                                  if perm[r] > perm[s])
                        sign = -1 if inv % 2 else 1
                        out[key] = (out.get(key, 0) + sign * c * coeff) % p
        return AlternatingVector(7, 3, p, out)

    for rec in ORBITS:
        v = rec.representative()
        base = orbit_dimension(v)
        for _ in range(20):
            g = random_invertible()
            assert orbit_dimension(act(g, v)) == base


def test_support_config_validates_gram():
    from theta_loci.vinberg import SupportConfig

    SupportConfig("2A1", (), ((1, 2, 3), (1, 4, 5)))
    with pytest.raises(UsageError):
        SupportConfig("2A1", (), ((1, 2, 3), (4, 5, 6)))  # pairs to -1, not 0
    with pytest.raises(UsageError):
        SupportConfig("A2", ((1, 2, 3), (1, 4, 5)), ())  # pairs to 0, not -1
    with pytest.raises(UsageError):
        SupportConfig("3A1", (), ((1, 2, 3), (1, 4, 5)))  # wrong shape


def test_table_representatives_are_valid_supports():
    """Rows 1..9 carry representatives realizing their type's Gram matrix."""
    from theta_loci.vinberg import SupportConfig

    for rec in ORBITS[1:]:
        triples = rec.representative_triples
        if rec.support_type.startswith("A2"):
            SupportConfig(rec.support_type, triples[:2], triples[2:])
        else:
            SupportConfig(rec.support_type, (), triples)


def test_alternating_vector_invariants():
    with pytest.raises(UsageError, match="not prime"):
        orbit_dimension(AlternatingVector(7, 3, 1, {(1, 2, 3): 1}))
    with pytest.raises(UsageError):
        AlternatingVector(7, 3, 101, {(2, 1, 3): 1})  # not increasing
    with pytest.raises(UsageError):
        AlternatingVector(7, 3, 101, {(1, 2, 8): 1})  # out of range
    v = AlternatingVector(7, 3, 101, {(1, 2, 3): 101})  # zero mod p dropped
    assert v.coefficients == {}


def test_parse_bracket_terms():
    v = parse_bracket_terms("[1,2,3]+[4,5,6]")
    assert v.coefficients == {(1, 2, 3): 1, (4, 5, 6): 1}
    v = parse_bracket_terms("2*[1,2,3] - [4,5,6]")
    assert v.coefficients[(1, 2, 3)] == 2
    assert v.coefficients[(4, 5, 6)] == RANK_PRIME - 1
    with pytest.raises(UsageError):
        parse_bracket_terms("[1,2]")
    with pytest.raises(UsageError):
        parse_bracket_terms("[1,1,2]")
    for text in ("[1,2,3]", "[1, 2, 3]", "[1 2 3]", " [ 1 ,2\t3 ] "):
        assert parse_bracket_terms(text).coefficients == {(1, 2, 3): 1}, text
    assert parse_bracket_terms("2*[1,2,3]-[4,5,6]").coefficients == \
        {(1, 2, 3): 2, (4, 5, 6): RANK_PRIME - 1}
    # indices need a separator, and digits are ASCII only
    for text in ("[12,3]", "[1,23]", "[123]", "[1,,2,3]",
                 "[\u0661,\u0662,\u0663]", "\u0662*[1,2,3]"):
        with pytest.raises(UsageError, match="cannot parse"):
            parse_bracket_terms(text)
    with pytest.raises(UsageError, match="5000 digits"):
        parse_bracket_terms("9" * 5000 + "*[1,2,3]")
    # a bracket is a wedge product: an unsorted one carries the sign of the
    # permutation sorting it
    assert parse_bracket_terms("[2,1,3]").coefficients == {(1, 2, 3): RANK_PRIME - 1}
    assert parse_bracket_terms("[3,1,2]").coefficients == {(1, 2, 3): 1}
    for text, dim in (("[1,2,3]+[2,1,3]", 0), ("[2,1,3]", 13),
                      ("-[3,2,1]+[4,5,6]", 26)):
        assert orbit_dimension(parse_bracket_terms(text)) == dim, text
