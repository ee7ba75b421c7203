"""The classical resolution data verified against live Groebner computations
of the corresponding generic ideals: the predicted alternating-sum numerator
must equal the computed Hilbert numerator and the codimension must match the
resolution length (perfection)."""

import random
from itertools import combinations

from theta_loci.complexes import buchsbaum_eisenbud_numerator_terms
from theta_loci.groebner import (Ideal, _hilbert_function, hilbert,
                                 resolution_hilbert_numerator)
from theta_loci.multilinear import (SkewMatrix, pfaffian_ideal,
                                    random_section, w39_matrix)
from theta_loci.poly import PolynomialRing

from resolutions import (goto_jozefiak_tachibana_numerator_terms,
                         jozefiak_pragacz_numerator_terms,
                         koszul_numerator_terms)


def _generic_skew(n: int) -> SkewMatrix:
    ring = PolynomialRing(prime=101, nvars=n * (n - 1) // 2)
    gens = iter(ring.gens())
    upper = {(i, j): next(gens) for i in range(n) for j in range(i + 1, n)}
    return SkewMatrix.from_upper(ring, n, upper)


def _random_linear_skew(rng, size: int, nvars: int) -> SkewMatrix:
    ring = PolynomialRing(prime=101, nvars=nvars)
    z = ring.gens()
    upper = {(i, j): sum((v.scale(rng.randrange(101)) for v in z), ring.zero())
             for i in range(size) for j in range(i + 1, size)}
    return SkewMatrix.from_upper(ring, size, upper)


def test_koszul_is_variable_ideal_numerator():
    ring = PolynomialRing(prime=101, nvars=3)
    hd = hilbert(Ideal(ring, list(ring.gens())))
    assert hd.numerator == resolution_hilbert_numerator(koszul_numerator_terms(3))
    assert hd.krull_dimension == 0


def test_buchsbaum_eisenbud_generic():
    """4x4 Pfaffians of the generic skew 5x5: Gorenstein of codimension 3."""
    M = _generic_skew(5)
    hd = hilbert(pfaffian_ideal(M, 4))
    pred = resolution_hilbert_numerator(buchsbaum_eisenbud_numerator_terms(2))
    assert hd.numerator == pred
    assert M.ring.nvars - hd.krull_dimension == 3
    # Gorenstein symmetry: palindromic numerator up to sign
    c = pred.coeffs
    assert c == tuple(-x for x in reversed(c)) or c == tuple(reversed(c))


def test_goto_jozefiak_tachibana_generic():
    """2x2 minors of the generic symmetric 3x3: codimension 3."""
    ring = PolynomialRing(prime=101, nvars=6)
    g = ring.gens()
    sym = [[None] * 3 for _ in range(3)]
    k = 0
    for i in range(3):
        for j in range(i, 3):
            sym[i][j] = sym[j][i] = g[k]
            k += 1
    minors = []
    for rows in combinations(range(3), 2):
        for cols in combinations(range(3), 2):
            minors.append(sym[rows[0]][cols[0]] * sym[rows[1]][cols[1]]
                          - sym[rows[0]][cols[1]] * sym[rows[1]][cols[0]])
    hd = hilbert(Ideal(ring, minors))
    pred = resolution_hilbert_numerator(
        goto_jozefiak_tachibana_numerator_terms(3))
    assert hd.numerator == pred
    assert 6 - hd.krull_dimension == 3


def test_jozefiak_pragacz_generic():
    """4x4 Pfaffians of the generic skew 6x6: codimension 6."""
    M = _generic_skew(6)
    hd = hilbert(pfaffian_ideal(M, 4))
    pred = resolution_hilbert_numerator(jozefiak_pragacz_numerator_terms(3))
    assert hd.numerator == pred
    assert M.ring.nvars - hd.krull_dimension == 6


def test_random_linear_pfaffians_have_generic_hilbert_functions():
    """A random (so generic) matrix of linear forms, in at least as many
    variables as the expected codimension, has the Hilbert function of the
    classical resolution: Jozefiak-Pragacz for the size 2m - 2 Pfaffians of
    a 2m x 2m matrix, Buchsbaum-Eisenbud for the size 2m Pfaffians of a
    (2m+1) x (2m+1) matrix."""
    rng = random.Random(5)
    for size, sub, nvars in ((6, 4, 6), (6, 4, 7), (6, 4, 8), (6, 4, 9),
                             (8, 6, 6), (5, 4, 3), (5, 4, 4), (5, 4, 5),
                             (7, 6, 3), (7, 6, 4), (7, 6, 5)):
        m = size // 2
        terms = (jozefiak_pragacz_numerator_terms(m) if size % 2 == 0
                 else buchsbaum_eisenbud_numerator_terms(m))
        ideal = pfaffian_ideal(_random_linear_skew(rng, size, nvars), sub)
        assert hilbert(ideal).numerator == resolution_hilbert_numerator(terms), \
            (size, sub, nvars)


def test_w39_raw_pf6_meets_the_jp_floor_through_degree_4():
    """The raw Pf6 ideal of the w39 chart matrix is special: its Hilbert
    function lies on or above the Jozefiak-Pragacz floor up to its basis
    degree, meets it through degree 4, and reads 585 against 558 at 5."""
    jp = resolution_hilbert_numerator(jozefiak_pragacz_numerator_terms(4))
    for seed in (1, 2, 3):
        raw = pfaffian_ideal(w39_matrix(random_section("w39", seed, 101)), 6)
        hd = hilbert(raw)
        top = max(g.degree for g in raw.groebner_basis())
        hf = [hd.hilbert_function(d) for d in range(top + 1)]
        jf = [_hilbert_function(jp, 9, d) for d in range(top + 1)]
        assert all(a >= b for a, b in zip(hf, jf)), seed
        assert hf[:5] == jf[:5] and hf[4] == 306, seed
        assert (top, hf[5], jf[5]) == (5, 585, 558), seed
