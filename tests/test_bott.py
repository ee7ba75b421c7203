"""Dotted action, dimension formulas, resolution cohomology, Verlinde."""

import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, count, permutations
from math import comb, log10

import pytest
import sympy

from theta_loci.errors import UsageError
from theta_loci.bott import (BottOutcome, ResolutionTerm, Space, _conjugate,
                             _integer_rank, _schur_image,
                             bott_outcome, bott_type_a, bott_type_c,
                             cohomology_of_resolution, schur_dim,
                             schur_module_rank, verlinde, weyl_dim_type_c)
from theta_loci.complexes import submaximal_pfaffian_complex_p8

from oracles import (cells, content, hook, hook_content_dim,
                     hyperoctahedral_word_lengths)
from resolutions import (GR36_BETTI_TOTALS, gr36_betti_totals,
                         koszul_complex_terms, symplectic_codim4_complex_p7)


# ---------------------------------------------------------------------------
# partitions


def test_partition_accessors():
    """schur_module_rank's conjugate, and the cells, contents and hooks of
    the hook content oracle."""
    lam = (4, 3, 1)
    assert _conjugate(lam) == (3, 2, 2, 1)
    assert _conjugate(_conjugate(lam)) == lam
    contents = [content(c) for c in cells(lam)]
    assert contents == [0, 1, 2, 3, -1, 0, 1, -2]
    hooks = [hook(lam, c) for c in cells(lam)]
    assert hooks == [6, 4, 3, 1, 4, 2, 1, 1]
    # hook sum consistency per cell against the direct formula
    conj = _conjugate(lam)
    for (i, j) in cells(lam):
        assert hook(lam, (i, j)) == lam[i] + conj[j] - i - j - 1


# ---------------------------------------------------------------------------
# type A


def test_type_a_vanishing_with_repeat():
    # alpha + rho = (4,7,5,4,3,2,1,0,-2): repeated 4
    rho = list(range(8, -1, -1))
    v = (4, 7, 5, 4, 3, 2, 1, 0, -2)
    alpha = [a - r for a, r in zip(v, rho)]
    assert bott_type_a(alpha).vanishes


def test_type_a_two_swaps():
    # alpha + rho = (5,7,6,4,3,2,1,0,-1): sorts in 2 swaps to all -1 dominant
    rho = list(range(8, -1, -1))
    v = (5, 7, 6, 4, 3, 2, 1, 0, -1)
    alpha = [a - r for a, r in zip(v, rho)]
    out = bott_type_a(alpha)
    assert out == BottOutcome(False, 2, (-1,) * 9, 1)


def test_type_a_dominant_identity():
    out = bott_type_a((4, 2, 0, -1))
    assert out.degree == 0
    assert out.dominant_weight == (4, 2, 0, -1)


def test_type_a_dotted_action_recovers_weight():
    """bott(w.(lam)) yields (length(w), lam) for every w in S_4."""
    rng = random.Random(13)
    rho = (3, 2, 1, 0)
    for _ in range(5):
        lam = sorted((rng.randrange(-4, 9) for _ in range(4)), reverse=True)
        lam = tuple(lam)
        base = bott_type_a(lam)
        for w in permutations(range(4)):
            v = [lam[w[i]] + rho[w[i]] for i in range(4)]
            alpha = tuple(a - r for a, r in zip(v, rho))
            out = bott_type_a(alpha)
            if len(set(x + r for x, r in zip(lam, rho))) < 4:
                continue
            inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                      if w[i] > w[j])
            assert not out.vanishes
            assert out.degree == inv
            assert out.dominant_weight == lam
            assert out.dimension == base.dimension


def test_type_a_serre_duality():
    """h^i(S_lam Q (x) O(d)) == h^{N-1-i}(S_{-rev lam} Q (x) O(-d-N))."""
    rng = random.Random(14)
    N = 6
    for _ in range(20):
        lam = sorted((rng.randrange(-3, 6) for _ in range(N - 1)), reverse=True)
        d = rng.randrange(-9, 4)
        mu = (d,) + tuple(-x for x in reversed(lam))
        dual_lam = tuple(-x for x in reversed(lam))
        mu_dual = (-d - N,) + tuple(-x for x in reversed(dual_lam))
        a, b = bott_type_a(mu), bott_type_a(mu_dual)
        if a.vanishes:
            assert b.vanishes
        else:
            assert a.degree + b.degree == N - 1
            assert a.dimension == b.dimension


# ---------------------------------------------------------------------------
# type C


def test_type_c_zero_entry_vanishes():
    # alpha + rho contains 0
    assert bott_type_c((-4, 2, 0, 0)).vanishes
    assert bott_type_c((-1, -1, -1)).vanishes  # alpha + rho = (2, 1, 0)
    # repeated absolute values also vanish: alpha + rho = (3, -3, 1)
    assert bott_type_c((0, -5, 0)).vanishes


def test_type_c_codim4_terms():
    out = bott_type_c((-3, 1, 1, 1))
    assert out == BottOutcome(False, 3, (0, 0, 0, 0), 1)
    assert bott_type_c((-6, 1, 1, 0)).degree == 5
    assert bott_type_c((-7, 1, 0, 0)).degree == 6


def test_type_c_dominant_identity():
    out = bott_type_c((3, 2, 0))
    assert out.degree == 0 and out.dominant_weight == (3, 2, 0)
    assert out.dimension == weyl_dim_type_c((3, 2, 0), 3)
    with pytest.raises(UsageError, match="'B'"):
        bott_outcome("B", (3, 2, 0))


def test_type_c_length_matches_brute_force():
    """For every signed permutation w up to rank 4 (the calibration complexes
    live at rank 4; 384 elements), alpha = w.rho - rho has degree the BFS word
    length of w and dominant weight 0."""
    for n in (1, 2, 3, 4):
        dist = hyperoctahedral_word_lengths(n)
        assert len(dist) == 2 ** n * (1, 1, 2, 6, 24)[n]
        for w, d in dist.items():
            # entry j of w^-1.rho is sgn(w_j) rho_|w_j|, with rho_i = n + 1 - i;
            # w^-1 has the length of w
            alpha = [(n + 1 - abs(x)) * (1 if x > 0 else -1) - (n - j)
                     for j, x in enumerate(w)]
            out = bott_type_c(alpha)
            assert out.degree == d, w
            assert out.dominant_weight == (0,) * n, w


def test_type_c_degree_agrees_with_window():
    rng = random.Random(15)
    dist = {n: hyperoctahedral_word_lengths(n) for n in range(1, 5)}
    for _ in range(50):
        n = rng.randrange(1, 5)
        vals = rng.sample(range(1, 10), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        v = [s * x for s, x in zip(signs, vals)]
        # build the window of the sorting element and compare lengths
        order = sorted(range(n), key=lambda j: -abs(v[j]))
        pos = [0] * n
        for r, j in enumerate(order):
            pos[j] = r
        w = tuple((1 if v[j] > 0 else -1) * (pos[j] + 1) for j in range(n))
        alpha = [x - (n - j) for j, x in enumerate(v)]  # v = alpha + rho
        assert bott_type_c(alpha).degree == dist[n][w]


# ---------------------------------------------------------------------------
# dimension formulas


def test_schur_dims():
    assert schur_dim((4, 3, 1), 3) == 15
    assert schur_dim((2, 1, 1, 1, 1), 6) == 35
    assert schur_dim((7,) * 6, 6) == 1
    assert schur_dim((1, 1, 1, 1), 3) == 0
    assert schur_dim((), 5) == 1
    # negative weights via determinant shift
    assert schur_dim((-1,) * 9, 9) == 1
    assert schur_dim((0, -1, -1), 3) == schur_dim((1, 0, 0), 3)
    # a negative n is rejected, not read as a Python index
    for fn, lam, n in ((schur_dim, (0, 0), -1), (schur_dim, (), -3),
                       (schur_dim, (2, 1), -1), (weyl_dim_type_c, (), -2),
                       (schur_module_rank, (1,), -1),
                       (schur_module_rank, (), -1)):
        with pytest.raises(UsageError, match=f"n = {n}"):
            fn(lam, n)


def test_schur_dim_weyl_formula():
    """Weyl's product for long rows and large n, and the hook content
    product for every partition with parts <= 5 and n <= 6, and for
    partitions of long blocks of equal rows, whose pairs within a block
    form no factor: (1^3000) at n = 3000 forms none at all."""
    assert schur_dim((10 ** 8,), 3) == 5000000150000001
    n = 10 ** 9
    assert schur_dim((3, 2), n) == n * n * (n + 1) * (n + 2) * (n - 1) // 24
    assert schur_dim((1,) * 3000, 3000) == 1

    for n in range(7):
        for rows in range(7):
            for lam in combinations_with_replacement(range(5, 0, -1), rows):
                assert schur_dim(lam, n) == hook_content_dim(lam, n), (lam, n)
    rng = random.Random(29)
    for _ in range(40):
        parts = sorted(rng.sample(range(1, 9), rng.randint(1, 4)), reverse=True)
        lam = tuple(x for x in parts for _ in range(rng.randint(1, 6)))
        for n in (len(lam), len(lam) + 1, len(lam) + 7):
            assert schur_dim(lam, n) == hook_content_dim(lam, n), (lam, n)


def test_schur_dim_refuses_a_too_long_answer_before_the_product():
    """The staircase (t, ..., 1) at n = t has rank 2^C(t, 2).  For the least
    t whose rank has more digits than the int-to-text limit plus one,
    schur_dim refuses with the text the CLI gives an answer it cannot
    print; one row less still gives its rank."""
    limit = sys.get_int_max_str_digits()
    t = next(t for t in count(2) if comb(t, 2) * log10(2) > limit + 1)
    with pytest.raises(UsageError, match=f"more than {limit} digits"):
        schur_dim(range(t, 0, -1), t)
    assert schur_dim(range(t - 1, 0, -1), t - 1) == 2 ** comb(t - 1, 2)


def test_schur_dim_counts_ssyt():
    """schur_dim equals a brute-force semistandard tableau count."""
    from itertools import product

    def ssyt_count(lam, n):
        cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
        count = 0
        for fill in product(range(1, n + 1), repeat=len(cells)):
            t = dict(zip(cells, fill))
            ok = True
            for (i, j) in cells:
                if (i, j + 1) in t and t[(i, j + 1)] < t[(i, j)]:
                    ok = False
                    break
                if (i + 1, j) in t and t[(i + 1, j)] <= t[(i, j)]:
                    ok = False
                    break
            if ok:
                count += 1
        return count

    for lam in ((2, 1), (3, 1), (2, 2), (4, 3, 1)):
        assert schur_dim(lam, 3) == ssyt_count(lam, 3)


def test_weyl_dims_type_c():
    assert weyl_dim_type_c((1, 1, 1), 3) == 14
    assert weyl_dim_type_c((1,), 3) == 6
    assert weyl_dim_type_c((2,), 3) == 21
    assert weyl_dim_type_c((), 4) == 1


def test_schur_module_construct_examples():
    assert schur_module_rank((3, 2), 2) == 2
    assert schur_module_rank((1, 1), 2) == 1
    assert schur_module_rank((2,), 2) == 3


def test_schur_module_image_expansion():
    """The image of a repeated-column source vector has the 4-term pattern
    collapsed to coefficients (1, -2, 1) on three distinct row monomials."""
    # lam = (3, 2), columns (2, 2, 1); source vector (e1^e2) (x) (e1^e2) (x) e1
    # over C^2; the signed orderings of columns of length 1 and 2
    signed = {1: [((0,), 1)], 2: [((0, 1), 1), ((1, 0), -1)]}
    image = _schur_image((3, 2), [(0, 1), (0, 1), (0,)], signed)
    assert dict(image) == {
        ((0, 0, 0), (1, 1)): 1,
        ((0, 0, 1), (0, 1)): -2,
        ((0, 1, 1), (0, 0)): 1,
    }


def test_schur_module_matches_hook_content():
    for n in (1, 2, 3):
        for l1 in range(4):
            for l2 in range(l1 + 1):
                for l3 in range(l2 + 1):
                    lam = tuple(x for x in (l1, l2, l3) if x)
                    assert schur_module_rank(lam, n) == schur_dim(lam, n), \
                        (lam, n)


def test_schur_module_guard():
    """(3, 3, 3) on C^6 maps into S^3 C^6 (x3), of dimension 56^3 = 175,616,
    above the guard: refused before any matrix is built."""
    with pytest.raises(UsageError, match="size guard"):
        schur_module_rank((3, 3, 3), 6)


def test_schur_module_guard_comes_before_any_basis():
    """(1) on C^(10^6) has a source of dimension 10^6: refused from binomials,
    with no list of its 10^6 basis vectors built first.  A first row of 10^6
    cells: more rows than n gives 0, and the target guard refuses, both
    before the conjugate's 10^6 column lengths are built; at n = 10^6 the
    target is refused without expanding the binomial of 2 * 10^6 - 1."""
    for lam, n, answer in (((1,), 10 ** 6, "size guard"), ((10 ** 6,), 2, "size guard"),
                           ((10 ** 6,), 10 ** 6, "size guard"),
                           ((10 ** 6,), 0, 0), ((10 ** 6, 1), 1, 0)):
        tracemalloc.start()
        try:
            if answer == "size guard":
                with pytest.raises(UsageError, match=answer):
                    schur_module_rank(lam, n)
            else:
                assert schur_module_rank(lam, n) == answer
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (lam, n, peak)


def test_integer_rank_matches_sympy():
    """The pivot-dict rank against sympy on seeded random sparse integer
    matrices from 0 x 0 to 8 x 8, and on columns whose least rows arrive in
    decreasing order (the third is the second minus the first)."""
    assert _integer_rank([{2: 1, 3: 1}, {1: 1, 2: 1}, {1: 1, 3: -1}]) == 2
    rng = random.Random(26)
    for _ in range(400):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.random()
        cols = [{r: rng.choice((-3, -2, -1, 1, 2, 3)) for r in range(nrows)
                 if rng.random() < density} for _ in range(ncols)]
        matrix = sympy.Matrix(nrows, ncols, lambda r, c: cols[c].get(r, 0))
        assert _integer_rank(cols) == matrix.rank(), cols


# ---------------------------------------------------------------------------
# resolution cohomology


def test_p8_cohomology_table():
    space, terms = submaximal_pfaffian_complex_p8()
    tab = cohomology_of_resolution(terms, space)
    assert tab.degeneration_verified
    assert tab.entries == (1, 2, 1) + (0,) * 6


def test_p7_symplectic_cohomology_table():
    space, terms = symplectic_codim4_complex_p7()
    tab = cohomology_of_resolution(terms, space)
    assert tab.degeneration_verified
    assert tab.entries == (1, 0, 3, 0, 0, 0, 0, 0)


def test_koszul_contributions_cancel():
    """An exact complex cannot be certified: the top term pairs with h=0
    through a potential d_N, and the logged contributions cancel in Euler
    characteristic."""
    for N in (3, 5):
        tab = cohomology_of_resolution(koszul_complex_terms(N), Space("A", N))
        assert not tab.degeneration_verified
        assert tab.entries is None
        assert tab.contributions == ((0, 0, 1), (N, N - 1, 1))
        euler = sum(d * (-1) ** (j - h) for h, j, d in tab.contributions)
        assert euler == 0


def test_resolution_requires_structure_sheaf_at_h0():
    with pytest.raises(UsageError):
        cohomology_of_resolution(
            [ResolutionTerm((1,), -1, 0)], Space("A", 3))


def test_resolution_terms_that_no_resolution_has_are_refused():
    """A term sits at h >= 0 with multiplicity >= 1: mult -3 on P^2 printed
    an H^1 of -3, and mult 0 passed the structure-sheaf check adding nothing."""
    for h, mult, field in ((1, -3, "'mult'"), (0, 0, "'mult'"), (-1, 1, "'h'")):
        with pytest.raises(UsageError, match=field):
            ResolutionTerm((), 0 if h == 0 else -3, h, mult)


def test_space_refuses_a_rank_below_one():
    """Rank 0 had refused a structure sheaf as a weight longer than -1 of a
    rank--1 bundle; a space of rank below 1 is refused by name."""
    for family in ("A", "C"):
        for rank in (0, -1):
            with pytest.raises(UsageError, match=f"rank must be at least 1, got {rank}$"):
                Space(family, rank)


def test_weights_longer_than_the_bundle_allows_are_refused():
    """One message in both families, naming the length and the bundle rank."""
    structure_sheaf = ResolutionTerm((), 0, 0)
    for space, weight, text in ((Space("A", 3), (1, 1, 1), "longer than 2, .* rank-2 "),
                                (Space("C", 3), (1, 1, 1), "longer than 2, .* rank-4 ")):
        with pytest.raises(UsageError, match=text):
            cohomology_of_resolution([structure_sheaf, ResolutionTerm(weight, -3, 1)],
                                     space)


def test_betti_totals_reconstruction():
    assert gr36_betti_totals() == GR36_BETTI_TOTALS


# ---------------------------------------------------------------------------
# Verlinde


def test_verlinde_values():
    assert verlinde(2, 1) == 4
    assert verlinde(3, 1) == 8
    assert verlinde(2, 2) == 10
    # 2^g anchor holds for higher genus at level 1
    assert verlinde(4, 1) == 16
    assert verlinde(5, 1) == 32
    # exact where double precision rounded wrongly or missed an integer
    assert verlinde(53, 1) == 2 ** 53
    assert verlinde(20, 3) == 42813440000000000
    assert verlinde(7, 6) == 831000576
    assert verlinde(7, 7) == 6485090688
    with pytest.raises(UsageError):
        verlinde(1, 1)
    with pytest.raises(UsageError):
        verlinde(2, 0)


def test_verlinde_size_bounds():
    """Both sides of the level bound (40) and of the answer bound
    (k + 1) ((k + 2) / 2)^{3(g-1)} <= 2^4096: at level 1 the bound is
    2 * 1.5^{3(g-1)}, which passes 2^4096 between g = 2334 and 2335."""
    assert verlinde(2, 40) == comb(43, 3)  # genus 2: C(k + 3, 3)
    with pytest.raises(UsageError, match="level 41"):
        verlinde(2, 41)
    assert verlinde(2334, 1) == 2 ** 2334
    with pytest.raises(UsageError, match="2\\^4096"):
        verlinde(2335, 1)
    with pytest.raises(UsageError, match="2\\^4096"):
        verlinde(10 ** 30, 1)
