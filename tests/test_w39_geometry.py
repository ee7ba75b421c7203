"""Geometric cross-checks on the 8x8 pipeline ideals, all computed against
independent formulas: Hilbert series of the degree-18 surface, the Jacobian
relationship between the cubic and the codimension-6 locus, and the exact
divisibility of the full Pfaffian by the chart variable."""

from theta_loci.groebner import UnivariatePolynomial, hilbert, normal_form
from theta_loci.multilinear import pfaffian


def _partial(f, i):
    ring = f.ring
    p = ring.prime
    d = {}
    for e, c in f.terms:
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            key = tuple(ne)
            d[key] = (d.get(key, 0) + c * e[i]) % p
    return ring.from_exponent_dict(d)


def test_surface_numerator_matches_series(w39_ideals):
    """N(t) = (1 + 6t + 12t^2 - t^3)(1 - t)^6: the Hilbert series of a
    projectively normal degree-18 surface with h^0(O(d)) = 9d^2."""
    ring, M, I, J = w39_ideals()
    expected = UnivariatePolynomial((1, 6, 12, -1))
    one_minus_t = UnivariatePolynomial((1, -1))
    for _ in range(6):
        expected = expected * one_minus_t
    hd = hilbert(J)
    assert hd.numerator == expected
    for d in range(1, 6):
        assert hd.hilbert_function(d) == 9 * d * d


def test_full_pfaffian_divisible_by_chart_variable(w39_ideals):
    """The 8x8 Pfaffian is exactly z_9 times the saturated cubic."""
    ring, M, I, J = w39_ideals()
    z9 = ring.variable(8)
    cubic = I.generators[0]
    assert pfaffian(M).monic() == (z9 * cubic).monic()


def test_codim6_locus_inside_singular_locus_of_cubic(w39_ideals):
    """All 9 partials of the cubic vanish on the codimension-6 locus, the
    cubic itself lies in its ideal, and the partials span the full space of
    quadrics through the locus."""
    ring, M, I, J = w39_ideals()
    cubic = I.generators[0]
    partials = [_partial(cubic, i) for i in range(9)]
    assert all(J.contains(q) for q in partials)
    assert J.contains(cubic)

    # dim J_2 = 45 - 36 = 9 and the 9 partials are independent, so they span
    p = ring.prime
    monomials = sorted({e for q in partials for e, _ in q.terms})
    col = {m: i for i, m in enumerate(monomials)}
    rows = []
    for q in partials:
        row = [0] * len(col)
        for e, c in q.terms:
            row[col[e]] = c
        rows.append(row)
    rank = 0
    for c in range(len(col)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    assert rank == 9
    hd = hilbert(J)
    assert 45 - hd.hilbert_function(2) == 9


def test_membership_separates_I_and_J(w39_ideals):
    """J strictly contains I: the cubic is in J but no quadric is in I."""
    ring, M, I, J = w39_ideals()
    gb_j = J.groebner_basis()
    quadrics = [g for g in gb_j.elements if g.degree == 2]
    assert quadrics
    assert all(not I.contains(q) for q in quadrics)
    assert all(normal_form(g, list(gb_j.elements)).is_zero()
               for g in I.generators)
