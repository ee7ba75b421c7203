"""Classical resolutions and Betti tables that the tests check the engine and
the Bott calculator against.

The Koszul, Goto-Jozefiak-Tachibana and Jozefiak-Pragacz complexes give the
Hilbert numerators of generic ideals of variables, of submaximal minors of a
symmetric matrix and of submaximal Pfaffians of an even skew matrix.
symplectic_codim4_complex_p7 is the type C calibration complex on P^7, and
the GR36 tables are the Betti table of the cone over Gr(3,6).  The pipeline
reads none of them; the two resolutions it does read are in
theta_loci.complexes.
"""

from math import comb

from theta_loci.bott import ResolutionTerm, Space, schur_dim


def koszul_numerator_terms(n: int):
    """(rank, twist, h) data of the Koszul complex on n variables."""
    return [(comb(n, i), i, i) for i in range(n + 1)]


def goto_jozefiak_tachibana_numerator_terms(N: int):
    """(rank, twist, h) of the submaximal-minors resolution of a symmetric matrix."""
    s2 = N * (N + 1) // 2
    return [(1, 0, 0), (s2, N - 1, 1), (N * N - 1, N, 2),
            (N * (N - 1) // 2, N + 1, 3)]


def jozefiak_pragacz_numerator_terms(n: int):
    """(rank, twist, h) of the codimension-6 sub-Pfaffian resolution, size 2n."""
    N = 2 * n
    w2 = comb(N, 2)
    s2 = N * (N + 1) // 2
    hook = schur_dim((2,) + (1,) * (N - 2), N)  # dim S_{2,1^{N-2}} C^N
    return [(1, 0, 0), (comb(N, N - 2), n - 1, 1), (hook, n, 2),
            (s2, n + 1, 3), (s2, 2 * n - 1, 3), (hook, 2 * n, 4),
            (w2, 2 * n + 1, 5), (1, 3 * n, 6)]


def koszul_complex_terms(N: int):
    """Koszul terms on P^{N-1} as trivial bundles: mult C(N,i), twist -i at h=i."""
    return [ResolutionTerm(weight=(), twist=-i, h=i, mult=comb(N, i))
            for i in range(N + 1)]


def symplectic_codim4_complex_p7():
    """Structure-sheaf resolution of the codimension-4 symplectic locus on P^7.

    Weights are symplectic partitions on the rank-6 subquotient bundle;
    type C, n = 4.  The resolved subvariety is a Kummer-type threefold for
    generic sections.
    """
    return Space("C", 4), [
        ResolutionTerm((), 0, 0),
        ResolutionTerm((1, 1, 1), -3, 1),
        ResolutionTerm((2,), -4, 2),
        ResolutionTerm((1, 1), -6, 3),
        ResolutionTerm((1,), -7, 4),
    ]


# Betti-table partitions of the coordinate ring of the cone over Gr(3,6)
# inside P(wedge^3 C^6), char 0; one list of (partition, multiplicity) per
# homological degree.  Dimension totals reconstruct the printed Betti row.
GR36_BETTI_PARTITIONS = (
    (((), 1),),
    (((2, 1, 1, 1, 1), 1),),
    (((2, 2, 2, 2, 1), 1), ((3, 2, 1, 1, 1, 1), 1)),
    (((3, 3, 2, 2, 1, 1), 1), ((3, 3, 3, 3, 3), 1), ((5, 2, 2, 2, 2, 2), 1)),
    (((4, 4, 4, 2, 2, 2), 1), ((4, 4, 3, 3, 3, 1), 1), ((5, 3, 3, 3, 2, 2), 1)),
    (((5, 4, 4, 3, 3, 2), 2),),
    (((5, 5, 4, 4, 4, 2), 1), ((5, 5, 5, 3, 3, 3), 1), ((6, 4, 4, 4, 3, 3), 1)),
    (((7, 4, 4, 4, 4, 4), 1), ((5, 5, 5, 5, 5, 2), 1), ((6, 6, 5, 5, 4, 4), 1)),
    (((6, 6, 6, 6, 5, 4), 1), ((7, 6, 5, 5, 5, 5), 1)),
    (((7, 6, 6, 6, 6, 5), 1),),
    (((7, 7, 7, 7, 7, 7), 1),),
)

GR36_BETTI_TOTALS = (1, 35, 140, 301, 735, 1080, 735, 301, 140, 35, 1)


def gr36_betti_totals():
    """Betti totals recomputed from Schur dimensions at n = 6."""
    return tuple(sum(m * schur_dim(p, 6) for p, m in row)
                 for row in GR36_BETTI_PARTITIONS)
