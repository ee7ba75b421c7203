"""Term data of the Pfaffian resolutions behind the projective-space cases.

buchsbaum_eisenbud_numerator_terms gives the codimension-3 resolution of the
4x4 Pfaffians of a generic 5x5 skew matrix (Buchsbaum-Eisenbud), whose
Hilbert numerator the pipeline checks c5w25 against.
submaximal_pfaffian_complex_p8 gives the Bott-side resolution of O_X for the
rank-6 locus on P^8, the w39 surface.  The other classical resolutions the
tests hold the engine against live in tests/resolutions.py.
"""

from __future__ import annotations

from .bott import ResolutionTerm, Space


def buchsbaum_eisenbud_numerator_terms(n: int):
    """(rank, twist, h) of the codimension-3 Pfaffian resolution, size 2n+1.

    Terms: A; wedge^{2n} E (-n); det E (x) E (-n-1); (det E)^2 (-2n-1).
    """
    N = 2 * n + 1
    return [(1, 0, 0), (N, n, 1), (N, n + 1, 2), (1, 2 * n + 1, 3)]


def submaximal_pfaffian_complex_p8():
    """Structure-sheaf resolution of the rank-6 degeneracy locus on P^8.

    Weights act on the rank-8 tautological quotient; type A, N = 9.  The
    resolved subvariety is the codimension-6 locus where a skew form on the
    quotient bundle drops to rank 6 (an abelian surface for generic sections).
    """
    return Space("A", 9), [
        ResolutionTerm((), 0, 0),
        ResolutionTerm((1, 1, 1, 1, 1, 1, 0, 0), -3, 1),
        ResolutionTerm((2, 1, 1, 1, 1, 1, 1, 0), -4, 2),
        ResolutionTerm((2, 0, 0, 0, 0, 0, 0, 0), -4, 3),
        ResolutionTerm((0, 0, 0, 0, 0, 0, 0, -2), -5, 3),
        ResolutionTerm((2, 1, 1, 1, 1, 1, 1, 0), -7, 4),
        ResolutionTerm((1, 1, 0, 0, 0, 0, 0, 0), -7, 5),
        ResolutionTerm((), -9, 6),
    ]
