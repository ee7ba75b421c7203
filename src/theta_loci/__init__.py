"""theta-loci: Pfaffian degeneracy loci over small prime fields.

Modules:
  errors      InputError and UsageError, the two named refusals
  poly        exact prime-field / polynomial arithmetic (degrevlex canonical form;
              monomials packed into integer keys, exponent tuples at the API)
  groebner    Buchberger engine, elimination, saturation, intersection, Hilbert series
  multilinear skew matrices, Pfaffians, section-to-matrix constructions
  bott        Borel-Weil-Bott calculator (types A and C), Schur dimensions, Verlinde
  complexes   term data of the Pfaffian resolutions behind c5w25 and w39
  vinberg     combinatorial orbit classification for degree-3 alternating tensors on C^7
  pipeline    end-to-end degeneracy-locus cases and reporting
  cli         command-line entry point (`theta-loci`)
"""

from .errors import InputError, UsageError
from .poly import Polynomial, PolynomialRing, PrimeField
from .groebner import (GroebnerBasis, HilbertData, Ideal, buchberger_reduced,
                       eliminate, hilbert, ideal_intersection, normal_form,
                       resolution_hilbert_numerator, saturate, saturate_by_ideal)
from .multilinear import (AlternatingVector, SkewMatrix, c5w25_matrix,
                          pfaffian, pfaffian_ideal, random_section, w39_matrix)
from .bott import (bott_type_a, bott_type_c, cohomology_of_resolution,
                   schur_dim, schur_module_rank, verlinde, weyl_dim_type_c)
from .vinberg import enumerate_supports, orbit_dimension, orbit_table, triple_pairing
from .pipeline import example_gallery, report_emit, run_case

__version__ = "0.1.0"

__all__ = [
    "InputError", "UsageError",
    "Polynomial", "PolynomialRing", "PrimeField",
    "GroebnerBasis", "HilbertData", "Ideal", "buchberger_reduced", "eliminate",
    "hilbert", "ideal_intersection", "normal_form",
    "resolution_hilbert_numerator", "saturate", "saturate_by_ideal",
    "AlternatingVector", "SkewMatrix", "c5w25_matrix", "pfaffian",
    "pfaffian_ideal", "random_section", "w39_matrix",
    "bott_type_a", "bott_type_c", "cohomology_of_resolution", "schur_dim",
    "schur_module_rank", "verlinde", "weyl_dim_type_c",
    "enumerate_supports", "orbit_dimension", "orbit_table", "triple_pairing",
    "example_gallery", "report_emit", "run_case",
    "__version__",
]
