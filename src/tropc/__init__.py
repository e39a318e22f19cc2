"""Computer algebra for the extended tropical semiring.

Exact rational arithmetic on tangible and ghost elements, tropical
polynomials with essential parts and full closures, certified univariate
factorization, complement components of zero sets, and finitely generated
ideals with Nullstellensatz decision procedures.
"""

__version__ = "0.1.0"

# The exact simplex is on no production path; it is the tests' reference
# hull path, imported here because bench/layers.py looks up tropc._lp.
from . import _lp  # noqa: F401
from .core import (NEG_INFINITY, TropicalNumber, compare, ghost, ghost_of,
                   project, tangible, trop_add, trop_inv, trop_mul, trop_pow,
                   trop_root)
from .errors import (ArityMismatch, ArityUnsupported,
                     CertificateSearchExceeded, ConstantTangibleAmongInputs,
                     ConstantTangibleInput, EmptyPolynomial,
                     InternalInconsistency, InversionOfNegInfinity,
                     MaxDegreeExceeded, MonomialInput, NotFull,
                     NotTangibleFull, PolySyntaxError, RootOfNegInfinity,
                     TropicalError)
from .essential import (EssentialComplex, SlopeSequence, classify_monomials,
                        divides, equivalent, essential_part, full_closure,
                        is_full, red_add, red_mul, red_pow, slope_sequence)
from .ideals import (IdealFG, NssResult, RadicalCertificate,
                     ideal_member_syntactic, is_ghost_potent, is_proper,
                     radical_member_1d, verify_radical_certificate,
                     weak_nullstellensatz)
from .parser import format_number, format_poly, parse_poly
from .polynomial import TropicalPolynomial, constant, monomial, variable
from .sets import (Component1D, CornerLocus2D, comset1d, comset_leq,
                   comset_meet, corner_locus_2d, zset_contains)
from .univariate import (Factorization, common_root, factor_full,
                         factor_tangible_full, find_root,
                         roots_with_multiplicity)
