"""Computer algebra for the extended tropical semiring.

Exact rational arithmetic on tangible and ghost elements, tropical
polynomials with essential parts and full closures, certified univariate
factorization, complement components of zero sets, and finitely generated
ideals with Nullstellensatz decision procedures.

The public names resolve on first access (PEP 562): ``tropc.full_closure``
imports ``tropc.essential`` then and binds the name here, so later
accesses are plain attribute reads.  A bare ``import tropc`` loads only
this package and ``_lp``, and a ``tropc`` process compiles only the
modules its subcommand runs.  ``_lp`` alone stays eager, because the
benchmark's tracer looks it up in ``sys.modules`` without asking for any
of its names.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The exact simplex is on no production path; it is the tests' reference
# hull path, imported here because bench/layers.py looks up tropc._lp.
from . import _lp  # noqa: F401

# public name -> the module that defines it
_HOME = {
    **dict.fromkeys(
        ("NEG_INFINITY", "TropicalNumber", "compare", "ghost", "ghost_of",
         "project", "tangible", "trop_add", "trop_inv", "trop_mul",
         "trop_pow", "trop_root"), "core"),
    **dict.fromkeys(
        ("ArityMismatch", "ArityUnsupported", "CertificateSearchExceeded",
         "ConstantTangibleAmongInputs", "ConstantTangibleInput",
         "EmptyPolynomial", "InternalInconsistency", "InversionOfNegInfinity",
         "MaxDegreeExceeded", "MonomialInput", "NotFull", "NotTangibleFull",
         "PolySyntaxError", "RootOfNegInfinity", "TropicalError"), "errors"),
    **dict.fromkeys(
        ("EssentialComplex", "SlopeSequence", "classify_monomials", "divides",
         "equivalent", "essential_part", "full_closure", "is_full", "red_add",
         "red_mul", "red_pow", "slope_sequence"), "essential"),
    **dict.fromkeys(
        ("IdealFG", "NssResult", "RadicalCertificate",
         "ideal_member_syntactic", "is_ghost_potent", "is_proper",
         "radical_member_1d", "verify_radical_certificate",
         "weak_nullstellensatz"), "ideals"),
    **dict.fromkeys(
        ("format_number", "format_poly", "parse_poly"), "parser"),
    **dict.fromkeys(
        ("TropicalPolynomial", "constant", "monomial", "variable"),
        "polynomial"),
    **dict.fromkeys(
        ("Component1D", "CornerLocus2D", "comset1d", "comset_leq",
         "comset_meet", "corner_locus_2d", "zset_contains"), "sets"),
    **dict.fromkeys(
        ("Factorization", "common_root", "factor_full",
         "factor_tangible_full", "find_root", "roots_with_multiplicity"),
        "univariate"),
}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module 'tropc' has no attribute {name!r}")
    value = getattr(_import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
