"""Domain errors with stable machine-readable names.

Every error carries a ``name`` class attribute that the CLI prints on
stderr, so scripts can match on it without parsing prose.
"""


class TropicalError(Exception):
    name = "TropicalError"

    def __str__(self):
        msg = super().__str__()
        return f"{self.name}: {msg}" if msg else self.name


class ArityMismatch(TropicalError):
    """Operands or evaluation points disagree on the number of variables."""
    name = "ArityMismatch"


class ArityUnsupported(TropicalError):
    """The operation is only implemented for a smaller number of variables."""
    name = "ArityUnsupported"


class InversionOfNegInfinity(TropicalError):
    """The bottom element has no multiplicative inverse."""
    name = "InversionOfNegInfinity"


class RootOfNegInfinity(TropicalError):
    """The bottom element has no k-th root."""
    name = "RootOfNegInfinity"


class EmptyPolynomial(TropicalError):
    """The polynomial has no terms, so the quantity is undefined."""
    name = "EmptyPolynomial"


class MonomialInput(TropicalError):
    """A single monomial carries no slope data."""
    name = "MonomialInput"


class NotFull(TropicalError):
    """The polynomial is not full (some hull lattice point has no term)."""
    name = "NotFull"


class NotTangibleFull(TropicalError):
    """The polynomial is not tangible-full (ghost vertex present)."""
    name = "NotTangibleFull"


class InternalInconsistency(TropicalError):
    """A certified computation failed its own certificate check."""
    name = "InternalInconsistency"


class ConstantTangibleInput(TropicalError):
    """A tangible constant has no root."""
    name = "ConstantTangibleInput"


class ConstantTangibleAmongInputs(TropicalError):
    """A tangible constant among the inputs rules out a common root."""
    name = "ConstantTangibleAmongInputs"


class CertificateSearchExceeded(TropicalError):
    """The certificate exponent search hit its cap without success."""
    name = "CertificateSearchExceeded"


class MaxDegreeExceeded(TropicalError):
    """An input exceeds the parser's degree bound (the CLI's --max-degree)."""
    name = "MaxDegreeExceeded"


class PolySyntaxError(TropicalError):
    """Malformed polynomial text; carries the offending position."""
    name = "SyntaxError"

    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position
