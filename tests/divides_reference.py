"""The old ``divides``, which matched canonical factor lists.

Copied unchanged apart from its name and a top-level import (the library
needed a local one to work round an import cycle).  It removed the
canonical factors of g from those of f and expanded what was left, so it
missed quotients: the canonical factors of a product need not be the
union of its factors' canonical factors.  ``test_divides.py`` holds the
slope-walk ``divides`` to it.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from tropc import (ArityUnsupported, EmptyPolynomial, Factorization,
                   TropicalPolynomial, factor_full, full_closure, red_mul)
from tropc.univariate import _factor_closed


def reference_divides(f: TropicalPolynomial, g: TropicalPolynomial
                      ) -> Optional[TropicalPolynomial]:
    """Quotient q with red_mul(q, g) equal to the full closure of f, or None.

    Found by removing the canonical factors of g from those of f, so
    univariate only.  None is not a proof: the canonical factors of a
    product need not be the union of its factors' canonical factors.
    """
    if f.arity != 1 or g.arity != 1:
        raise ArityUnsupported("divisibility testing is univariate")
    if f.is_empty() or g.is_empty():
        raise EmptyPolynomial("divisibility with an empty polynomial")
    closed_f = full_closure(f)
    ff = _factor_closed(closed_f)
    fg = factor_full(g)
    remaining: List[Tuple[TropicalPolynomial, int]] = \
        [(p, m) for p, m in ff.factors]
    for p, mult in fg.factors:
        for idx, (q, have) in enumerate(remaining):
            if q == p:
                if have < mult:
                    return None
                remaining[idx] = (q, have - mult)
                break
        else:
            return None
    quotient = Factorization(ff.unit * fg.unit.inv(), remaining,
                             False).expand()
    if red_mul(quotient, g) != closed_f:
        return None
    return quotient
