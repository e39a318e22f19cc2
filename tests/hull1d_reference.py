"""Reference hull path for the differential test: the ``Fraction`` sweep
that computed univariate essential complexes and com-set envelopes before
the integer sweep.

The functions below are kept as they were: ``reference_complex_1d(f)``
stands in for the old ``classify_monomials(f)`` on a univariate ``f``
without its cache, and ``reference_envelope_vertices(f)`` for the old
``sets._envelope_vertices(f)``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from tropc.essential import ESSENTIAL, INESSENTIAL, QUASI, EssentialComplex
from tropc.polynomial import Exponent, TropicalPolynomial


def _upper_hull_vertices_1d(pts: List[Tuple[Fraction, Fraction]]
                            ) -> List[Tuple[Fraction, Fraction]]:
    """Vertices of the upper hull of (x, y) points sorted by x.

    Collinear intermediate points are dropped, so the result is exactly the
    vertex list.
    """
    hull: List[Tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point unless it makes a strict right turn
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _interp(hull: List[Tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Height of the upper hull over x (x within the hull's span)."""
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            if x1 == x2:
                return max(y1, y2)
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    return hull[0][1]  # single-point hull


def reference_complex_1d(f: TropicalPolynomial) -> EssentialComplex:
    pts = sorted((Fraction(e[0]), c.value) for e, c in f.terms.items())
    hull = _upper_hull_vertices_1d(pts)
    vertex_xs = {p[0] for p in hull}
    lifted = {e: c.value for e, c in f.terms.items()}
    classification = {}
    for e, c in f.terms.items():
        x = Fraction(e[0])
        if x in vertex_xs:
            classification[e] = ESSENTIAL
        elif c.value == _interp(hull, x):
            classification[e] = QUASI
        else:
            classification[e] = INESSENTIAL
    lo = int(min(p[0] for p in pts))
    hi = int(max(p[0] for p in pts))
    lattice = {(x,): _interp(hull, Fraction(x)) for x in range(lo, hi + 1)}
    cells: List[List[Exponent]] = []
    for (x1, _), (x2, _) in zip(hull, hull[1:]):
        cells.append([(x,) for x in range(int(x1), int(x2) + 1)
                      if (x,) in lifted and classification[(x,)] != INESSENTIAL])
    interior = [(int(p[0]),) for p in hull[1:-1]]
    return EssentialComplex(1, lifted, classification, lattice, cells, interior)


def reference_envelope_vertices(f: TropicalPolynomial) -> List[int]:
    """Exponents whose lines appear on the upper envelope, ascending."""
    pts = sorted((Fraction(e[0]), c.value) for e, c in f.terms.items())
    return [int(p[0]) for p in _upper_hull_vertices_1d(pts)]
