"""Tropical algebraic sets, their complements, and plane corner loci.

The complement of a univariate zero set decomposes into finitely many
connected components: open intervals on the tangible axis, at most one ray
on the ghost axis, and possibly the bottom element.  The ghost ray and the
bottom element only occur when the constant coefficient is tangible, in
which case they merge with the leftmost tangible interval into a single
component.  A plane corner locus, where two terms attain the maximum
together, is read off the cell edges of one hull of the lifted Newton
points (``essential._cells``, which classifies no term) and clipped to its
box on integers; ``Fraction``s are built only for its output.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .core import TropicalNumber, _exact
from .errors import ArityMismatch, ArityUnsupported
from .essential import _cells, _hull_1d
from .polynomial import TropicalPolynomial, _sort_key

# An open interval with exact rational endpoints; None means unbounded.
Interval = Optional[Tuple[Optional[Fraction], Optional[Fraction]]]


def _intersect(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    lo = a[0] if b[0] is None else (b[0] if a[0] is None else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None else min(a[1], b[1]))
    if lo is not None and hi is not None and lo >= hi:
        return None
    return (lo, hi)


def _subset(a: Interval, b: Interval) -> bool:
    if a is None:
        return True
    if b is None:
        return False
    lo_ok = b[0] is None or (a[0] is not None and b[0] <= a[0])
    hi_ok = b[1] is None or (a[1] is not None and a[1] <= b[1])
    return lo_ok and hi_ok


@dataclass(frozen=True)
class Component1D:
    """One connected component of the complement of a univariate zero set."""
    tangible: Interval = None
    ghost: Interval = None
    neg_inf: bool = False

    def is_empty(self) -> bool:
        return self.tangible is None and self.ghost is None and not self.neg_inf

    def contains(self, p: TropicalNumber) -> bool:
        if p.is_neg_inf():
            return self.neg_inf
        iv = self.tangible if p.is_tangible() else self.ghost
        if iv is None:
            return False
        lo, hi = iv
        return (lo is None or lo < p.value) and (hi is None or p.value < hi)

    def subset_of(self, other: "Component1D") -> bool:
        return (_subset(self.tangible, other.tangible)
                and _subset(self.ghost, other.ghost)
                and (not self.neg_inf or other.neg_inf))


def _component_sort_key(c: Component1D):
    if c.neg_inf:
        return (0, Fraction(0))
    if c.tangible is not None:
        lo = c.tangible[0]
        return (1, lo) if lo is not None else (0, Fraction(0))
    lo = c.ghost[0] if c.ghost else None
    return (1, lo) if lo is not None else (0, Fraction(0))


def _components_with_monomials(f: TropicalPolynomial
                               ) -> List[Tuple[Component1D, int]]:
    """Complement components with the dominating exponent on each, in
    ascending order: one per tangible envelope vertex, on the open interval
    between its breakpoints.  A tangible constant is the first vertex, and
    its interval iv = (-inf, s) up to the first breakpoint s is also the
    ghost ray where it dominates, so both merge with -inf into
    ``Component1D(iv, iv, True)``.  The breakpoints are read off the
    integer hull: vertices (x1, y1), (x2, y2) with heights times scale meet
    at (y1 - y2) / ((x2 - x1) scale).
    """
    if f.arity != 1:
        raise ArityUnsupported("com-sets are univariate")
    if f.is_empty() or f.is_ghost_poly():
        return []
    _, scale, hull = _hull_1d(f)
    ghosts = {e for (e,), _, g in f._rows if g}
    bounds = [None] + [Fraction(y1 - y2, (x2 - x1) * scale)
                       for (x1, y1), (x2, y2) in zip(hull, hull[1:])] + [None]
    return [(Component1D(iv, iv if e == 0 else None, e == 0), e)
            for (e, _), iv in zip(hull, zip(bounds, bounds[1:]))
            if e not in ghosts]


def comset1d(f: TropicalPolynomial) -> List[Component1D]:
    """Connected components of the complement of the zero set."""
    return [c for c, _ in _components_with_monomials(f)]


def comset_meet(a: Sequence[Component1D], b: Sequence[Component1D]
                ) -> List[Component1D]:
    """Pairwise nonempty intersections of components."""
    out = []
    for x in a:
        for y in b:
            z = Component1D(_intersect(x.tangible, y.tangible),
                            _intersect(x.ghost, y.ghost),
                            x.neg_inf and y.neg_inf)
            if not z.is_empty():
                out.append(z)
    out.sort(key=_component_sort_key)
    return out


def comset_leq(a: Sequence[Component1D], b: Sequence[Component1D]) -> bool:
    """Is every component of a contained in some component of b?"""
    return all(any(x.subset_of(y) for y in b) for x in a)


def zset_contains(fs: Sequence[TropicalPolynomial],
                  point: Sequence[TropicalNumber]) -> bool:
    """Is the point a simultaneous root of all the polynomials?

    Every arity is checked against the point before any evaluation, so a
    mismatch raises whatever the order of the polynomials."""
    point = tuple(point)
    for f in fs:
        if f.arity != len(point):
            raise ArityMismatch(
                f"point of length {len(point)} for arity {f.arity}")
    return all(f.is_root(point) for f in fs)


# ---------------------------------------------------------------------------
# plane corner locus


@dataclass
class CornerLocus2D:
    whole_plane: bool
    segments: List[dict]
    rays: List[dict]


def _box_range(p, q, d, lo, hi, box):
    """The range of t in [lo, hi] (None is unbounded) with p / q + t d in
    box, or None when it is empty.  p are integer numerators over
    q > 0 and d an integer direction; each side of box is a pair of bounds
    (numerator, positive denominator), and t, lo and hi are such pairs too,
    compared by cross-multiplication."""
    for pc, dc, ((an, ad), (bn, bd)) in zip(p, d, box):
        if dc:
            # the bounds are crossed at t = (bound - pc / q) / dc
            ta = (an * q - pc * ad, ad * q * dc)
            tb = (bn * q - pc * bd, bd * q * dc)
            if dc < 0:
                ta, tb = (-tb[0], -tb[1]), (-ta[0], -ta[1])
            if lo is None or ta[0] * lo[1] > lo[0] * ta[1]:
                lo = ta
            if hi is None or tb[0] * hi[1] < hi[0] * tb[1]:
                hi = tb
        elif an * q > pc * ad or pc * bd > bn * q:
            return None
    return None if lo[0] * hi[1] > hi[0] * lo[1] else (lo, hi)


def _point(p, q, d, t):
    """The point p / q + t d for the pair t, as ``Fraction``s."""
    tn, td = t
    return tuple(Fraction(pc * td + tn * dc * q, q * td)
                 for pc, dc in zip(p, d))


def corner_locus_2d(f: TropicalPolynomial,
                    bbox: Tuple[Fraction, Fraction, Fraction, Fraction]
                    ) -> CornerLocus2D:
    """Tie loci of the projected affine forms in the plane, clipped to bbox,
    ``(xmin, ymin, xmax, ymax)`` with xmin <= xmax and ymin <= ymax (else a
    ValueError), of exact numbers (a float raises TypeError, exponent
    notation in a string ValueError).

    Each locus is the set where two monomials attain the maximum together;
    output segments carry exact rational endpoints and the pair of tying
    monomial indices, and each unbounded end of a locus gives a ray from
    the box.  Regions where a ghost monomial alone dominates are roots too
    but are not drawn.  A polynomial vanishing identically on the plane
    (all coefficients ghost, or no terms) sets whole_plane instead.

    The locus is the dual of the lifted points' upper cells (Maclagan and
    Sturmfels, *Introduction to Tropical Geometry*, 3.1): two terms tie on
    more than a point iff they share a cell edge, from the cell's dual
    vertex (n_x, n_y) / (n_H s) (heights times s) to the other cell's
    vertex on an inner edge, or on as a ray along the wall's outward normal
    on the Newton boundary; along a whole line when the support is
    collinear and the cells are edges.  The clip runs on integers
    (``_box_range``); ``Fraction``s are built only for what goes out.
    """
    if f.arity != 2:
        raise ArityUnsupported("corner loci are planar")
    lo_x, lo_y, hi_x, hi_y = map(_exact, bbox)
    if lo_x > hi_x or lo_y > hi_y:
        raise ValueError("bbox has xmin > xmax or ymin > ymax")
    if f.is_empty() or f.is_ghost_poly():
        return CornerLocus2D(True, [], [])
    box = [((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
           for lo, hi in ((lo_x, hi_x), (lo_y, hi_y))]
    # cell edge -> [(dual vertex numerators, denominator, wall normal), ...]
    ends: Dict[tuple, list] = {}
    for n, edges in _cells(f):
        v, q = n[:2], n[2] * f._den
        for edge, w in edges.items():
            ends.setdefault(edge, []).append((v, q, w))
    terms = sorted([e for e, _, _ in f._rows], key=_sort_key, reverse=True)
    rank = {e: r for r, e in enumerate(terms)}
    ties = {tuple(sorted((rank[a], rank[b]))): cells
            for edge, cells in ends.items() for a, b in combinations(edge, 2)}
    segments, rays = [], []
    for (i, j), ((v, q, w), *other) in sorted(ties.items()):
        ei, ej = terms[i], terms[j]
        d = (ej[1] - ei[1], ei[0] - ej[0])
        if other:
            # the other cell's vertex u / r at t = (u_c / r - v_c / q) / d_c
            u, r, _ = other[0]
            c = 0 if d[0] else 1
            t = ((u[c] * q - v[c] * r) * d[c], q * r * d[c] * d[c])
            lo, hi = ((0, 1), t) if t[0] > 0 else (t, (0, 1))
        elif w is None:  # a collinear support: the cell is an edge
            lo = hi = None
        else:  # a ray along the wall's outward normal w
            up = w[0] * d[0] + w[1] * d[1] > 0
            lo, hi = ((0, 1), None) if up else (None, (0, 1))
        clipped = _box_range(v, q, d, lo, hi, box)
        if clipped is None:
            continue
        lo_t, hi_t = clipped
        # the visible part is a segment, and each unbounded end a ray
        a = _point(v, q, d, lo_t)
        entry = {"indices": [list(ei), list(ej)]}
        if lo_t[0] * hi_t[1] == hi_t[0] * lo_t[1]:
            b = a
        else:
            b = _point(v, q, d, hi_t)
            segments.append({**entry, "from": a, "to": b})
        if lo is None:
            rays.append({**entry, "from": a,
                         "dir": (Fraction(-d[0]), Fraction(-d[1]))})
        if hi is None:
            rays.append({**entry, "from": b,
                         "dir": (Fraction(d[0]), Fraction(d[1]))})
    return CornerLocus2D(False, segments, rays)
