"""Essential parts, full closures and the reduced polynomial semiring.

A term is essential when its lifted Newton point (exponent, projected
coefficient) is a vertex of the upper convex hull of all lifted points;
quasi-essential when it lies on the hull without being a vertex; and
inessential when it lies strictly below.  The essential part is a canonical
representative of functional equivalence, and the full closure adds every
hull lattice point as a ghost term.  Full closure maps the polynomial
semiring homomorphically onto the reduced one, so a reduced sum or product
is the raw result closed once.  A reduced power is never expanded: the
extended semiring has the Frobenius property (a + b)^k = a^k + b^k, ghost
ties included, so the hull of f^k is f's dilated by k, vertex to vertex
with the tags kept, and ``red_pow`` closes that dilated hull.

Every hull runs on the polynomial's integer rows, with heights scaled over
their least common denominator.  Univariate hulls come from one upper-hull
sweep; a univariate closure is written straight off its vertices
(``_close_1d``), one walk along each edge, and the classification needs
no walk.  Higher arities build the facets of the Newton polytope and of
the lifted points by beneath-beyond, testing each new point once against
every current simplex; the plane through d = 2 or 3 points is written out
(the perpendicular in 2-D, the cross product in 3-D), and other d expand
cofactors.  Every hull fact, and the plane corner locus in ``sets``, is
read off the points each facet touches.  Both give one integer complex
(``_complex``): the classification, the hull lattice heights as integer
pairs, the cells and the interior vertices.  The heights come from a
function that runs the lattice walk (in one dimension, the closure's edge
walk): closures above arity 1 and ``classify_monomials`` call it, while
essential parts (and with them ``equivalent`` and ``is_ghost_potent``)
read the classification alone.  Everything stays on integer rows;
``Fraction``s are built only for the public ``EssentialComplex`` of
``classify_monomials`` and the public ``SlopeSequence``.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, product as iter_product
from math import gcd, lcm
from operator import mul, sub
from typing import Callable, Dict, List, Optional, Tuple

from .errors import (ArityMismatch, ArityUnsupported, EmptyPolynomial,
                     InternalInconsistency, MonomialInput)
from .polynomial import Exponent, Row, TropicalPolynomial

ESSENTIAL = "essential"
QUASI = "quasi-essential"
INESSENTIAL = "inessential"


@dataclass(frozen=True)
class EssentialComplex:
    """The hull complex of a polynomial with ``Fraction`` heights, a view
    built on request by ``classify_monomials``; the library's own hull
    readers use the integer complex it is built from."""
    arity: int
    lifted_points: Dict[Exponent, Fraction]
    classification: Dict[Exponent, str]
    hull_lattice_points: Dict[Exponent, Fraction]
    subdivision: Optional[List[List[Exponent]]]
    interior_vertices: List[Exponent]


# The integer complex of a nonempty f: (classification, heights, cells,
# interior).  The classification is keyed in the order of the public view;
# heights() gives the lattice, in that order too: lattice[v] = (t, w) is
# the hull height t / (w * den) over the lattice point v, den being f's,
# with w > 0.  heights() runs the lattice walk, so callers that read only
# the classification skip it.  The cells are the subdivision (None above
# arity 2).
_Complex = Tuple[Dict[Exponent, str],
                Callable[[], Dict[Exponent, Tuple[int, int]]],
                Optional[List[List[Exponent]]], List[Exponent]]


# ---------------------------------------------------------------------------
# univariate hull: one integer sweep


def _hull_1d(f: TropicalPolynomial
             ) -> Tuple[List[Tuple[int, int]], int, List[Tuple[int, int]]]:
    """Lifted points ``(exponent, height * scale)`` in ascending order, the
    scale (f's den, the heights' least common denominator) and the vertices
    of the points' upper hull.  A middle point is dropped unless it makes a
    strict right turn, so collinear points are not vertices."""
    points = sorted([(e[0], s) for e, s, _ in f._rows])
    hull: List[Tuple[int, int]] = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return points, f._den, hull


def _walk_1d(vertices: List[Tuple[int, int, bool]], m: int) -> List[Row]:
    """The rows of a full univariate closure over ``den * m``, ascending,
    from the vertices ``(x, y, ghost)`` of an upper hull with heights
    times den, m a multiple of every edge width: each vertex keeps its
    height and tag, and each lattice point strictly inside an edge of
    width w gets a ghost at the edge's height, ``y1 * m + (y2 - y1) *
    (m / w) * j`` at the j-th point, accumulated along the edge."""
    x1, y1, g = vertices[0]
    rows = [((x1,), y1 * m, g)]
    for x2, y2, g in vertices[1:]:
        t, step = y1 * m, (y2 - y1) * (m // (x2 - x1))
        for x in range(x1 + 1, x2):
            t += step
            rows.append(((x,), t, True))
        rows.append(((x2,), y2 * m, g))
        x1, y1 = x2, y2
    return rows


def _vertices_1d(f: TropicalPolynomial, hull: List[Tuple[int, int]],
                 k: int = 1) -> Tuple[List[Tuple[int, int, bool]], int]:
    """The hull vertices with f's tags, exponents and heights times k, and
    the lcm of the edge widths."""
    ghosts = {x for (x,), _, g in f._rows if g}
    vertices = [(x * k, y * k, x in ghosts) for x, y in hull]
    return vertices, lcm(*[x2 - x1 for (x1, _, _), (x2, _, _)
                           in zip(vertices, vertices[1:])])


def _close_1d(f: TropicalPolynomial, k: int = 1
              ) -> Tuple[TropicalPolynomial, bool]:
    """The full closure of f^k, for a nonempty univariate f and k >= 1,
    straight off the sweep, and whether every hull vertex is tangible.
    The upper hull of f^k is f's dilated by k, vertices to vertices, and a
    vertex keeps its tag: at k times a vertex v of f only the k-th power
    of v's term reaches the top, every other product lies strictly below
    (the Frobenius property (a + b)^k = a^k + b^k)."""
    _, den, hull = _hull_1d(f)
    vertices, m = _vertices_1d(f, hull, k)
    return (TropicalPolynomial._from_rows(1, den * m, _walk_1d(vertices, m)),
            not any(g for _, _, g in vertices))


def _complex_1d(f: TropicalPolynomial) -> _Complex:
    """The ends of each hull edge ``(x1, y1)-(x2, y2)`` are essential terms;
    a term between them is quasi-essential when it ties the edge, that is
    ``(y - y1) * w == (y2 - y1) * (x - x1)`` for the width w, and any other
    term is inessential.  The classification takes one pass over the sorted
    points; heights() runs the edge walk of the closure, the lattice[v]
    being ``(t, m)`` with t the closure's row value over ``den * m``."""
    points, _, hull = _hull_1d(f)
    classification = dict.fromkeys([e for e, _, _ in f._rows], INESSENTIAL)
    classification[(hull[0][0],)] = ESSENTIAL
    cells: List[List[Exponent]] = []
    i = 1
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        w, dy = x2 - x1, y2 - y1
        cell = [(x1,)]
        x, y = points[i]
        while x < x2:
            if (y - y1) * w == dy * (x - x1):
                classification[(x,)] = QUASI
                cell.append((x,))
            i += 1
            x, y = points[i]
        i += 1
        end = (x2,)
        classification[end] = ESSENTIAL
        cell.append(end)
        cells.append(cell)
    return (classification, partial(_lattice_1d, f, hull), cells,
            [(x,) for x, _ in hull[1:-1]])


def _lattice_1d(f: TropicalPolynomial, hull: List[Tuple[int, int]]
                ) -> Dict[Exponent, Tuple[int, int]]:
    """The closure's edge walk as lattice heights ``(t, m)``."""
    vertices, m = _vertices_1d(f, hull)
    return {e: (t, m) for e, t, _ in _walk_1d(vertices, m)}


# ---------------------------------------------------------------------------
# multivariate hull: beneath-beyond on integer points


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _reduce(basis: List[Tuple[int, List[int]]], row: List[int]) -> List[int]:
    """Eliminate the pivot coordinates of an echelon basis from row."""
    for c, b in basis:
        if row[c]:
            row = [b[c] * x - row[c] * y for x, y in zip(row, b)]
    return row


def _echelon(rows: List[List[int]]) -> List[Tuple[int, List[int]]]:
    """Integer echelon basis of the span of rows, as (pivot, row) pairs;
    the span projects one-to-one onto the pivot coordinates."""
    basis: List[Tuple[int, List[int]]] = []
    for row in rows:
        row = _reduce(basis, list(row))
        if any(row):
            g = gcd(*row)
            basis.append((next(i for i, x in enumerate(row) if x),
                          [x // g for x in row]))
    return basis


def _det(m: List[List[int]]) -> int:
    """Determinant of a square integer matrix, along the first row."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if len(m) < 2:
        return m[0][0] if m else 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, a in enumerate(m[0]) if a)


def _plane(pts: List[Tuple[int, ...]]) -> Tuple[List[int], int]:
    """The hyperplane n . x = b through d affinely independent points of
    Z^d: n is the gcd-reduced vector of cofactors of their differences.
    For d = 2 and 3 the cofactors are written out: the perpendicular of
    the one difference, the cross product of the two."""
    p0 = pts[0]
    d = len(pts)
    if d == 3:
        (a0, a1, a2), (b0, b1, b2) = ([x - y for x, y in zip(p, p0)]
                                      for p in pts[1:])
        n = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    elif d == 2:
        (x0, y0), (x1, y1) = pts
        n = [y1 - y0, x0 - x1]
    else:
        rows = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
        n = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
             for j in range(d)]
    g = gcd(*n)
    if g > 1:
        n = [a // g for a in n]
    return n, _dot(n, p0)


def _facets(points: List[Tuple[int, ...]]) -> list:
    """Facets of the convex hull of integer points that span Z^d or one
    hyperplane of it, by beneath-beyond.

    Each facet is (outward normal, offset, indices of the points on it),
    with normal . x <= offset at every point; points on one hyperplane give
    it once, oriented to a positive last component.  The hull starts from
    the first d + 1 affinely independent points; each later point p is
    tested once against every current simplex, and the simplices it sees
    strictly (n . p > b, so points on a facet's plane change nothing) are
    replaced by the cones from p over their horizon ridges, each oriented
    away from the start's integer centroid c (d + 1 times the mean).
    Simplices on one plane merge into one facet, whose contact set is read
    off all points.
    """
    d = len(points[0])
    start, basis = [0], []
    for i, p in enumerate(points):
        row = _reduce(basis, [a - b for a, b in zip(p, points[0])])
        if any(row):
            basis.append((next(c for c, x in enumerate(row) if x), row))
            start.append(i)
            if len(start) > d:
                break
    if len(start) == d:  # flat
        n, b = _plane([points[i] for i in start])
        planes = {(tuple(n), b) if n[-1] >= 0 else
                  (tuple(-a for a in n), -b)}
    else:
        c = [sum(col) for col in zip(*(points[i] for i in start))]

        def simplex(verts):
            n, b = _plane([points[i] for i in verts])
            return (verts, n, b) if _dot(n, c) < b * (d + 1) else \
                (verts, [-a for a in n], -b)

        hull = [simplex(tuple(start[:j] + start[j + 1:]))
                for j in range(d + 1)]
        for i in sorted(set(range(len(points))) - set(start)):
            p = points[i]
            seen, kept = [], []
            for fc in hull:
                (seen if _dot(fc[1], p) > fc[2] else kept).append(fc)
            if not seen:
                continue
            once: Dict[tuple, bool] = {}
            for verts, _, _ in seen:
                for j in range(d):
                    ridge = verts[:j] + verts[j + 1:]
                    once[ridge] = ridge not in once
            hull = kept + [simplex(tuple(sorted(r + (i,))))
                           for r, one in once.items() if one]
        planes = {(tuple(n), b) for _, n, b in hull}
    return [(n, b, frozenset(i for i, p in enumerate(points)
                             if _dot(n, p) == b)) for n, b in planes]


def _lift(f: TropicalPolynomial) -> tuple:
    """Ascending exponents, the echelon basis of their affine hull (k rows)
    and its pivots, and the lifted points: pivot coordinates, then height
    times scale, f's den."""
    rows = sorted(f._rows)
    exps = [e for e, _, _ in rows]
    affine = _echelon([list(map(sub, e, exps[0])) for e in exps])
    pivots = [c for c, _ in affine]
    points = [tuple(e[c] for c in pivots) + (s,) for e, s, _ in rows]
    return exps, affine, pivots, f._den, points


def _complex_nd(f: TropicalPolynomial, k: int = 1) -> _Complex:
    """A point is on the hull iff an upper facet touches it; a hull vertex
    iff the upper facets and Newton walls through it touch no other point
    together; and a Newton vertex iff its walls touch no other point
    together (with no pivot the single point is one).  With k > 1 the hull
    is f's dilated by k, that of f^k: the exponents and every facet offset
    are multiplied by k, so the classification is keyed by f's exponents
    times k and the lattice walk runs over the dilated polytope, its
    heights over f's den."""
    exps, affine, pivots, _, points = _lift(f)
    newton = _facets([p[:-1] for p in points]) if pivots else []
    upper = [fc for fc in _facets(points) if fc[0][-1] > 0]
    if k != 1:
        exps = [tuple(k * a for a in e) for e in exps]
        newton = [(n, k * b, c) for n, b, c in newton]
        upper = [(n, k * b, c) for n, b, c in upper]

    classification = {}
    interior = []
    everyone = frozenset(range(len(exps)))
    for i, e in enumerate(exps):
        on_walls = everyone.intersection(*(c for _, _, c in newton if i in c))
        roofs = [c for _, _, c in upper if i in c]
        if not roofs:
            classification[e] = INESSENTIAL
        elif len(on_walls.intersection(*roofs)) > 1:
            classification[e] = QUASI
        else:
            classification[e] = ESSENTIAL
            if len(on_walls) > 1:
                interior.append(e)

    subdivision = None
    if f.arity == 2:
        subdivision = sorted(sorted(exps[i] for i in c) for _, _, c in upper)
    return (classification,
            partial(_lattice_nd, f.arity, exps, affine, pivots, newton, upper),
            subdivision, interior)


def _lattice_nd(arity: int, exps: List[Exponent], affine, pivots: List[int],
                newton: list, upper: list) -> Dict[Exponent, Tuple[int, int]]:
    """The lattice walk: every lattice point of the exponents' bounding box
    that lies in their affine hull and inside the Newton walls, with the
    hull height over it as an integer pair."""
    k = len(pivots)
    box = [range(min(e[c] for e in exps), max(e[c] for e in exps) + 1)
           for c in range(arity)]
    lattice = {}
    for v in iter_product(*box):
        if k < arity and any(_reduce(affine, list(map(sub, v, exps[0])))):
            continue
        x = tuple(v[c] for c in pivots)
        if any(_dot(n, x) > b for n, b, _ in newton):
            continue
        # the least (b - n . x) / n_k over the upper facets, compared by
        # cross-multiplication; _dot stops at the end of x
        t, w = None, 1
        for n, b, _ in upper:
            s = b - _dot(n, x)
            if t is None or s * w < t * n[-1]:
                t, w = s, n[-1]
        lattice[v] = (t, w)
    return lattice


def _complex(f: TropicalPolynomial, k: int = 1) -> _Complex:
    """The integer complex of a nonempty f: every hull any caller reads.
    Above arity 1 it is that of f^k's hull, f's dilated by k; univariate
    powers close off the sweep in ``_close_1d`` instead."""
    return _complex_1d(f) if f.arity == 1 else _complex_nd(f, k)


# ---------------------------------------------------------------------------
# public interface


def classify_monomials(f: TropicalPolynomial,
                       with_subdivision: bool = False) -> EssentialComplex:
    """The hull complex of f with ``Fraction`` heights.  The subdivision is
    given for arities 1 and 2; ``with_subdivision`` changes nothing."""
    if f.is_empty():
        raise EmptyPolynomial("no monomials to classify")
    kind, heights, cells, interior = _complex(f)
    lattice = heights()
    den = f._den
    values = {e: s for e, s, _ in f._rows}
    return EssentialComplex(
        f.arity, {e: Fraction(values[e], den) for e in kind}, kind,
        {v: Fraction(t, w * den) for v, (t, w) in lattice.items()},
        cells, interior)


def essential_part(f: TropicalPolynomial) -> TropicalPolynomial:
    if f.is_empty():
        return f
    kind = _complex(f)[0]
    return TropicalPolynomial._from_rows(f.arity, f._den, [
        r for r in f._rows if kind[r[0]] == ESSENTIAL])


def _close(f: TropicalPolynomial, cx: _Complex, k: int = 1
           ) -> TropicalPolynomial:
    """The full closure of f^k read off the integer complex of its hull, as
    rows over ``den * m``, den f's and m the lcm of the lattice widths: the
    essential terms of f with exponents and values times k, then a ghost row
    at every other hull lattice point.  The dilated rows stay over f's den,
    which the lattice heights are over too."""
    kind, lattice = cx[0], cx[1]()
    ghosts = [(v, t, w) for v, (t, w) in lattice.items()
              if kind.get(v) != ESSENTIAL]
    m = lcm(*[w for _, _, w in ghosts])
    rows = f._rows if k == 1 else [(tuple(k * a for a in e), k * s, g)
                                   for e, s, g in f._rows]
    rows = [(e, s * m, g) for e, s, g in rows if kind[e] == ESSENTIAL]
    rows += [(v, t * (m // w), True) for v, t, w in ghosts]
    return TropicalPolynomial._from_rows(f.arity, f._den * m, rows)


def _closure_and_guard(f: TropicalPolynomial
                       ) -> Tuple[TropicalPolynomial, bool]:
    """The full closure of a nonempty f and whether its essential part is
    tangible, from one hull."""
    if f.arity == 1:
        return _close_1d(f)
    cx = _complex(f)
    kind = cx[0]
    tangible_full = not any(g for e, _, g in f._rows if kind[e] == ESSENTIAL)
    return _close(f, cx), tangible_full


def full_closure(f: TropicalPolynomial) -> TropicalPolynomial:
    """Essential part plus a ghost term at every other hull lattice point."""
    if f.is_empty():
        return f
    if f.arity == 1:
        return _close_1d(f)[0]
    return _close(f, _complex(f))


def is_full(f: TropicalPolynomial) -> bool:
    return not f.is_empty() and full_closure(f) == f


def equivalent(f: TropicalPolynomial, g: TropicalPolynomial) -> bool:
    """Functional equality, decided through essential parts."""
    if f.arity != g.arity:
        raise ArityMismatch(f"arity {f.arity} vs {g.arity}")
    if f.is_empty() or g.is_empty():
        return f.is_empty() and g.is_empty()
    return essential_part(f) == essential_part(g)


def red_add(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    return full_closure(f + g)


def red_mul(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    return full_closure(f * g)


def red_pow(f: TropicalPolynomial, k: int) -> TropicalPolynomial:
    """The full closure of f^k, from f's hull dilated by k and never from
    an expansion: extended tropical arithmetic has the Frobenius property
    (a + b)^k = a^k + b^k, ghost ties included, so the essential terms of
    f^k are those of f raised to the k-th power, and full closures are
    canonical.  k = 0 and the empty polynomial close the raw power, which
    also raises the ValueError for a negative k."""
    if k < 1 or f.is_empty():
        return full_closure(f ** k)
    if f.arity == 1:
        return _close_1d(f, k)[0]
    return _close(f, _complex(f, k), k)


# ---------------------------------------------------------------------------
# slope sequences and division


def _chain(closed: TropicalPolynomial
           ) -> Tuple[int, int, List[int], List[bool], List[int]]:
    """A full univariate closure read off its sorted rows: its lowest
    exponent lo, its den, its values times den and ghost flags from lo to
    hi, and its top-down slopes times den: slopes[k] = c[k] - c[k + 1] is
    the edge from position k + 1 down to k, and the slopes ascend."""
    rows = sorted(closed._rows)
    values = [s for _, s, _ in rows]
    return (rows[0][0][0], closed._den, values, [g for _, _, g in rows],
            list(map(sub, values, values[1:])))


@dataclass
class SlopeSequence:
    slopes: List[Fraction]
    edges: List[Tuple[Tuple[int, Fraction], Tuple[int, Fraction]]]


def slope_sequence(f: TropicalPolynomial) -> SlopeSequence:
    """Consecutive hull height differences of a full univariate polynomial,
    read from the top degree down.  The sequence is weakly descending.
    """
    if f.arity != 1:
        raise ArityUnsupported("slope sequences are univariate")
    if f.is_empty():
        raise EmptyPolynomial("no slopes for the empty polynomial")
    lo, den, c, _, slopes = _chain(full_closure(f))
    if not slopes:
        raise MonomialInput("a single monomial has no slopes")
    if any(a > b for a, b in zip(slopes, slopes[1:])):
        raise InternalInconsistency("slopes of a full closure ascend")
    heights = [Fraction(s, den) for s in c]
    edges = [((lo + k + 1, heights[k + 1]), (lo + k, heights[k]))
             for k in range(len(slopes))]
    return SlopeSequence([Fraction(s, den) for s in reversed(slopes)],
                         edges[::-1])


def divides(f: TropicalPolynomial, g: TropicalPolynomial
            ) -> Optional[TropicalPolynomial]:
    """The closed quotient q with red_mul(q, g) equal to the full closure F
    of f, or None, which proves that no quotient exists.  Univariate only.

    With G the full closure of g every step is forced, since a vertex of a
    Minkowski sum splits uniquely into vertices of its summands: q has F's
    slopes less G's and starts at lo_F - lo_G with F(lo_F) - G(lo_G).  A
    vertex p of F splits as u + w, the counts of q's and G's slopes below
    p's upper edge, and F(p) = q(u) G(w).  Where G(w) is tangible q(u)
    takes the tag of F(p); where it is ghost F(p) must be ghost.  Every
    other term of q is ghost.  F's and G's values and slopes are compared
    over the lcm of their dens.
    """
    if f.arity != 1 or g.arity != 1:
        raise ArityUnsupported("divisibility testing is univariate")
    if f.is_empty() or g.is_empty():
        raise EmptyPolynomial("divisibility with an empty polynomial")
    lo_f, den_f, cf, ghost_f, sf = _chain(closed_f := full_closure(f))
    lo_g, den_g, cg, ghost_g, sg = _chain(full_closure(g))
    if lo_f < lo_g:
        return None
    den = lcm(den_f, den_g)
    mf, mg = den // den_f, den // den_g
    sf, sg = [s * mf for s in sf], [s * mg for s in sg]
    if Counter(sg) - Counter(sf):
        return None
    sq = sorted((Counter(sf) - Counter(sg)).elements())
    tags: Dict[int, bool] = {}
    for p, g_p in enumerate(ghost_f):
        if 0 < p < len(sf) and sf[p - 1] == sf[p]:
            continue  # not a vertex of F
        u = bisect_left(sq, sf[p]) if p < len(sf) else len(sq)
        tag = not g_p  # the tag of F(p) = q(u) G(p - u)
        forced = False if ghost_g[p - u] else tags.setdefault(u, tag)
        if forced != tag:
            return None
    values = accumulate(sq, sub, initial=cf[0] * mf - cg[0] * mg)
    quotient = TropicalPolynomial._from_rows(1, den, [
        ((lo_f - lo_g + u,), v, not tags.get(u))
        for u, v in enumerate(values)])
    if red_mul(quotient, g) != closed_f:
        raise InternalInconsistency("the forced quotient does not reproduce f")
    return quotient
