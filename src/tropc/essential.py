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
with the tags kept, and ``red_pow`` is the full closure of f's dilation,
the rows ``(k e, k s, g)``.

Every hull runs on the polynomial's integer rows, with heights scaled over
their least common denominator.  Univariate hulls come from one upper-hull
sweep; a univariate closure is written straight off its vertices
(``_close_1d``), one walk along each edge, and the classification needs no
walk.  Higher arities build the facets of the lifted points and everything
below them once (``_hull``), by beneath-beyond with the downward direction
as a vertex at infinity, so every facet is an upper facet or a Newton wall
(a vertical facet over a facet of the Newton polytope), and no lower facet
is built; planes and dot products are written out at 1 to 4 coordinates
(``_plane``, ``_dots``).  Every hull fact comes off the points each
facet touches (``_index``); the plane subdivision is the upper facets'
contact sets, and the corner locus in ``sets`` reads the cells' edges off
a hull of its own (``_cells``).  An affinely independent support (k + 1
exponents spanning k dimensions: a single term, a binomial, most
trinomials, and every dilation of one) is its own Newton simplex and its
lifted points form one upper cell, so every term is essential, and its
hull, the start simplex alone, is built only when the closure is written.
Both arities give one integer complex (``_complex``): the classification,
a function that writes the full closure (one row per hull lattice point,
ascending, at the hull's height there, so ``classify_monomials`` reads
the heights off it), the subdivision and the interior vertices.  Writing
the closure runs the lattice walk (``_walk_1d``'s edge walk in one
dimension, else ``_lattice``), which essential parts (and with them
``equivalent`` and ``is_ghost_potent``) skip: they read the
classification alone.  Everything stays on integer rows; ``Fraction``s
are built only for the public ``EssentialComplex`` of
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
from operator import itemgetter, mul, sub
from typing import Callable, Dict, List, Optional, Tuple

from .errors import (ArityMismatch, ArityUnsupported, EmptyPolynomial,
                     InternalInconsistency, MonomialInput)
from .polynomial import Exponent, TropicalPolynomial

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


# The integer complex of a nonempty f: (classification, close, subdivision,
# interior), the classification keyed in the order of the public view.  On
# request, close() writes f's full closure by the lattice walk, one row per
# hull lattice point, ascending, at the hull's height there.  The subdivision
# is the edges' exponents at arity 1, the cells' (unsorted) at 2, else None.
_Complex = Tuple[Dict[Exponent, str], Callable[[], TropicalPolynomial],
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


def _walk_1d(f: TropicalPolynomial, den: int, hull: List[Tuple[int, int]]
             ) -> Tuple[TropicalPolynomial, bool]:
    """The full closure of a nonempty univariate f off the vertices of its
    sweep's upper hull (heights times den), over ``den * m`` with m the lcm
    of the edge widths, and whether every hull vertex (every essential
    term) is tangible.  The rows ascend: each vertex keeps its height and
    tag, and each lattice point strictly inside an edge of width w gets a
    ghost at the edge's height, ``y1 * m + (y2 - y1) * (m / w) * j`` at the
    j-th point, accumulated along the edge."""
    ghosts = {x for (x,), _, g in f._rows if g}
    m = lcm(*[x2 - x1 for (x1, _), (x2, _) in zip(hull, hull[1:])])
    x1, y1 = hull[0]
    rows = [((x1,), y1 * m, x1 in ghosts)]
    for x2, y2 in hull[1:]:
        t, step = y1 * m, (y2 - y1) * (m // (x2 - x1))
        for x in range(x1 + 1, x2):
            t += step
            rows.append(((x,), t, True))
        rows.append(((x2,), y2 * m, x2 in ghosts))
        x1, y1 = x2, y2
    return (TropicalPolynomial._from_rows(1, den * m, rows),
            ghosts.isdisjoint([x for x, _ in hull]))


def _close_1d(f: TropicalPolynomial) -> Tuple[TropicalPolynomial, bool]:
    """``_walk_1d`` on f's own sweep."""
    return _walk_1d(f, *_hull_1d(f)[1:])


def _complex_1d(f: TropicalPolynomial) -> _Complex:
    """The ends of each hull edge ``(x1, y1)-(x2, y2)`` are essential terms;
    a term between them is quasi-essential when it ties the edge, that is
    ``(y - y1) * w == (y2 - y1) * (x - x1)`` for the width w, and any other
    term is inessential.  The classification takes one pass over the sorted
    points; close() is ``_walk_1d`` on the same sweep, whose edge walk
    writes the rows ascending."""
    points, den, hull = _hull_1d(f)
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
    return (classification, lambda: _walk_1d(f, den, hull)[0],
            cells, [(x,) for x, _ in hull[1:-1]])


# ---------------------------------------------------------------------------
# multivariate hull: beneath-beyond on integer points


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _dots(v, rows) -> List[int]:
    """v . r for every r in rows, each as long as v; written out at 1 to 4
    coordinates."""
    k = len(v)
    if k == 1:
        a, = v
        return [a * x for x, in rows]
    if k == 2:
        a, b = v
        return [a * x + b * y for x, y in rows]
    if k == 3:
        a, b, c = v
        return [a * x + b * y + c * z for x, y, z in rows]
    if k == 4:
        a, b, c, e = v
        return [a * w + b * x + c * y + e * z for w, x, y, z in rows]
    return [_dot(v, r) for r in rows]


def _reduce(basis: List[Tuple[int, List[int]]], row: List[int]) -> List[int]:
    """Eliminate the pivot coordinates of an echelon basis from row."""
    for c, b in basis:
        if row[c]:
            row = [b[c] * x - row[c] * y for x, y in zip(row, b)]
    return row


def _kept(rows: List[List[int]]
          ) -> Tuple[List[int], List[Tuple[int, List[int]]]]:
    """The indices of the rows that raise the rank of the rows before them,
    and an integer echelon basis of the span as (pivot, row) pairs: each
    kept row reduced by the basis so far and divided by its gcd.  The span
    projects one-to-one onto the pivot coordinates.  It stops at full rank,
    where every later row would reduce to zero."""
    kept: List[int] = []
    basis: List[Tuple[int, List[int]]] = []
    for i, row in enumerate(rows):
        row = _reduce(basis, row)
        if any(row):
            g = gcd(*row)
            kept.append(i)
            basis.append((next(c for c, x in enumerate(row) if x),
                          [x // g for x in row]))
            if len(basis) == len(row):
                break
    return kept, basis


def _echelon(rows: List[List[int]]) -> List[Tuple[int, List[int]]]:
    """Integer echelon basis of the span of rows, as (pivot, row) pairs."""
    return _kept(rows)[1]


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
    For d = 1 to 4 the cofactors are written out: the empty one, the
    perpendicular of the one difference, the cross product of the two, and
    the first difference expanded along the 2 x 2 minors of the other two."""
    p0 = pts[0]
    d = len(pts)
    if d == 1:
        return [1], p0[0]
    if d == 3:
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = pts
        a0, a1, a2 = x1 - x0, y1 - y0, z1 - z0
        b0, b1, b2 = x2 - x0, y2 - y0, z2 - z0
        n = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    elif d == 2:
        (x0, y0), (x1, y1) = pts
        n = [y1 - y0, x0 - x1]
    elif d == 4:
        a0, a1, a2, a3 = [u - v for u, v in zip(pts[1], p0)]
        b0, b1, b2, b3 = [u - v for u, v in zip(pts[2], p0)]
        c0, c1, c2, c3 = [u - v for u, v in zip(pts[3], p0)]
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        n = [a1 * m23 - a2 * m13 + a3 * m12,
             a2 * m03 - a0 * m23 - a3 * m02,
             a0 * m13 - a1 * m03 + a3 * m01,
             a1 * m02 - a0 * m12 - a2 * m01]
    else:
        rows = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
        n = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
             for j in range(d)]
    g = gcd(*n)
    if g > 1:
        n = [a // g for a in n]
    return n, _dot(n, p0)


def _hull(points: List[Tuple[int, ...]], start: List[int]) -> list:
    """The facets of P = conv(points) + cone(-e_h), the lifted points and
    everything below them, as (outward normal, offset, contact set): the
    upper facets (last normal component > 0) and the Newton walls (0), with
    normal . x <= offset on P.  The projections of the points (all
    coordinates but the last) span Z^k, and the k + 1 points at start,
    ascending, are affinely independent there.

    Beneath-beyond runs on the points and the downward direction, held as
    a vertex at infinity, index -1.  A simplex through it is a wall: the
    plane (``_plane``) of its k real points' projections with a 0 height
    coefficient appended.  Any other simplex is the plane through its k + 1
    points.  Each is oriented away from z, the start's centroid lowered by
    1, which lies inside P.  The hull starts from the start points and the
    direction; the other points go in a fixed pseudo-random order of their
    indices, and each is tested once against every current simplex: the
    simplices it sees strictly (n . p > b, so points on a facet's plane
    change nothing) are replaced by the cones from it over their horizon
    ridges.  Simplices on one plane merge into one facet, whose contact set
    (real points only) is read off all points with ``_dots``; when nothing
    was left to insert, each start facet touches its own vertices."""
    k = len(points[0]) - 1
    z = [sum(col) for col in zip(*(points[i] for i in start))]
    z[-1] -= 1

    def outward(verts: tuple) -> tuple:
        if verts[0] < 0:
            n, b = _plane([points[i][:-1] for i in verts[1:]])
            n.append(0)
        else:
            n, b = _plane([points[i] for i in verts])
        return (n, b, verts) if _dot(n, z) < b * (k + 1) else \
            ([-a for a in n], -b, verts)

    simplex = (-1, *start)
    hull = [outward(simplex[:j] + simplex[j + 1:])
            for j in range(k + 2 if k else 1)]  # a single point has no wall
    rest = sorted(set(range(len(points))) - set(start),
                  key=lambda i: (i * 2654435761) & 0xffffffff)
    if not rest:
        return [(tuple(n), b, frozenset(v for v in verts if v >= 0))
                for n, b, verts in hull]
    normals = [n for n, _, _ in hull]
    for i in rest:
        over = [s > b for s, (_, b, _) in
                zip(_dots(points[i], normals), hull)]
        if not any(over):
            continue
        once: Dict[tuple, bool] = {}
        for (_, _, verts), seen in zip(hull, over):
            if seen:
                for j in range(k + 1):
                    ridge = verts[:j] + verts[j + 1:]
                    once[ridge] = ridge not in once
        hull = [fc for fc, seen in zip(hull, over) if not seen] + [
            outward(tuple(sorted(r + (i,)))) for r, one in once.items() if one]
        normals = [n for n, _, _ in hull]
    planes = {(tuple(n), b) for n, b, _ in hull}
    return [(n, b, frozenset([i for i, s in enumerate(_dots(n, points))
                              if s == b])) for n, b in planes]


def _lift(f: TropicalPolynomial) -> tuple:
    """Ascending exponents, the echelon basis of their affine hull (k rows)
    and its pivots, f's den, the lifted points (pivot coordinates, then
    height times den) and the k + 1 exponents the echelon pass kept, the
    start simplex of ``_hull``."""
    rows = sorted(f._rows)
    exps = [e for e, _, _ in rows]
    kept, affine = _kept([list(map(sub, e, exps[0])) for e in exps[1:]])
    pivots = [c for c, _ in affine]
    points = [tuple(e[c] for c in pivots) + (s,) for e, s, _ in rows]
    return exps, affine, pivots, f._den, points, [0] + [i + 1 for i in kept]


def _index(size: int, facets: list) -> Tuple[List[list], List[list]]:
    """The contact sets of the upper facets (roofs) and of the walls
    through each of the size points."""
    roofs: List[list] = [[] for _ in range(size)]
    walls: List[list] = [[] for _ in range(size)]
    for n, _, c in facets:
        through = roofs if n[-1] else walls
        for i in c:
            through[i].append(c)
    return roofs, walls


def _complex_nd(f: TropicalPolynomial) -> _Complex:
    """Every hull fact read off the facets of one beneath-beyond run
    (``_hull``) and their ``_index``: a point is on the hull iff an upper
    facet touches it; a hull vertex iff the contact sets of the facets
    through it, upper facets and walls, meet in it alone; and, being a
    vertex, an interior vertex iff the walls through it meet in more than
    one point (the intersection starts from all points, so a term on no
    wall is interior, unless it is the only one).  close() is
    ``_close_nd`` on the same facets; at arity 2 the subdivision is the
    upper facets' contact sets, unsorted.

    An affinely independent support (k + 1 exponents spanning k
    dimensions, so the echelon basis has one pivot fewer than there are
    terms) is its own Newton simplex, and its lifted points form one upper
    cell, its exponents: every term is an essential Newton vertex, and no
    facet is built until close() builds the start simplex's, from which
    ``_close_nd`` writes the rows ascending."""
    exps, affine, pivots, _, points, start = _lift(f)
    if len(pivots) == len(exps) - 1:
        kind = dict.fromkeys(exps, ESSENTIAL)
        return (kind, lambda: _close_nd(f, kind, exps, affine, pivots,
                                        _hull(points, start)),
                [exps] if f.arity == 2 else None, [])
    facets = _hull(points, start)
    roofs, walls = _index(len(exps), facets)
    everyone = frozenset(range(len(exps)))
    classification = {}
    interior = []
    for i, e in enumerate(exps):
        if not roofs[i]:
            classification[e] = INESSENTIAL
            continue
        newton = everyone.intersection(*walls[i])
        if len(newton.intersection(*roofs[i])) > 1:
            classification[e] = QUASI
        else:
            classification[e] = ESSENTIAL
            if len(newton) > 1:
                interior.append(e)
    return (classification,
            partial(_close_nd, f, classification, exps, affine, pivots,
                    facets),
            [[exps[i] for i in on] for n, _, on in facets if n[-1]]
            if f.arity == 2 else None, interior)


def _cells(f: TropicalPolynomial):
    """The upper cells of a nonempty arity-2 f off one ``_hull`` and its
    ``_index``, each (normal, edges): the upper facet's normal (n_x, n_y,
    n_H), whose dual vertex is (n_x, n_y) / (n_H den), and the edges where
    another upper facet or a wall meets two or more of its points, keyed
    by their exponents (ascending), with the wall's outward normal (w_x,
    w_y, 0) or None inside.  A collinear support's cells are edges."""
    exps, _, pivots, _, points, start = _lift(f)
    facets = _hull(points, start)
    roofs, walls = _index(len(exps), facets)

    def full(n):
        v = [0, 0, n[-1]]
        for c, a in zip(pivots, n):
            v[c] = a
        return v
    outward = {c: full(n) for n, _, c in facets if not n[-1]}
    for n, _, on in facets:
        if n[-1]:
            edges = {on: None} if len(pivots) == 1 else {
                on & c: outward.get(c) for i in on
                for c in roofs[i] + walls[i] if c != on}
            yield full(n), {tuple([exps[i] for i in sorted(e)]): w
                            for e, w in edges.items() if len(e) >= 2}


def _lattice(exps: List[Exponent], affine, pivots: List[int]):
    """The lattice points v of the exponents' affine hull whose pivot
    coordinates lie in the exponents' box, ascending, each with its pivot
    coordinates x.  A segment (k = 1) walks its own g + 1 lattice points,
    g the gcd of its direction.  Other supports walk the box of their
    pivot coordinates in ascending coordinate order, which is the
    ascending order of the hull's points (two of them first differ at a
    pivot), and lift each box point to the hull.  With the basis made
    diagonal on the pivots (row j is d_j at its own pivot and 0 at the
    others), a free coordinate c is e0_c + sum_j (x_j - e0_pj) r_j[c] / d_j,
    on den, the lcm of the d_j; a box point is kept when every free
    coordinate is an integer."""
    e0, k = exps[0], len(pivots)
    if not k:
        yield e0, ()
        return
    if k == 1:  # exps[0] and exps[-1] are the segment's ends
        g = gcd(*map(sub, exps[-1], e0))
        steps = [(b - a) // g for a, b in zip(e0, exps[-1])]
        c = pivots[0]
        for v in zip(*[[a + j * s for j in range(g + 1)]
                       for a, s in zip(e0, steps)]):
            yield v, (v[c],)
        return
    cols = list(zip(*exps))
    order = sorted(pivots)
    box = [range(min(cols[c]), max(cols[c]) + 1) for c in order]
    rows = [b for _, b in affine]
    for j, c in enumerate(pivots):
        rows = [r if i == j or not r[c] else
                [rows[j][c] * a - r[c] * b for a, b in zip(r, rows[j])]
                for i, r in enumerate(rows)]
    den = lcm(*[r[c] for r, c in zip(rows, pivots)])
    x0 = [e0[c] for c in pivots]
    free = []
    for c in range(len(e0)):
        if c not in pivots:
            coef = [den // r[p] * r[c] for r, p in zip(rows, pivots)]
            free.append((c, coef, den * e0[c] - _dot(coef, x0)))
    get = itemgetter(*[order.index(c) for c in pivots])
    for u in iter_product(*box):
        x = get(u)
        v = u
        for c, coef, base in free:  # ascending c: v[:c] is in place
            s = base + _dot(coef, x)
            if s % den:
                break
            v = v[:c] + (s // den,) + v[c:]
        else:
            yield v, x


def _close_nd(f: TropicalPolynomial, kind: Dict[Exponent, str],
              exps: List[Exponent], affine, pivots: List[int],
              facets: list) -> TropicalPolynomial:
    """The full closure of f, one row per lattice point of the exponents'
    affine hull (``_lattice``) inside the Newton polytope, ascending: a
    point is kept iff every wall holds there.  Its hull height t / (w * den),
    the least (b - n . x) / n_k over the upper facets compared by
    cross-multiplication, becomes a ghost row ``t * (m / w)`` over
    ``den * m``, m the lcm of those w; an essential term keeps f's own row.
    The dot products are ``_dots``, written out at 1 to 4 pivot
    coordinates."""
    # walls first: a point outside one is dropped before the heights
    facets = [fc for fc in facets if not fc[0][-1]] + [
        fc for fc in facets if fc[0][-1]]
    normals = [n[:-1] for n, _, _ in facets]
    offsets = [b for _, b, _ in facets]
    lasts = [n[-1] for n, _, _ in facets]
    heights = []
    for v, x in _lattice(exps, affine, pivots):
        t = None
        for s, b, h in zip(_dots(x, normals), offsets, lasts):
            s = b - s
            if h:
                if t is None or s * w < t * h:
                    t, w = s, h
            elif s < 0:  # outside a wall
                break
        else:
            heights.append((v, t, w))
    m = lcm(*[w for v, _, w in heights if kind.get(v) != ESSENTIAL])
    own = {e: (e, s * m, g) for e, s, g in f._rows if kind[e] == ESSENTIAL}
    return TropicalPolynomial._from_rows(f.arity, f._den * m, [
        own[v] if v in own else (v, t * (m // w), True)
        for v, t, w in heights])


def _complex(f: TropicalPolynomial) -> _Complex:
    """The integer complex of a nonempty f: every hull any caller reads."""
    return _complex_1d(f) if f.arity == 1 else _complex_nd(f)


# ---------------------------------------------------------------------------
# public interface


def classify_monomials(f: TropicalPolynomial,
                       with_subdivision: bool = False) -> EssentialComplex:
    """The hull complex of f with ``Fraction`` heights.  The subdivision is
    given for arities 1 and 2; ``with_subdivision`` changes nothing."""
    if f.is_empty():
        raise EmptyPolynomial("no monomials to classify")
    kind, close, cells, interior = _complex(f)
    closed = close()
    if f.arity == 2:  # each upper cell's points, ascending
        cells = sorted(map(sorted, cells))
    den = f._den
    values = {e: s for e, s, _ in f._rows}
    return EssentialComplex(
        f.arity, {e: Fraction(values[e], den) for e in kind}, kind,
        {v: Fraction(s, closed._den) for v, s, _ in closed._rows},
        cells, interior)


def essential_part(f: TropicalPolynomial) -> TropicalPolynomial:
    if f.is_empty():
        return f
    kind = _complex(f)[0]
    return TropicalPolynomial._from_rows(f.arity, f._den, [
        r for r in f._rows if kind[r[0]] == ESSENTIAL])


def full_closure(f: TropicalPolynomial) -> TropicalPolynomial:
    """Essential part plus a ghost term at every other hull lattice point."""
    if f.is_empty():
        return f
    return _close_1d(f)[0] if f.arity == 1 else _complex(f)[1]()


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
    """The full closure of f^k, as that of f's dilation by k, the rows
    ``(k e, k s, g)``, never of an expansion.  By the Frobenius property
    (a + b)^k = a^k + b^k, ghost ties included, at k times a vertex v of
    f's hull only the k-th power of v's term reaches the top and every
    other product lies strictly below: the hull of f^k is f's dilated by
    k, tags kept, and full closures are canonical.  k < 1 closes the raw
    power, which raises the ValueError for a negative k."""
    if k < 1:
        return full_closure(f ** k)
    return full_closure(TropicalPolynomial._from_rows(
        f.arity, f._den, [(tuple(k * a for a in e), k * s, g)
                          for e, s, g in f._rows]))


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
