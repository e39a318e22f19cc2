"""The two facet enumerations that built hulls of arity >= 2 before the
upper-hull kernel.

Copied unchanged apart from the names.  ``reference_facets`` tries every
k-subset of the points and checks each candidate hyperplane against every
point, about m^(k+1) work for m points in Z^k; ``reference_complex_nd``
decides vertices by the ranks of the normals through each point.
``full_hull_facets`` is the beneath-beyond kernel that followed it: it
builds the whole hull (upper, lower and vertical facets) in ascending
order, and gives a flat set of points its one plane.  ``test_essential.py``
holds the kernel and ``classify_monomials`` to them, and
``closure_reference`` and ``corner_reference`` run ``full_hull_facets`` on
the lifted points and on their projections.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iter_product
from math import lcm
from typing import Dict, FrozenSet, List, Tuple

from tropc.essential import (ESSENTIAL, INESSENTIAL, QUASI, EssentialComplex,
                             _dot, _dots, _kept, _plane, _reduce)
from tropc.polynomial import TropicalPolynomial


def reference_facets(points: List[Tuple[int, ...]]) -> list:
    """Facets of the convex hull of integer points in Z^k.

    Each facet is (outward normal, offset, indices of the points on it),
    with normal . x <= offset at every point; points on one hyperplane give
    it once, oriented to a positive last component.  A k-subset spans a
    hyperplane when its rows (x, 1) are independent, and the maximal minors
    of those rows give its normal and offset.  The minors grow one row at a
    time along the tree of subsets, which prunes dependent prefixes;
    subsets inside a facet already found are skipped.
    """
    k = len(points[0])
    rows = [p + (1,) for p in points]
    found: Dict[FrozenSet[int], Tuple[Tuple[int, ...], int]] = {}

    def grow(start: int, chosen: Tuple[int, ...], minors: Dict[tuple, int]):
        t = len(chosen)
        cols = list(combinations(range(k + 1), t + 1))
        linear = []  # a minor with one more row r is linear in r
        for c in cols:
            coef = [0] * (k + 1)
            for a, j in enumerate(c):
                coef[j] = (-1) ** (t + a) * minors[c[:a] + c[a + 1:]]
            linear.append(coef)
        for i in range(start, len(rows) - k + t + 1):
            sub = chosen + (i,)
            if t + 1 == k and any(c.issuperset(sub) for c in found):
                continue
            more = [_dot(coef, rows[i]) for coef in linear]
            if not any(more):
                continue
            if t + 1 < k:
                grow(i + 1, sub, dict(zip(cols, more)))
            else:
                add(more)

    def add(minors: List[int]):
        # cofactors of the k rows; the minor without column j is at k - j
        normal = [(-1) ** j * minors[k - j] for j in range(k + 1)]
        side = (_dot(normal, r) for r in rows)
        if next((s for s in side if s), -normal[k - 1]) > 0:
            normal = [-a for a in normal]
        if any(_dot(normal, r) > 0 for r in rows):
            return
        found[frozenset(i for i, r in enumerate(rows)
                        if not _dot(normal, r))] = (tuple(normal[:k]),
                                                    -normal[k])

    grow(0, (), {(): 1})
    return [(n, b, c) for c, (n, b) in found.items()]


def full_hull_outward(points: List[Tuple[int, ...]], verts: tuple,
                      c: List[int]) -> tuple:
    """The plane n . x = b through the points at verts, as (n, b, verts),
    oriented so that n . c < b (d + 1) for c the integer centroid of a
    start simplex of Z^d (d + 1 times its mean)."""
    n, b = _plane([points[i] for i in verts])
    return (n, b, verts) if _dot(n, c) < b * (len(c) + 1) else \
        ([-a for a in n], -b, verts)


def full_hull_upward(points: List[Tuple[int, ...]], verts) -> tuple:
    """The one hyperplane through the points at verts, as (n, b, verts),
    oriented to a positive last component."""
    n, b = _plane([points[i] for i in verts])
    return (n, b, verts) if n[-1] >= 0 else ([-a for a in n], -b, verts)


def full_hull_facets(points: List[Tuple[int, ...]]) -> list:
    """Facets of the convex hull of integer points that span Z^d or one
    hyperplane of it, by beneath-beyond.

    Each facet is (outward normal, offset, indices of the points on it),
    with normal . x <= offset at every point; points on one hyperplane give
    it once, oriented to a positive last component (``full_hull_upward``).
    The hull starts from the first d + 1 affinely independent points; each
    later point p is tested once against every current simplex, and the
    simplices it sees strictly (n . p > b, so points on a facet's plane
    change nothing) are replaced by the cones from p over their horizon
    ridges, each oriented away from the start's centroid
    (``full_hull_outward``).  Simplices on one plane merge into one facet,
    whose contact set is read off all points.  The visibility and contact
    tests are ``_dots``.
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
        n, b, _ = full_hull_upward(points, start)
        planes = {(tuple(n), b)}
    else:
        c = [sum(col) for col in zip(*(points[i] for i in start))]
        hull = [full_hull_outward(points, tuple(start[:j] + start[j + 1:]), c)
                for j in range(d + 1)]
        normals = [n for n, _, _ in hull]
        for i in sorted(set(range(len(points))) - set(start)):
            over = [s > b for s, (_, b, _) in
                    zip(_dots(points[i], normals), hull)]
            if not any(over):
                continue
            once: Dict[tuple, bool] = {}
            for (_, _, verts), seen in zip(hull, over):
                if seen:
                    for j in range(d):
                        ridge = verts[:j] + verts[j + 1:]
                        once[ridge] = ridge not in once
            hull = [fc for fc, seen in zip(hull, over) if not seen] + [
                full_hull_outward(points, tuple(sorted(r + (i,))), c)
                for r, one in once.items() if one]
            normals = [n for n, _, _ in hull]
        planes = {(tuple(n), b) for n, b, _ in hull}
    return [(n, b, frozenset([i for i, s in enumerate(_dots(n, points))
                              if s == b])) for n, b in planes]


def reference_complex_nd(f: TropicalPolynomial) -> EssentialComplex:
    """Exponents go to pivot coordinates of their affine hull (dimension
    k), heights to integers over a common denominator.  A point is on the
    hull iff an upper facet touches it, a hull vertex iff the normals of the
    upper and Newton facets through it have rank k + 1, and a Newton vertex
    iff its Newton normals have rank k."""
    exps = sorted(f.terms)
    heights = [f.terms[e].value for e in exps]
    lifted = dict(zip(exps, heights))
    base = exps[0]
    affine = _kept([[a - b for a, b in zip(e, base)] for e in exps])[1]
    pivots = [c for c, _ in affine]
    k = len(pivots)
    xs = [tuple(e[c] for c in pivots) for e in exps]
    scale = lcm(*(h.denominator for h in heights))
    points = [x + (h.numerator * (scale // h.denominator),)
              for x, h in zip(xs, heights)]
    newton = reference_facets(xs) if k else []
    upper = [fc for fc in reference_facets(points) if fc[0][-1] > 0]

    classification = {}
    interior = []
    for i, e in enumerate(exps):
        walls = [n + (0,) for n, _, c in newton if i in c]
        roofs = [n for n, _, c in upper if i in c]
        if not roofs:
            classification[e] = INESSENTIAL
        elif len(_kept(roofs + walls)[1]) <= k:
            classification[e] = QUASI
        else:
            classification[e] = ESSENTIAL
            if len(_kept(walls)[1]) < k:
                interior.append(e)

    box = [range(min(e[c] for e in exps), max(e[c] for e in exps) + 1)
           for c in range(f.arity)]
    lattice = {}
    for v in iter_product(*box):
        if any(_reduce(affine, [a - b for a, b in zip(v, base)])):
            continue
        x = tuple(v[c] for c in pivots)
        if any(_dot(n, x) > b for n, b, _ in newton):
            continue
        # _dot stops at the end of x, before the height component
        lattice[v] = min(Fraction(b - _dot(n, x), n[-1] * scale)
                         for n, b, _ in upper)
    subdivision = None
    if f.arity == 2:
        subdivision = sorted(sorted(exps[i] for i in c) for _, _, c in upper)
    return EssentialComplex(f.arity, lifted, classification, lattice,
                            subdivision, interior)
