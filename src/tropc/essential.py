"""Essential parts, full closures and the reduced polynomial semiring.

A term is essential when its lifted Newton point (exponent, projected
coefficient) is a vertex of the upper convex hull of all lifted points;
quasi-essential when it lies on the hull without being a vertex; and
inessential when it lies strictly below.  The essential part is a canonical
representative of functional equivalence, and the full closure adds every
hull lattice point as a ghost term.  Full closure maps the polynomial
semiring homomorphically onto the reduced one, so a reduced sum, product
or power is the raw result closed once.

Every hull runs on integers: the heights are scaled over their common
denominator.  Univariate hulls come from one upper-hull sweep whose edges
are walked once; higher arities read every hull fact off the exact facets
of the Newton polytope and of the lifted points.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product as iter_product
from math import gcd, lcm
from operator import mul, sub
from typing import Dict, FrozenSet, List, Optional, Tuple

from .core import ghost, tangible
from .errors import (ArityMismatch, ArityUnsupported, EmptyPolynomial,
                     InternalInconsistency, MonomialInput)
from .polynomial import Exponent, TropicalPolynomial

ESSENTIAL = "essential"
QUASI = "quasi-essential"
INESSENTIAL = "inessential"


@dataclass(frozen=True)
class EssentialComplex:
    arity: int
    lifted_points: Dict[Exponent, Fraction]
    classification: Dict[Exponent, str]
    hull_lattice_points: Dict[Exponent, Fraction]
    subdivision: Optional[List[List[Exponent]]]
    interior_vertices: List[Exponent]


# ---------------------------------------------------------------------------
# univariate hull: one integer sweep


def _hull_1d(f: TropicalPolynomial
             ) -> Tuple[List[Tuple[int, int]], int, List[Tuple[int, int]]]:
    """Lifted points ``(exponent, height * scale)`` in ascending order, the
    scale (the common denominator of the heights) and the vertices of the
    points' upper hull.  A middle point is dropped unless it makes a strict
    right turn, so collinear points are not vertices."""
    scale = lcm(*(c.value.denominator for c in f.terms.values()))
    points = sorted((e[0], c.value.numerator * (scale // c.value.denominator))
                    for e, c in f.terms.items())
    hull: List[Tuple[int, int]] = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return points, scale, hull


def _complex_1d(f: TropicalPolynomial) -> EssentialComplex:
    """Each hull edge ``(x1, y1)-(x2, y2)`` of width w is walked once.  Over
    a lattice x on it the hull height times ``w * scale`` is the integer
    ``y1 * w + (y2 - y1) * (x - x1)``: the ends of the edge are essential
    terms, a term that ties it is quasi-essential, any other inessential."""
    points, scale, hull = _hull_1d(f)
    heights = dict(points)
    lifted = {e: c.value for e, c in f.terms.items()}
    classification = dict.fromkeys(f.terms, INESSENTIAL)
    first = (hull[0][0],)
    classification[first] = ESSENTIAL
    lattice = {first: lifted[first]}
    cells: List[List[Exponent]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        w = x2 - x1
        cell = [(x1,)]
        for x in range(x1 + 1, x2):
            t = y1 * w + (y2 - y1) * (x - x1)
            lattice[(x,)] = Fraction(t, w * scale)
            y = heights.get(x)
            if y is not None and y * w == t:
                classification[(x,)] = QUASI
                cell.append((x,))
        end = (x2,)
        classification[end] = ESSENTIAL
        lattice[end] = lifted[end]
        cell.append(end)
        cells.append(cell)
    interior = [(x,) for x, _ in hull[1:-1]]
    return EssentialComplex(1, lifted, classification, lattice, cells, interior)


# ---------------------------------------------------------------------------
# multivariate hull: facet enumeration on integer points


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


def _facets(points: List[Tuple[int, ...]]) -> list:
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


def _complex_nd(f: TropicalPolynomial) -> EssentialComplex:
    """Exponents go to pivot coordinates of their affine hull (dimension
    k), heights to integers over a common denominator.  A point is on the
    hull iff an upper facet touches it, a hull vertex iff the normals of the
    upper and Newton facets through it have rank k + 1, and a Newton vertex
    iff its Newton normals have rank k."""
    exps = sorted(f.terms)
    heights = [f.terms[e].value for e in exps]
    lifted = dict(zip(exps, heights))
    base = exps[0]
    affine = _echelon([[a - b for a, b in zip(e, base)] for e in exps])
    pivots = [c for c, _ in affine]
    k = len(pivots)
    xs = [tuple(e[c] for c in pivots) for e in exps]
    scale = lcm(*(h.denominator for h in heights))
    points = [x + (h.numerator * (scale // h.denominator),)
              for x, h in zip(xs, heights)]
    newton = _facets(xs) if k else []
    upper = [fc for fc in _facets(points) if fc[0][-1] > 0]

    classification = {}
    interior = []
    for i, e in enumerate(exps):
        walls = [n + (0,) for n, _, c in newton if i in c]
        roofs = [n for n, _, c in upper if i in c]
        if not roofs:
            classification[e] = INESSENTIAL
        elif len(_echelon(roofs + walls)) <= k:
            classification[e] = QUASI
        else:
            classification[e] = ESSENTIAL
            if len(_echelon(walls)) < k:
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


# ---------------------------------------------------------------------------
# public interface


def classify_monomials(f: TropicalPolynomial,
                       with_subdivision: bool = False) -> EssentialComplex:
    """The hull complex of f.  The subdivision is given for arities 1 and
    2; ``with_subdivision`` changes nothing."""
    if f.is_empty():
        raise EmptyPolynomial("no monomials to classify")
    return _complex_1d(f) if f.arity == 1 else _complex_nd(f)


def essential_part(f: TropicalPolynomial) -> TropicalPolynomial:
    if f.is_empty():
        return f
    cx = classify_monomials(f)
    return TropicalPolynomial._canonical(
        f.arity, {e: c for e, c in f.terms.items()
                  if cx.classification[e] == ESSENTIAL})


def _close(f: TropicalPolynomial, cx: EssentialComplex) -> TropicalPolynomial:
    """The full closure of f read off its hull complex."""
    terms = {e: c for e, c in f.terms.items()
             if cx.classification[e] == ESSENTIAL}
    for v, h in cx.hull_lattice_points.items():
        if v not in terms:
            terms[v] = ghost(h)
    return TropicalPolynomial._canonical(f.arity, terms)


def _closure_and_guard(f: TropicalPolynomial
                       ) -> Tuple[TropicalPolynomial, bool]:
    """The full closure of a nonempty f and whether its essential part is
    tangible, from one hull."""
    cx = classify_monomials(f)
    tangible_full = all(c.is_tangible() for e, c in f.terms.items()
                        if cx.classification[e] == ESSENTIAL)
    return _close(f, cx), tangible_full


def full_closure(f: TropicalPolynomial) -> TropicalPolynomial:
    """Essential part plus a ghost term at every other hull lattice point."""
    if f.is_empty():
        return f
    return _close(f, classify_monomials(f))


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
    return full_closure(f ** k)


# ---------------------------------------------------------------------------
# slope sequences and division


def _chain(closed: TropicalPolynomial) -> Tuple[int, list, list]:
    """The lowest exponent lo of a full univariate closure, its coefficients
    from lo to hi and its top-down slopes: slopes[k] = c[k] - c[k + 1] is
    the edge from position k + 1 down to k, and the slopes ascend."""
    lo, hi = closed.degree_bounds()
    c = [closed.terms[(i,)] for i in range(lo, hi + 1)]
    return lo, c, [a.value - b.value for a, b in zip(c, c[1:])]


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
    lo, c, slopes = _chain(full_closure(f))
    if not slopes:
        raise MonomialInput("a single monomial has no slopes")
    if any(a > b for a, b in zip(slopes, slopes[1:])):
        raise InternalInconsistency("slopes of a full closure ascend")
    edges = [((lo + k + 1, c[k + 1].value), (lo + k, c[k].value))
             for k in range(len(slopes))]
    return SlopeSequence(slopes[::-1], edges[::-1])


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
    other term of q is ghost.
    """
    if f.arity != 1 or g.arity != 1:
        raise ArityUnsupported("divisibility testing is univariate")
    if f.is_empty() or g.is_empty():
        raise EmptyPolynomial("divisibility with an empty polynomial")
    lo_f, cf, sf = _chain(closed_f := full_closure(f))
    lo_g, cg, sg = _chain(full_closure(g))
    if lo_f < lo_g or Counter(sg) - Counter(sf):
        return None
    sq = sorted((Counter(sf) - Counter(sg)).elements())
    tags: Dict[int, bool] = {}
    for p, a in enumerate(cf):
        if 0 < p < len(sf) and sf[p - 1] == sf[p]:
            continue  # not a vertex of F
        u = bisect_left(sq, sf[p]) if p < len(sf) else len(sq)
        tag = a.is_tangible()  # the tag of F(p) = q(u) G(p - u)
        forced = tags.setdefault(u, tag) if cg[p - u].is_tangible() else False
        if forced != tag:
            return None
    values = accumulate(sq, sub, initial=cf[0].value - cg[0].value)
    quotient = TropicalPolynomial._canonical(1, {
        (lo_f - lo_g + u,): (tangible if tags.get(u) else ghost)(v)
        for u, v in enumerate(values)})
    if red_mul(quotient, g) != closed_f:
        raise InternalInconsistency("the forced quotient does not reproduce f")
    return quotient
