"""Reference hull path for the differential test: the exact-LP route that
computed essential complexes of arity >= 2 before the integer facet kernel.

The functions below are kept as they were, on top of the two-phase simplex
in ``tropc._lp``; ``reference_complex`` stands in for the old
``classify_monomials(f, with_subdivision=True)`` without its cache.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import product as iter_product
from typing import List, Optional

from hull1d_reference import _interp, _upper_hull_vertices_1d
from tropc._lp import lp_feasible, lp_max
from tropc.essential import ESSENTIAL, INESSENTIAL, QUASI, EssentialComplex
from tropc.polynomial import Exponent, TropicalPolynomial


def reference_complex(f: TropicalPolynomial) -> EssentialComplex:
    cx = _complex_nd(f)
    if f.arity == 2:
        exps = sorted(f.terms)
        heights = [f.terms[e].value for e in exps]
        cx = dataclasses.replace(cx, subdivision=_subdivision_2d(exps, heights))
    return cx


# ---------------------------------------------------------------------------
# multivariate hull via exact LP


def _hull_height_lp(exps: List[Exponent], heights: List[Fraction],
                    v: Exponent) -> Optional[Fraction]:
    n = len(v)
    A = [[Fraction(1)] * len(exps)]
    b = [Fraction(1)]
    for k in range(n):
        A.append([Fraction(e[k]) for e in exps])
        b.append(Fraction(v[k]))
    return lp_max(A, b, heights)


def _is_quasi_lp(exps, heights, j) -> bool:
    """Can the lifted point j be weakly dominated by the others?"""
    others = [i for i in range(len(exps)) if i != j]
    n = len(exps[j])
    cols = len(others) + 1  # convex weights plus a slack
    A = [[Fraction(1)] * (cols - 1) + [Fraction(0)]]
    b = [Fraction(1)]
    for k in range(n):
        A.append([Fraction(exps[i][k]) for i in others] + [Fraction(0)])
        b.append(Fraction(exps[j][k]))
    A.append([heights[i] for i in others] + [Fraction(-1)])
    b.append(heights[j])
    return lp_feasible(A, b)


def _complex_nd(f: TropicalPolynomial) -> EssentialComplex:
    exps = sorted(f.terms)
    heights = [f.terms[e].value for e in exps]
    lifted = dict(zip(exps, heights))
    classification = {}
    for j, e in enumerate(exps):
        h = _hull_height_lp(exps, heights, e)
        if h > heights[j]:
            classification[e] = INESSENTIAL
        elif _is_quasi_lp(exps, heights, j):
            classification[e] = QUASI
        else:
            classification[e] = ESSENTIAL
    lo = f.lower_degree()
    hi = f.total_degree()
    box = [range(min(e[k] for e in exps), max(e[k] for e in exps) + 1)
           for k in range(f.arity)]
    lattice = {}
    for v in iter_product(*box):
        if not lo <= sum(v) <= hi:
            continue
        h = _hull_height_lp(exps, heights, v)
        if h is not None:
            lattice[v] = h
    interior = [e for e, cls in classification.items()
                if cls == ESSENTIAL and not _newton_vertex(exps, e)]
    return EssentialComplex(f.arity, lifted, classification, lattice,
                            None, interior)


def _newton_vertex(exps: List[Exponent], e: Exponent) -> bool:
    """Is e a vertex of the Newton polytope (convex hull of all exponents)?"""
    others = [x for x in exps if x != e]
    if not others:
        return True
    n = len(e)
    A = [[Fraction(1)] * len(others)]
    b = [Fraction(1)]
    for k in range(n):
        A.append([Fraction(x[k]) for x in others])
        b.append(Fraction(e[k]))
    return not lp_feasible(A, b)


def _subdivision_2d(exps: List[Exponent], heights: List[Fraction]
                    ) -> List[List[Exponent]]:
    """Top-dimensional cells of the subdivision dual to the upper hull."""
    m = len(exps)
    if m < 2:
        return [list(exps)]

    def cross(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    collinear = all(cross(exps[0], exps[1], exps[k]) == 0 for k in range(2, m))
    if m == 2 or collinear:
        # support lies on a line: parametrize and reuse the 1d sweep
        dx = [e - b for e, b in zip(max(exps), min(exps))]
        from math import gcd
        g = gcd(abs(dx[0]), abs(dx[1])) or 1
        d = (dx[0] // g, dx[1] // g)
        base = min(exps)

        def param(e):
            return (e[0] - base[0]) * d[0] + (e[1] - base[1]) * d[1]

        pts = sorted((Fraction(param(e)), h) for e, h in zip(exps, heights))
        hull = _upper_hull_vertices_1d(pts)
        cells = []
        by_param = {param(e): e for e in exps}
        for (x1, _), (x2, _) in zip(hull, hull[1:]):
            cell = [by_param[t] for t in sorted(by_param)
                    if x1 <= t <= x2 and Fraction(heights[exps.index(by_param[t])])
                    == _interp(hull, Fraction(t))]
            cells.append(cell)
        return cells if cells else [list(exps)]

    found = {}
    for a in range(m):
        for b_ in range(a + 1, m):
            for c_ in range(b_ + 1, m):
                p, q, r = exps[a], exps[b_], exps[c_]
                det = cross(p, q, r)
                if det == 0:
                    continue
                # plane z = c1 x + c2 y + d through the three lifted points
                hp, hq, hr = heights[a], heights[b_], heights[c_]
                c1 = ((hq - hp) * (r[1] - p[1]) - (hr - hp) * (q[1] - p[1]))
                c1 = Fraction(c1, det)
                c2 = ((hr - hp) * (q[0] - p[0]) - (hq - hp) * (r[0] - p[0]))
                c2 = Fraction(c2, det)
                d = hp - c1 * p[0] - c2 * p[1]
                ok = True
                eq = []
                for k in range(m):
                    val = c1 * exps[k][0] + c2 * exps[k][1] + d
                    if val < heights[k]:
                        ok = False
                        break
                    if val == heights[k]:
                        eq.append(exps[k])
                if ok:
                    key = frozenset(eq)
                    found[key] = sorted(eq)
    maximal = [cell for key, cell in found.items()
               if not any(key < other for other in found)]
    maximal.sort()
    return maximal

