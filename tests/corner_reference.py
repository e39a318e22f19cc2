"""Reference plane corner locus: the ``Fraction`` clip that
``corner_locus_2d`` ran before it clipped on integers.

Copied unchanged apart from their names: every dual vertex was a pair of
``Fraction``s, every tie direction too, and ``reference_box_range`` took
the clip parameter t as a ``Fraction`` against ``Fraction`` box sides.
``test_sets.py`` holds the integer clip to it, values and types of every
output coordinate included.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Tuple

from tropc import CornerLocus2D, TropicalPolynomial
from tropc.errors import ArityUnsupported
from facets_reference import full_hull_facets as _facets
from tropc.essential import _lift
from tropc.polynomial import _sort_key


def reference_box_range(p0, d, lo, hi, box):
    """The range of t in [lo, hi] (None is unbounded) with p0 + t d in
    box = ((xmin, xmax), (ymin, ymax)); None when the line misses it."""
    for p, dc, (a, b) in zip(p0, d, box):
        if dc:
            a, b = (a, b) if dc > 0 else (b, a)
            lo = (a - p) / dc if lo is None else max(lo, (a - p) / dc)
            hi = (b - p) / dc if hi is None else min(hi, (b - p) / dc)
        elif not a <= p <= b:
            return None
    return lo, hi


def reference_corner_locus_2d(f: TropicalPolynomial,
                    bbox: Tuple[Fraction, Fraction, Fraction, Fraction]
                    ) -> CornerLocus2D:
    """Tie loci of the projected affine forms in the plane, clipped to bbox.

    Each locus is the set where two monomials attain the maximum together;
    output segments carry exact rational endpoints and the pair of tying
    monomial indices, and each unbounded end of a locus gives a ray from
    the box.  Regions where a ghost monomial alone dominates are roots too
    but are not drawn.  A polynomial vanishing identically on the plane
    (all coefficients ghost, or no terms) sets whole_plane instead.

    Two terms tie on more than a point iff they share an edge of the upper
    hull of the lifted points: from the dual vertex (n_x, n_y) / (n_H s) of
    a cell n . (x, H) = b (heights times s) along the edge's outward normal,
    to the other cell's vertex or on as a ray; along a whole line when the
    support is collinear and the cells are edges.
    """
    if f.arity != 2:
        raise ArityUnsupported("corner loci are planar")
    if f.is_empty() or f.is_ghost_poly():
        return CornerLocus2D(True, [], [])
    box = [(Fraction(bbox[c]), Fraction(bbox[c + 2])) for c in (0, 1)]
    exps, pivots, scale, points, _ = _lift(f)
    # upper edge -> [(dual vertex, outward normal or None) of each cell]
    ends: Dict[FrozenSet[int], list] = {}
    for n, _, on in _facets(points) if pivots else ():
        if n[-1] <= 0:
            continue
        v, cell = [Fraction(0)] * 2, sorted(on)
        for c, a in zip(pivots, n):
            v[c] = Fraction(a, n[-1] * scale)
        if len(pivots) == 1:  # a collinear support: the cell is an edge
            ends[on] = [(v, None)]
            continue
        for w, _, edge in _facets([points[i][:-1] for i in cell]):
            ends.setdefault(frozenset(cell[i] for i in edge), []).append((v, w))
    terms = sorted(exps, key=_sort_key, reverse=True)
    rank = {e: r for r, e in enumerate(terms)}
    ties = {tuple(sorted((rank[exps[i]], rank[exps[j]]))): cells
            for on, cells in ends.items() for i, j in combinations(on, 2)}
    segments, rays = [], []
    for (i, j), ((v, w), *other) in sorted(ties.items()):
        ei, ej = terms[i], terms[j]
        d = (Fraction(ej[1] - ei[1]), Fraction(ei[0] - ej[0]))
        if w is None:
            lo = hi = None
        elif other:
            c = 0 if d[0] else 1
            t = (other[0][0][c] - v[c]) / d[c]
            lo, hi = (0, t) if t > 0 else (t, 0)
        else:  # a ray along the outward normal w
            up = sum(a * d[c] for c, a in zip(pivots, w)) > 0
            lo, hi = (0, None) if up else (None, 0)
        clipped = reference_box_range(v, d, lo, hi, box)
        if clipped is None or clipped[0] > clipped[1]:
            continue
        # the visible part is a segment, and each unbounded end a ray
        a, b = ((v[0] + t * d[0], v[1] + t * d[1]) for t in clipped)
        entry = {"indices": [list(ei), list(ej)]}
        if a != b:
            segments.append({**entry, "from": a, "to": b})
        if lo is None:
            rays.append({**entry, "from": a, "dir": (-d[0], -d[1])})
        if hi is None:
            rays.append({**entry, "from": b, "dir": d})
    return CornerLocus2D(False, segments, rays)
