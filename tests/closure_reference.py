"""Reference closure path: the ``Fraction`` complex that full closures and
certified factorizations were read off before the hull handed closures
integer heights.

Copied unchanged apart from their names: the complex built one
``Fraction`` per term and per hull lattice point, ``_close`` turned them
back into integer rows with ``_integer_rows`` (an lcm, then a rescale of
every value), ``_chain`` built the terms of every closure it walked, and
``_factor_closed`` counted ``Fraction`` slopes and built each factor with
the public constructor.  ``_values`` was a method of the polynomial.  The
drivers below (``reference_full_closure`` ... ``reference_divides``) are
the old public functions on that path, ``reference_ideal_member`` the old
``ideal_member_syntactic``, which decided its last step through two
essential parts, and ``reference_residuation`` the old ``_residuation``,
which read ``terms`` and took ``Fraction`` slacks.  ``test_closures.py``
holds the library to them.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product as iter_product
from math import lcm
from operator import sub
from typing import Dict, List, Optional, Tuple

from tropc import (NEG_INFINITY, ArityMismatch, ArityUnsupported,
                   EmptyPolynomial, InternalInconsistency, MonomialInput,
                   NotTangibleFull, SlopeSequence, TropicalNumber,
                   TropicalPolynomial, equivalent, ghost, tangible)
from facets_reference import full_hull_facets as _facets
from tropc.essential import (ESSENTIAL, INESSENTIAL, QUASI, EssentialComplex,
                             _dot, _hull_1d, _kept, _lift, _reduce)
from tropc.ideals import IdealFG
from tropc.polynomial import Exponent, variable
from tropc.univariate import Factorization


def _values(f: TropicalPolynomial) -> Dict[Exponent, Fraction]:
    """The coefficient values by exponent, in row order."""
    den = f._den
    return {e: Fraction(s, den) for e, s, _ in f._rows}


def _integer_rows(items: List[Tuple[Exponent, Fraction, bool]]):
    """The least common denominator of the values in the items
    ``(exponent, value, ghost flag)`` and the rows over it."""
    den = lcm(*[v.denominator for _, v, _ in items])
    return den, [(e, v.numerator * (den // v.denominator), g)
                 for e, v, g in items]


def _complex_1d(f: TropicalPolynomial) -> EssentialComplex:
    points, scale, hull = _hull_1d(f)
    heights = dict(points)
    lifted = _values(f)
    classification = dict.fromkeys(lifted, INESSENTIAL)
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


def _complex_nd(f: TropicalPolynomial) -> EssentialComplex:
    exps, pivots, scale, points, _ = _lift(f)
    affine = _kept([list(map(sub, e, exps[0])) for e in exps[1:]])[1]
    values = _values(f)
    lifted = {e: values[e] for e in exps}
    k = len(pivots)
    newton = _facets([p[:-1] for p in points]) if k else []
    upper = [fc for fc in _facets(points) if fc[0][-1] > 0]

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

    box = [range(min(e[c] for e in exps), max(e[c] for e in exps) + 1)
           for c in range(f.arity)]
    lattice = {}
    for v in iter_product(*box):
        if k < f.arity and any(_reduce(affine, list(map(sub, v, exps[0])))):
            continue
        x = tuple(v[c] for c in pivots)
        if any(_dot(n, x) > b for n, b, _ in newton):
            continue
        t, w = None, 1
        for n, b, _ in upper:
            s = b - _dot(n, x)
            if t is None or s * w < t * n[-1]:
                t, w = s, n[-1]
        lattice[v] = Fraction(t, w * scale)
    subdivision = None
    if f.arity == 2:
        subdivision = sorted(sorted(exps[i] for i in c) for _, _, c in upper)
    return EssentialComplex(f.arity, lifted, classification, lattice,
                            subdivision, interior)


def reference_classify(f: TropicalPolynomial) -> EssentialComplex:
    if f.is_empty():
        raise EmptyPolynomial("no monomials to classify")
    return _complex_1d(f) if f.arity == 1 else _complex_nd(f)


def _close(f: TropicalPolynomial, cx: EssentialComplex) -> TropicalPolynomial:
    kind, lifted = cx.classification, cx.lifted_points
    items = [(e, lifted[e], g) for e, _, g in f._rows if kind[e] == ESSENTIAL]
    items += [(v, h, True) for v, h in cx.hull_lattice_points.items()
              if kind.get(v) != ESSENTIAL]
    return TropicalPolynomial._from_rows(f.arity, *_integer_rows(items))


def _closure_and_guard(f: TropicalPolynomial
                       ) -> Tuple[TropicalPolynomial, bool]:
    cx = reference_classify(f)
    tangible_full = not any(g for e, _, g in f._rows
                            if cx.classification[e] == ESSENTIAL)
    return _close(f, cx), tangible_full


def reference_full_closure(f: TropicalPolynomial) -> TropicalPolynomial:
    if f.is_empty():
        return f
    return _close(f, reference_classify(f))


def reference_red_mul(f: TropicalPolynomial, g: TropicalPolynomial
                      ) -> TropicalPolynomial:
    return reference_full_closure(f * g)


def reference_red_pow(f: TropicalPolynomial, k: int) -> TropicalPolynomial:
    return reference_full_closure(f ** k)


def _chain(closed: TropicalPolynomial) -> Tuple[int, list, list]:
    lo, hi = closed.degree_bounds()
    c = [closed.terms[(i,)] for i in range(lo, hi + 1)]
    return lo, c, [a.value - b.value for a, b in zip(c, c[1:])]


def reference_slope_sequence(f: TropicalPolynomial) -> SlopeSequence:
    if f.arity != 1:
        raise ArityUnsupported("slope sequences are univariate")
    if f.is_empty():
        raise EmptyPolynomial("no slopes for the empty polynomial")
    lo, c, slopes = _chain(reference_full_closure(f))
    if not slopes:
        raise MonomialInput("a single monomial has no slopes")
    if any(a > b for a, b in zip(slopes, slopes[1:])):
        raise InternalInconsistency("slopes of a full closure ascend")
    edges = [((lo + k + 1, c[k + 1].value), (lo + k, c[k].value))
             for k in range(len(slopes))]
    return SlopeSequence(slopes[::-1], edges[::-1])


def reference_divides(f: TropicalPolynomial, g: TropicalPolynomial
                      ) -> Optional[TropicalPolynomial]:
    if f.arity != 1 or g.arity != 1:
        raise ArityUnsupported("divisibility testing is univariate")
    if f.is_empty() or g.is_empty():
        raise EmptyPolynomial("divisibility with an empty polynomial")
    lo_f, cf, sf = _chain(closed_f := reference_full_closure(f))
    lo_g, cg, sg = _chain(reference_full_closure(g))
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
    quotient = TropicalPolynomial(1, {
        (lo_f - lo_g + u,): (tangible if tags.get(u) else ghost)(v)
        for u, v in enumerate(values)})
    if reference_red_mul(quotient, g) != closed_f:
        raise InternalInconsistency("the forced quotient does not reproduce f")
    return quotient


def _linear(a: TropicalNumber) -> TropicalPolynomial:
    """The polynomial x + a (a may be ghost or -inf, giving bare x)."""
    terms = {(1,): tangible(0)}
    if not a.is_neg_inf():
        terms[(0,)] = a
    return TropicalPolynomial(1, terms)


def _ghost_variable_linear(b: Fraction) -> TropicalPolynomial:
    """The polynomial with a ghost variable term: 0^nu x + b."""
    return TropicalPolynomial(1, {(1,): ghost(0), (0,): tangible(b)})


def _factor_closed(closed: TropicalPolynomial) -> Factorization:
    lo, c, slopes = _chain(closed)
    marks = [i for i, a in enumerate(c) if a.is_tangible()]
    top, bottom = (marks[-1], marks[0]) if marks else (0, 0)
    # the edges above position p are slopes[p:] and those below it slopes[:p]
    above = sorted(slopes[top:])
    below = sorted(slopes[:bottom], reverse=True)
    plain = Counter(above[1:] + below[1:])
    quads = Counter()
    for s1, s2 in zip(marks, marks[1:]):
        i, j = s1, s2 - 1
        while i < j and slopes[i] != slopes[j]:
            quads[slopes[i], slopes[j]] += 1
            i, j = i + 1, j - 1
        plain.update(slopes[i:j + 1])
    factors: List[Tuple[TropicalPolynomial, int]] = []
    if lo > 0:
        factors.append((variable(0, 1), lo))
    factors.extend((_linear(tangible(a)), m)
                   for a, m in sorted(plain.items(), reverse=True))
    if above:
        factors.append((_ghost_variable_linear(above[0]), 1))
    if below:
        factors.append((_linear(ghost(below[0])), 1))
    factors.extend(
        (TropicalPolynomial(1, {(2,): tangible(0), (1,): ghost(b),
                                (0,): tangible(a + b)}), m)
        for (a, b), m in sorted(quads.items(),
                                key=lambda q: (-sum(q[0]), q[0][1])))
    unit = (tangible if marks else ghost)(c[-1].value)
    result = Factorization(unit, factors, False)
    if result._product() != closed:
        raise InternalInconsistency("expansion does not reproduce the input")
    result.certified = True
    return result


def reference_factor_full(f: TropicalPolynomial) -> Factorization:
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    return _factor_closed(reference_full_closure(f))


def reference_factor_tangible_full(f: TropicalPolynomial) -> Factorization:
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    closed, tangible_full = _closure_and_guard(f)
    if not tangible_full:
        raise NotTangibleFull("ghost vertex present")
    return _factor_closed(closed)


def reference_roots_with_multiplicity(f: TropicalPolynomial
                                      ) -> List[Tuple[TropicalNumber, int]]:
    fact = reference_factor_tangible_full(f)
    roots: List[Tuple[TropicalNumber, int]] = []
    for p, mult in fact.factors:
        const = p.terms.get((0,), NEG_INFINITY)
        roots.append((const, mult))
    roots.sort(key=lambda t: t[0]._key(), reverse=True)
    return roots


def reference_ideal_member(f: TropicalPolynomial, ideal: IdealFG) -> bool:
    if f.arity != ideal.arity:
        raise ArityMismatch("arity of member candidate differs")
    if f.is_empty():
        return True
    if not ideal.generators:
        return False
    f_closed = reference_full_closure(f)
    if f_closed in ideal.generators:  # full closures are canonical
        return True
    combo = None
    for g in ideal.generators:
        h = reference_residuation(f_closed, g)
        if h is None:
            continue
        part = h * g
        combo = part if combo is None else combo + part
    if combo is None or combo.is_empty():
        return False
    return equivalent(combo, f_closed)


def reference_residuation(f: TropicalPolynomial, g: TropicalPolynomial
                          ) -> Optional[TropicalPolynomial]:
    """Largest tangible h with the projection of h*g below that of f."""
    if f.is_empty() or g.is_empty():
        return None
    fdeg = [max(e[k] for e in f.terms) for k in range(f.arity)]
    gdeg = [max(e[k] for e in g.terms) for k in range(g.arity)]
    box = [range(0, fd - gd + 1) for fd, gd in zip(fdeg, gdeg)]
    if any(fd < gd for fd, gd in zip(fdeg, gdeg)):
        return None
    terms = {}
    for e in iter_product(*box):
        best: Optional[Fraction] = None
        ok = True
        for d, cg in g.terms.items():
            target = tuple(a + b for a, b in zip(e, d))
            cf = f.terms.get(target, NEG_INFINITY)
            if cf.is_neg_inf():
                ok = False
                break
            slack = cf.value - cg.value
            if best is None or slack < best:
                best = slack
        if ok and best is not None:
            terms[e] = tangible(best)
    if not terms:
        return None
    return TropicalPolynomial(f.arity, terms)
