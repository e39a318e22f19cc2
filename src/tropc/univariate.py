"""Constructive roots and certified factorization of univariate polynomials.

A full closure has a term at every position between its lowest and highest
degree and top-down slopes c[i-1] - c[i]; each tangible term is a vertex,
each other term is ghost, and a vertex may be ghost.  Factorization reads
the canonical factors off those slopes in one walk, certified by
multiplying the factors back, without closing, and comparing with the full
closure of the input; a mismatch raises InternalInconsistency.  The walk
stays on the closure's integer rows: its slopes are integers over the
closure's den, each factor is born as rows over that den, and only the
unit and the roots, read off the factors' constant rows, become
``Fraction``s.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import TropicalNumber, ghost, tangible
from .errors import (ArityMismatch, ArityUnsupported,
                     ConstantTangibleAmongInputs, ConstantTangibleInput,
                     EmptyPolynomial, InternalInconsistency, NotTangibleFull)
from .essential import _chain, _close_1d, full_closure
from .polynomial import TropicalPolynomial, constant


@dataclass
class Factorization:
    unit: TropicalNumber
    factors: List[Tuple[TropicalPolynomial, int]]
    certified: bool

    def expand(self) -> TropicalPolynomial:
        """The unit times every factor power, closed once at the end."""
        return full_closure(self._product())

    def _product(self) -> TropicalPolynomial:
        """The unit times every factor power, not closed."""
        arity = self.factors[0][0].arity if self.factors else 1
        out = constant(self.unit, arity)
        for p, mult in self.factors:
            out = out * p ** mult
        return out


def _factor(den: int, *terms) -> TropicalPolynomial:
    """The factor with the terms (degree, value times den, ghost flag)."""
    return TropicalPolynomial._from_rows(1, den, [((e,), s, g)
                                                  for e, s, g in terms])


# ---------------------------------------------------------------------------
# roots


def find_root(f: TropicalPolynomial) -> Tuple[TropicalNumber, ...]:
    """A constructive root; tangible constants have none."""
    if f.is_empty():
        return (tangible(0),) * f.arity
    if f.is_constant():
        c = f.constant_value()
        if c.is_tangible():
            raise ConstantTangibleInput("a tangible constant never vanishes")
        return (tangible(0),) * f.arity
    if f.is_ghost_poly():
        return (tangible(0),) * f.arity

    # pick a variable that actually occurs and pin the others to 0
    var = next(i for i in range(f.arity)
               if any(e[i] for e, _, _ in f._rows))
    fixed = {i: tangible(0) for i in range(f.arity) if i != var}
    t = _threshold(f.substitute(fixed))
    # without a tangible constant every monomial left ghosts at ghost(0);
    # at the threshold the constant ties the first monomial to reach it
    r = ghost(0) if t is None else tangible(t)
    point = tuple(r if i == var else tangible(0) for i in range(f.arity))
    if not f.is_root(point):
        raise InternalInconsistency("constructed point is not a root")
    return point


def _threshold(f: TropicalPolynomial) -> Optional[Fraction]:
    """The least t at which a non-constant monomial of f reaches the
    constant along the diagonal (t, ..., t), or None unless the constant
    is tangible.  f must have a non-constant term.  Read off the rows, so
    the terms of a closure are not built."""
    c = next((s for e, s, g in f._rows if not g and not any(e)), None)
    if c is None:
        return None
    return min(Fraction(c - s, sum(e) * f._den) for e, s, _ in f._rows
               if any(e))


def common_root(fs: Sequence[TropicalPolynomial]
                ) -> Tuple[TropicalNumber, ...]:
    """A simultaneous root of the given polynomials.

    Each polynomial contributes a threshold above which it is ghost along
    the all-ghost diagonal; the answer is the diagonal point at the largest
    threshold.  A tangible constant among the inputs is an error.
    """
    if not fs:
        raise ValueError("no polynomials given")
    arity = fs[0].arity
    bound: Optional[Fraction] = None
    saw_nonconstant = False
    for f in fs:
        if f.arity != arity:
            raise ArityMismatch("mixed arities have no common point")
        if f.is_empty():
            continue
        if f.is_constant():
            if f.constant_value().is_tangible():
                raise ConstantTangibleAmongInputs(
                    "a tangible constant never vanishes")
            continue
        saw_nonconstant = True
        need = _threshold(f)
        if need is not None:  # else already ghost at every ghost point
            bound = need if bound is None else max(bound, need)
    if bound is None and not saw_nonconstant:
        point = (tangible(0),) * arity
    else:
        point = (ghost(bound if bound is not None else Fraction(0)),) * arity
    for f in fs:
        if not f.is_root(point):
            raise InternalInconsistency("constructed point is not common")
    return point


# ---------------------------------------------------------------------------
# factorization


def factor_tangible_full(f: TropicalPolynomial) -> Factorization:
    """Factor a tangible-full polynomial into tangible linear factors.

    A tangible-full polynomial has no ghost vertex, so its canonical
    factorization (``factor_full``) has only tangible linear factors and
    powers of x.
    """
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    closed, tangible_full = _close_1d(f)
    if not tangible_full:
        raise NotTangibleFull("ghost vertex present")
    return _factor_closed(closed)


def factor_full(f: TropicalPolynomial) -> Factorization:
    """Canonical certified factorization of a full univariate polynomial.

    One walk over the top-down slopes of the full closure: x^lo when lo > 0;
    the slopes above the top tangible term give one 0^nu x + b with the
    minimal b and a tangible x + b for each other; the slopes below the
    bottom tangible term give one x + b^nu with the maximal b and a tangible
    x + b for each other; each block between consecutive tangible terms
    peels x^2 + s1^nu x + (s1 + st) off its outer slopes while they differ
    and ends in one x + s per slope left.  The unit is the leading value,
    ghost when the closure has no tangible term.  Equal factors come
    merged, in the order x^lo; x + a by descending a; 0^nu x + b;
    x + b^nu; x^2 + b^nu x + (a + b) by descending a + b, then ascending b.
    """
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    return _factor_closed(full_closure(f))


def _factor_closed(closed: TropicalPolynomial) -> Factorization:
    """``factor_full`` of a polynomial that is already fully closed.

    Every position from lo to hi is present; every tangible one is a vertex,
    but a vertex may be ghost.  The walk reads the tangible marks, counts
    the tangible linear slopes and the quadratic slope pairs, and lists the
    counts in the order of ``factor_full``.  The unclosed product of the
    factors must equal ``closed``, which certifies that its closure does too.
    """
    lo, den, c, ghosts, slopes = _chain(closed)
    marks = [i for i, g in enumerate(ghosts) if not g]
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
        factors.append((_factor(den, (1, 0, False)), lo))
    factors.extend((_factor(den, (1, 0, False), (0, a, False)), m)
                   for a, m in sorted(plain.items(), reverse=True))
    if above:
        factors.append((_factor(den, (1, 0, True), (0, above[0], False)), 1))
    if below:
        factors.append((_factor(den, (1, 0, False), (0, below[0], True)), 1))
    factors.extend(
        (_factor(den, (2, 0, False), (1, b, True), (0, a + b, False)), m)
        for (a, b), m in sorted(quads.items(),
                                key=lambda q: (-sum(q[0]), q[0][1])))
    unit = (tangible if marks else ghost)(Fraction(c[-1], den))
    result = Factorization(unit, factors, False)
    if result._product() != closed:
        raise InternalInconsistency("expansion does not reproduce the input")
    result.certified = True
    return result


def roots_with_multiplicity(f: TropicalPolynomial
                            ) -> List[Tuple[TropicalNumber, int]]:
    """Roots of a tangible-full polynomial with multiplicities, descending."""
    roots = [(p.constant_value(), mult)
             for p, mult in factor_tangible_full(f).factors]
    roots.sort(key=lambda t: t[0]._key(), reverse=True)
    return roots
