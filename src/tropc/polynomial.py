"""Sparse tropical polynomials over the extended semiring.

A polynomial keeps one integer form: a denominator ``den``, the least
common denominator of the values, and rows ``(exponent, value * den, ghost
flag)``, one per exponent and none for ``-inf``; so polynomials are equal
exactly when their read-only arities, dens and row sets are.  Every kernel
reads and writes that form, and so do the hulls in ``essential``.
Products, sums and substitution merge rows with ``_merge``: the sum in the
semiring is the maximum, ghost on a tie, associative and commutative, so a
sum of any number of polynomials (``_sum``; ``+`` is its case of two) is one
merge of all their rows over the lcm of their dens (``_over``).  A power
f ** k is multiplied out one factor at a time, each step pairing the rows of
f^i with f's; a monomial's power is one row.  ``evaluate`` and ``is_root``
read the point once and take the maximum over the rows in one pass
(``_top``), so ``is_root`` builds no value.  At one, two and three variables
evaluation and products write out their row loops, unpacking each exponent,
so a row makes no builtin call (no dot product, no
``tuple(map(add, ...))``); other arities keep the general loops.

The rows are the only source of truth.  The public constructor validates
its terms and builds the rows from them; a kernel's output, decompositions
included, is born as rows and reduced to the least den by ``_from_rows``.
``terms``, the coefficients keyed by exponent tuples, is a read-only cache
of the rows for callers (nothing inside the library reads it but printing
and pickling): built on first read, or kept from the constructor's checked
terms, so it never disagrees.

The empty polynomial (the constant -inf) is allowed; degree markers are
undefined for it.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import (NEG_INFINITY, TAG_GHOST, TAG_NEG_INF, TAG_TANGIBLE,
                   TropicalNumber, tangible, trop_add)
from .errors import ArityMismatch, EmptyPolynomial

Exponent = Tuple[int, ...]
Row = Tuple[Exponent, int, bool]


def _den_of(numbers: Iterable[TropicalNumber]) -> int:
    """Least common denominator of the values (``-inf`` carries none)."""
    return lcm(*[c.value.denominator for c in numbers
                 if c.tag != TAG_NEG_INF])


def _number(s: int, den: int, ghost: bool) -> TropicalNumber:
    """The public value of the row value ``s`` over ``den``."""
    return TropicalNumber(TAG_GHOST if ghost else TAG_TANGIBLE,
                          Fraction(s, den))


def _rescale(rows: List[Row], m: int) -> List[Row]:
    return rows if m == 1 else [(e, s * m, g) for e, s, g in rows]


def _over(polys: Sequence["TropicalPolynomial"]
          ) -> Tuple[int, List[List[Row]]]:
    """The lcm of the polynomials' dens and each one's rows over it."""
    den = lcm(*[p._den for p in polys])
    return den, [_rescale(p._rows, den // p._den) for p in polys]


def _merge(arity: int, den: int, rows: Iterable[Row]
           ) -> "TropicalPolynomial":
    """The polynomial summing rows per exponent in the semiring.

    The sum is the maximum; it is ghost when a ghost row reaches the
    maximum or two rows tie at it, which is what a left fold with
    ``trop_add`` gives in any order.
    """
    best: Dict[Exponent, Row] = {}
    for row in rows:
        key, s, _ = row
        old = best.get(key)
        if old is None or s > old[1]:
            best[key] = row
        elif s == old[1]:
            best[key] = (key, s, True)
    return TropicalPolynomial._from_rows(arity, den, list(best.values()))


def _sum(polys: Sequence["TropicalPolynomial"]) -> "TropicalPolynomial":
    """The sum of one or more polynomials of one arity: one ``_merge`` of
    their rows over ``_over``'s den, in first-seen order like a fold."""
    first = polys[0]
    for p in polys[1:]:
        first._check_arity(p)
    if len(polys) == 1:
        return first
    den, rows = _over(polys)
    return _merge(first._arity, den, chain.from_iterable(rows))


def _sort_key(exp: Exponent):
    # graded lex, descending when sorted ascending on this key and reversed
    return (sum(exp), exp)


class TropicalPolynomial:
    """``TropicalPolynomial(arity, terms)``: terms maps exponent tuples of
    length ``arity`` to coefficients; ``-inf`` coefficients are dropped.
    The constructor copies and checks the terms and builds the rows; the
    terms it checked are the first read of ``terms``."""

    __slots__ = ("_arity", "_den", "_rows", "_terms")
    __hash__ = None  # compared by value; no caller hashes a polynomial

    def __init__(self, arity: int,
                 terms: Optional[Mapping[Exponent, TropicalNumber]] = None):
        if type(arity) is not int or arity < 0:
            raise ValueError(f"arity {arity!r} is not a non-negative int")
        clean: Dict[Exponent, TropicalNumber] = {}
        for given, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in given)
            if len(exp) != arity:
                raise ArityMismatch(
                    f"exponent {exp} does not match arity {arity}")
            if exp != tuple(given):
                raise ValueError(f"non-integer exponent in {tuple(given)}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if coeff.is_neg_inf():
                continue
            if exp in clean:
                clean[exp] = trop_add(clean[exp], coeff)
            else:
                clean[exp] = coeff
        self._arity = arity
        self._den = den = _den_of(clean.values())
        self._rows = [(e, c.value.numerator * (den // c.value.denominator),
                       c.tag == TAG_GHOST) for e, c in clean.items()]
        self._terms = MappingProxyType(clean)

    @classmethod
    def _from_rows(cls, arity: int, den: int, rows: List[Row]
                   ) -> "TropicalPolynomial":
        """A polynomial on clean rows over a common denominator ``den`` of
        their values, reduced to the least one: den and every row are
        divided by their gcd.  When den is the least already, the rows list
        is shared, never changed."""
        g = gcd(den, *[s for _, s, _ in rows])
        if g != 1:
            den, rows = den // g, [(e, s // g, t) for e, s, t in rows]
        poly = object.__new__(cls)
        poly._arity, poly._den, poly._rows = arity, den, rows
        poly._terms = None
        return poly

    @property
    def arity(self) -> int:
        """The number of variables, read-only."""
        return self._arity

    @property
    def terms(self) -> Mapping[Exponent, TropicalNumber]:
        """The coefficients by exponent, read-only; built from the rows on
        first read."""
        if self._terms is None:
            den = self._den
            self._terms = MappingProxyType({
                e: _number(s, den, g) for e, s, g in self._rows})
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, TropicalPolynomial):
            return NotImplemented
        if self._arity != other._arity or self._den != other._den:
            return False
        r1, r2 = self._rows, other._rows
        return len(r1) == len(r2) and set(r1) == set(r2)

    def __repr__(self):
        return (f"TropicalPolynomial(arity={self._arity!r}, "
                f"terms={dict(self.terms)!r})")

    def __reduce__(self):
        return (TropicalPolynomial, (self._arity, dict(self.terms)))

    # -- basic structure ----------------------------------------------
    def is_empty(self) -> bool:
        return not self._rows

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _, _ in self._rows)

    def constant_value(self) -> TropicalNumber:
        """The value where every coordinate is -inf: the constant or -inf."""
        return next((_number(s, self._den, g) for e, s, g in self._rows
                     if not any(e)), NEG_INFINITY)

    def is_ghost_poly(self) -> bool:
        """All coefficients ghost (the empty polynomial counts too)."""
        return all(g for _, _, g in self._rows)

    def is_tangible_poly(self) -> bool:
        return not any(g for _, _, g in self._rows)

    def total_degree(self) -> int:
        if self.is_empty():
            raise EmptyPolynomial("degree of the empty polynomial")
        return max(sum(e) for e, _, _ in self._rows)

    def lower_degree(self) -> int:
        if self.is_empty():
            raise EmptyPolynomial("lower degree of the empty polynomial")
        return min(sum(e) for e, _, _ in self._rows)

    def degree_bounds(self) -> Tuple[int, int]:
        return (self.lower_degree(), self.total_degree())

    def sorted_terms(self) -> List[Tuple[Exponent, TropicalNumber]]:
        """Terms in graded-lex descending order (printing order)."""
        return sorted(self.terms.items(), key=lambda t: _sort_key(t[0]),
                      reverse=True)

    # -- arithmetic -----------------------------------------------------
    def _check_arity(self, other: "TropicalPolynomial"):
        if self._arity != other._arity:
            raise ArityMismatch(
                f"arity {self._arity} vs {other._arity}")

    def __add__(self, other: "TropicalPolynomial") -> "TropicalPolynomial":
        return _sum([self, other])

    def __mul__(self, other: "TropicalPolynomial") -> "TropicalPolynomial":
        """The product: every pair of rows, merged.  At one, two and three
        variables the exponent sum is written out; at any other arity it
        is ``tuple(map(add, e1, e2))``."""
        self._check_arity(other)
        arity = self._arity
        den, (r1, r2) = _over([self, other])
        if arity == 1:
            pairs = (((a1 + a2,), s1 + s2, g1 or g2)
                     for (a1,), s1, g1 in r1 for (a2,), s2, g2 in r2)
        elif arity == 2:
            pairs = (((a1 + a2, b1 + b2), s1 + s2, g1 or g2)
                     for (a1, b1), s1, g1 in r1 for (a2, b2), s2, g2 in r2)
        elif arity == 3:
            pairs = (((a1 + a2, b1 + b2, c1 + c2), s1 + s2, g1 or g2)
                     for (a1, b1, c1), s1, g1 in r1
                     for (a2, b2, c2), s2, g2 in r2)
        else:
            pairs = ((tuple(map(add, e1, e2)), s1 + s2, g1 or g2)
                     for e1, s1, g1 in r1 for e2, s2, g2 in r2)
        return _merge(arity, den, pairs)

    def __pow__(self, k: int) -> "TropicalPolynomial":
        """The k-fold product, multiplied out one factor at a time from a
        copy of f; a monomial (or -inf) is the one row ``(k e, k s, g)``."""
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return constant(tangible(0), self._arity)
        if len(self._rows) < 2:
            return self._from_rows(self._arity, self._den, [
                (tuple(k * x for x in e), k * s, g) for e, s, g in self._rows])
        result = self._from_rows(self._arity, self._den, self._rows)
        for _ in range(k - 1):
            result = result * self
        return result

    def scale(self, c: TropicalNumber) -> "TropicalPolynomial":
        return self * constant(c, self._arity)

    # -- evaluation ------------------------------------------------------
    def _top(self, point: Iterable[TropicalNumber]
             ) -> Optional[Tuple[int, int, bool]]:
        """The maximum term value at the point in one pass over the rows:
        ``(numerator, denominator, ghost flag)``, or None for -inf.

        The point is read once: each coordinate's tag and integer ratio,
        with the common denominator of the rows and the coordinates grown
        only by a coordinate whose denominator does not divide it.  Over
        that denominator a term's value is its scaled row value plus the
        dot product of its exponent with the scaled coordinates, a plain
        int.  At one, two and three variables the row loop is written out,
        the product being ``a * x + b * y + c * z`` over the unpacked
        exponent; at arity 0 and from four variables on it is
        ``sum(map(mul, exp, nums))``.  A positive power of a -inf
        coordinate drops the term, once per such coordinate, before the row
        loop.  The maximum is ghost when a ghost term or a ghost coordinate
        under a positive power reaches it, or two terms tie at it, which is
        what a left fold with ``trop_add`` gives; the coordinates are
        looked at only for a new maximum.
        """
        point = tuple(point)
        arity = self._arity
        if len(point) != arity:
            raise ArityMismatch(
                f"point of length {len(point)} for arity {arity}")
        den = big = self._den
        rows = self._rows
        ratios, dead, lit = [], [], []
        for i, c in enumerate(point):
            tag = c.tag
            if tag == TAG_NEG_INF:
                dead.append(i)
                ratios.append((0, 1))
                continue
            if tag == TAG_GHOST:
                lit.append(i)
            n, d = c.value.as_integer_ratio()
            if big % d:
                big = lcm(big, d)
            ratios.append((n, d))
        for i in dead:
            rows = [r for r in rows if not r[0][i]]
        m = big // den
        top = None
        top_ghost = False
        if arity == 1:
            n, d = ratios[0]
            x, gx = n * (big // d), bool(lit)
            for (a,), s, g in rows:
                s = s * m + a * x
                if top is not None and s <= top:
                    if s == top:
                        top_ghost = True
                    continue
                top = s
                top_ghost = g or a and gx
        elif arity == 2:
            (n1, d1), (n2, d2) = ratios
            x, y = n1 * (big // d1), n2 * (big // d2)
            gx, gy = 0 in lit, 1 in lit
            for (a, b), s, g in rows:
                s = s * m + a * x + b * y
                if top is not None and s <= top:
                    if s == top:
                        top_ghost = True
                    continue
                top = s
                top_ghost = g or a and gx or b and gy
        elif arity == 3:
            (n1, d1), (n2, d2), (n3, d3) = ratios
            x, y, z = n1 * (big // d1), n2 * (big // d2), n3 * (big // d3)
            gx, gy, gz = 0 in lit, 1 in lit, 2 in lit
            for (a, b, c), s, g in rows:
                s = s * m + a * x + b * y + c * z
                if top is not None and s <= top:
                    if s == top:
                        top_ghost = True
                    continue
                top = s
                top_ghost = g or a and gx or b and gy or c and gz
        else:
            nums = [n * (big // d) for n, d in ratios]
            for exp, s, g in rows:
                s = s * m + sum(map(mul, exp, nums))
                if top is not None and s <= top:
                    if s == top:
                        top_ghost = True
                    continue
                top = s
                top_ghost = g or bool(lit) and any(exp[i] for i in lit)
        return None if top is None else (top, big, bool(top_ghost))

    def evaluate(self, point: Iterable[TropicalNumber]) -> TropicalNumber:
        top = self._top(point)
        if top is None:
            return NEG_INFINITY
        num, den, g = top
        return TropicalNumber(TAG_GHOST if g else TAG_TANGIBLE,
                              Fraction(num, den))

    def is_root(self, point: Iterable[TropicalNumber]) -> bool:
        """A point is a root when the value lies in the ghost ideal."""
        top = self._top(point)
        return top is None or top[2]

    # -- decompositions ---------------------------------------------------
    def tangible_part(self) -> "TropicalPolynomial":
        return self._from_rows(self._arity, self._den,
                               [r for r in self._rows if not r[2]])

    def ghost_part(self) -> "TropicalPolynomial":
        return self._from_rows(self._arity, self._den,
                               [r for r in self._rows if r[2]])

    def tg_decompose(self):
        return (self.tangible_part(), self.ghost_part())

    def projection(self) -> "TropicalPolynomial":
        """Every coefficient projected to its tangible copy."""
        return self._from_rows(self._arity, self._den,
                               [(e, s, False) for e, s, _ in self._rows])

    def ru_decompose(self):
        """Split into a tangible part and a tangible copy of the ghost part."""
        f_r = self.projection()
        f_u = self.ghost_part().projection()
        return (f_r, f_u)

    # -- substitution ------------------------------------------------------
    def substitute(self, assignment: Dict[int, TropicalNumber],
                   ) -> "TropicalPolynomial":
        """Fix some variables to constants, producing a polynomial in the rest.

        The remaining variables keep their relative order; a term whose
        positive power meets -inf is dropped.  An index outside
        ``range(arity)`` raises ``ArityMismatch``.
        """
        for i in assignment:
            if i not in range(self._arity):
                raise ArityMismatch(
                    f"variable index {i!r} for arity {self._arity}")
        keep = tuple(i for i in range(self._arity) if i not in assignment)
        d, rows = self._den, self._rows
        den = lcm(d, _den_of(assignment.values()))
        fixed = [(i, None, False) if c.tag == TAG_NEG_INF else
                 (i, c.value.numerator * (den // c.value.denominator),
                  c.tag == TAG_GHOST)
                 for i, c in assignment.items()]
        m = den // d
        out = []
        for exp, s, g in rows:
            s *= m
            for i, a, ga in fixed:
                e = exp[i]
                if e:
                    if a is None:
                        break
                    s += e * a
                    g = g or ga
            else:
                out.append((tuple([exp[i] for i in keep]), s, g))
        return _merge(len(keep), den, out)

    # -- JSON --------------------------------------------------------------
    def to_json(self):
        return {
            "arity": self._arity,
            "terms": [{"exp": list(e), "coeff": c.to_json()}
                      for e, c in self.sorted_terms()],
        }

    @staticmethod
    def from_json(obj) -> "TropicalPolynomial":
        terms = {tuple(t["exp"]): TropicalNumber.from_json(t["coeff"])
                 for t in obj["terms"]}
        return TropicalPolynomial(obj["arity"], terms)


def constant(c: TropicalNumber, arity: int = 1) -> TropicalPolynomial:
    return TropicalPolynomial(arity, {(0,) * arity: c})


def variable(index: int = 0, arity: int = 1) -> TropicalPolynomial:
    exp = tuple(1 if i == index else 0 for i in range(arity))
    return TropicalPolynomial(arity, {exp: tangible(0)})


def monomial(coeff: TropicalNumber, exp: Exponent) -> TropicalPolynomial:
    return TropicalPolynomial(len(exp), {tuple(exp): coeff})
