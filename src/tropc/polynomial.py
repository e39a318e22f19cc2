"""Sparse tropical polynomials over the extended semiring.

Terms are kept in a dict keyed by exponent tuples.  The empty polynomial
(the constant -inf) is allowed; degree markers are undefined for it.

Products, substitution and evaluation share one exact integer kernel: the
values an operation touches are scaled to integers over their common
denominator, and rows ``(key, scaled value, ghost flag)`` are merged by
``_merge``.  A ``Fraction`` is built once per output key.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, Iterable, List, Tuple

from .core import (NEG_INFINITY, TAG_GHOST, TAG_NEG_INF, TAG_TANGIBLE,
                   TropicalNumber, tangible, trop_add, trop_mul)
from .errors import ArityMismatch, EmptyPolynomial

Exponent = Tuple[int, ...]


def _common_den(*groups: Iterable[TropicalNumber]) -> int:
    """Least common denominator of the values (``-inf`` carries none)."""
    return lcm(*{c.value.denominator for group in groups for c in group
                 if c.tag != TAG_NEG_INF})


def _scaled(numbers: Dict, den: int) -> list:
    """Rows ``(key, value * den, ghost flag)`` of a dict of numbers, the
    scaled value an int, or None for -inf."""
    return [(key, None, False) if c.tag == TAG_NEG_INF else
            (key, c.value.numerator * (den // c.value.denominator),
             c.tag == TAG_GHOST)
            for key, c in numbers.items()]


def _merge(rows, den: int) -> Dict[tuple, TropicalNumber]:
    """Sum rows ``(key, scaled value, ghost flag)`` per key in the semiring.

    The sum is the maximum; it is ghost when a ghost row reaches the
    maximum or two rows tie at it, which is what a left fold with
    ``trop_add`` gives in any order.
    """
    best: Dict[tuple, list] = {}
    for key, s, g in rows:
        old = best.get(key)
        if old is None or s > old[0]:
            best[key] = [s, g]
        elif s == old[0]:
            old[1] = True
    return {key: TropicalNumber(TAG_GHOST if g else TAG_TANGIBLE,
                                Fraction(s, den))
            for key, (s, g) in best.items()}


def _sort_key(exp: Exponent):
    # graded lex, descending when sorted ascending on this key and reversed
    return (sum(exp), exp)


@dataclass
class TropicalPolynomial:
    arity: int
    terms: Dict[Exponent, TropicalNumber] = field(default_factory=dict)

    def __post_init__(self):
        clean: Dict[Exponent, TropicalNumber] = {}
        for exp, coeff in self.terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.arity:
                raise ArityMismatch(
                    f"exponent {exp} does not match arity {self.arity}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if coeff.is_neg_inf():
                continue
            if exp in clean:
                clean[exp] = trop_add(clean[exp], coeff)
            else:
                clean[exp] = coeff
        self.terms = clean

    # -- basic structure ----------------------------------------------
    def is_empty(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> TropicalNumber:
        """Value at the all--inf point: the constant coefficient or -inf."""
        return self.terms.get((0,) * self.arity, NEG_INFINITY)

    def is_ghost_poly(self) -> bool:
        """All coefficients ghost (the empty polynomial counts too)."""
        return all(c.is_ghost() for c in self.terms.values())

    def is_tangible_poly(self) -> bool:
        return all(c.is_tangible() for c in self.terms.values())

    def total_degree(self) -> int:
        if self.is_empty():
            raise EmptyPolynomial("degree of the empty polynomial")
        return max(sum(e) for e in self.terms)

    def lower_degree(self) -> int:
        if self.is_empty():
            raise EmptyPolynomial("lower degree of the empty polynomial")
        return min(sum(e) for e in self.terms)

    def degree_bounds(self) -> Tuple[int, int]:
        return (self.lower_degree(), self.total_degree())

    def sorted_terms(self) -> List[Tuple[Exponent, TropicalNumber]]:
        """Terms in graded-lex descending order (printing order)."""
        return sorted(self.terms.items(), key=lambda t: _sort_key(t[0]),
                      reverse=True)

    # -- arithmetic -----------------------------------------------------
    def _check_arity(self, other: "TropicalPolynomial"):
        if self.arity != other.arity:
            raise ArityMismatch(
                f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "TropicalPolynomial") -> "TropicalPolynomial":
        self._check_arity(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = trop_add(out[exp], coeff) if exp in out else coeff
        return TropicalPolynomial(self.arity, out)

    def __mul__(self, other: "TropicalPolynomial") -> "TropicalPolynomial":
        self._check_arity(other)
        den = _common_den(self.terms.values(), other.terms.values())
        right = _scaled(other.terms, den)
        rows = ((tuple(map(add, e1, e2)), s1 + s2, g1 or g2)
                for e1, s1, g1 in _scaled(self.terms, den)
                for e2, s2, g2 in right)
        return TropicalPolynomial(self.arity, _merge(rows, den))

    def __pow__(self, k: int) -> "TropicalPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = constant(tangible(0), self.arity)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: TropicalNumber) -> "TropicalPolynomial":
        return TropicalPolynomial(
            self.arity, {e: trop_mul(c, v) for e, v in self.terms.items()})

    # -- evaluation ------------------------------------------------------
    def evaluate(self, point: Iterable[TropicalNumber]) -> TropicalNumber:
        point = tuple(point)
        if len(point) != self.arity:
            raise ArityMismatch(
                f"point of length {len(point)} for arity {self.arity}")
        return self._fix(dict(enumerate(point)), ()).get((), NEG_INFINITY)

    def is_root(self, point: Iterable[TropicalNumber]) -> bool:
        """A point is a root when the value lies in the ghost ideal."""
        return self.evaluate(point).is_ghost_or_bottom()

    # -- decompositions ---------------------------------------------------
    def tangible_part(self) -> "TropicalPolynomial":
        return TropicalPolynomial(
            self.arity,
            {e: c for e, c in self.terms.items() if c.is_tangible()})

    def ghost_part(self) -> "TropicalPolynomial":
        return TropicalPolynomial(
            self.arity,
            {e: c for e, c in self.terms.items() if c.is_ghost()})

    def tg_decompose(self):
        return (self.tangible_part(), self.ghost_part())

    def projection(self) -> "TropicalPolynomial":
        """Every coefficient projected to its tangible copy."""
        return TropicalPolynomial(
            self.arity,
            {e: tangible(c.value) for e, c in self.terms.items()})

    def ru_decompose(self):
        """Split into a tangible part and a tangible copy of the ghost part."""
        f_r = self.projection()
        f_u = self.ghost_part().projection()
        return (f_r, f_u)

    # -- substitution ------------------------------------------------------
    def substitute(self, assignment: Dict[int, TropicalNumber],
                   ) -> "TropicalPolynomial":
        """Fix some variables to constants, producing a polynomial in the rest.

        The remaining variables keep their relative order.
        """
        keep = tuple(i for i in range(self.arity) if i not in assignment)
        return TropicalPolynomial(len(keep), self._fix(assignment, keep))

    def _fix(self, assignment: Dict[int, TropicalNumber], keep: Exponent,
             ) -> Dict[Exponent, TropicalNumber]:
        """Terms with the assigned variables fixed, keyed by the exponents of
        the kept ones; a term whose positive power meets -inf is dropped."""
        den = _common_den(self.terms.values(), assignment.values())
        fixed = _scaled(assignment, den)
        rows = []
        for exp, s, g in _scaled(self.terms, den):
            for i, a, ga in fixed:
                e = exp[i]
                if e:
                    if a is None:
                        break
                    s += e * a
                    g = g or ga
            else:
                rows.append((tuple([exp[i] for i in keep]), s, g))
        return _merge(rows, den)

    # -- JSON --------------------------------------------------------------
    def to_json(self):
        return {
            "arity": self.arity,
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
