"""Sparse tropical polynomials over the extended semiring.

Terms are kept in a dict keyed by exponent tuples.  The empty polynomial
(the constant -inf) is allowed; degree markers are undefined for it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .core import (NEG_INFINITY, TropicalNumber, ghost, ghost_of, tangible,
                   trop_add, trop_mul)
from .errors import ArityMismatch, EmptyPolynomial

Exponent = Tuple[int, ...]


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
        out: Dict[Exponent, TropicalNumber] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = trop_mul(c1, c2)
                out[exp] = trop_add(out[exp], prod) if exp in out else prod
        return TropicalPolynomial(self.arity, out)

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
        acc = NEG_INFINITY
        for exp, coeff in self.terms.items():
            val = coeff
            for e, c in zip(exp, point):
                if e:
                    val = trop_mul(val, c ** e)
            acc = trop_add(acc, val)
        return acc

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
        keep = [i for i in range(self.arity) if i not in assignment]
        out: Dict[Exponent, TropicalNumber] = {}
        for exp, coeff in self.terms.items():
            val = coeff
            for i, a in assignment.items():
                if exp[i]:
                    val = trop_mul(val, a ** exp[i])
            if val.is_neg_inf():
                continue
            new_exp = tuple(exp[i] for i in keep)
            out[new_exp] = trop_add(out[new_exp], val) if new_exp in out else val
        return TropicalPolynomial(len(keep), out)

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
