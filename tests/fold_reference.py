"""Reference arithmetic for the differential test: the ``TropicalNumber``
folds that computed products, sums, substitution and evaluation before the
integer kernels.  Products, sums and substitution now merge integer rows
in ``_merge``; ``evaluate`` and ``is_root`` have their own one-pass kernel
``_top``.  The differential test holds every operation to these folds, and
``is_root`` to ``reference_evaluate(f, point).is_ghost_or_bottom()``.

The bodies below are kept as they were, written as functions of the
polynomial in place of methods: ``reference_mul(f, g)`` stands for
``f * g``, ``reference_add(f, g)`` for ``f + g``,
``reference_evaluate(f, point)`` for ``f.evaluate(point)`` and
``reference_substitute(f, assignment)`` for ``f.substitute(assignment)``.
"""
from __future__ import annotations

from typing import Dict, Iterable

from tropc.core import NEG_INFINITY, TropicalNumber, trop_add, trop_mul
from tropc.errors import ArityMismatch
from tropc.polynomial import Exponent, TropicalPolynomial


def reference_mul(self: TropicalPolynomial,
                  other: TropicalPolynomial) -> TropicalPolynomial:
    self._check_arity(other)
    out: Dict[Exponent, TropicalNumber] = {}
    for e1, c1 in self.terms.items():
        for e2, c2 in other.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            prod = trop_mul(c1, c2)
            out[exp] = trop_add(out[exp], prod) if exp in out else prod
    return TropicalPolynomial(self.arity, out)


def reference_add(self: TropicalPolynomial,
                  other: TropicalPolynomial) -> TropicalPolynomial:
    self._check_arity(other)
    out = dict(self.terms)
    for exp, coeff in other.terms.items():
        out[exp] = trop_add(out[exp], coeff) if exp in out else coeff
    return TropicalPolynomial(self.arity, out)


def reference_evaluate(self: TropicalPolynomial,
                       point: Iterable[TropicalNumber]) -> TropicalNumber:
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


def reference_substitute(self: TropicalPolynomial,
                         assignment: Dict[int, TropicalNumber],
                         ) -> TropicalPolynomial:
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
