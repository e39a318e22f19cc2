"""Reference paths for the reduced semiring that close after every step.

These are the old implementations, copied unchanged apart from their
names (the old ``factor_tangible_full`` certifies with the old ``expand``):
``red_pow`` squared full closures with ``red_mul``,
``Factorization.expand`` folded one ``red_mul`` per factor,
``RadicalCertificate.combination`` folded ``red_mul``/``red_add`` per
combiner, and ``factor_tangible_full`` read the roots off the slope
sequence and merged them with the old ``_merge_factors`` (kept in
``factor_reference.py``).  The library now closes one raw result once;
the differential test in ``test_reduced.py`` compares both.
"""
from __future__ import annotations

from typing import List, Tuple

from closure_reference import _linear
from factor_reference import _merge_factors
from tropc import (ArityUnsupported, EmptyPolynomial, InternalInconsistency,
                   NotTangibleFull, TropicalPolynomial, essential_part,
                   full_closure, red_add, red_mul, slope_sequence, tangible)
from tropc.polynomial import constant, variable
from tropc.univariate import Factorization


def _shift_down(f: TropicalPolynomial, k: int) -> TropicalPolynomial:
    return TropicalPolynomial(1, {(e[0] - k,): c for e, c in f.terms.items()})


def reference_red_pow(f: TropicalPolynomial, k: int) -> TropicalPolynomial:
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return constant(tangible(0), f.arity)
    result = None
    base = full_closure(f)
    while k:
        if k & 1:
            result = base if result is None else red_mul(result, base)
        k >>= 1
        if k:
            base = red_mul(base, base)
    return result


def reference_expand(fact: Factorization) -> TropicalPolynomial:
    arity = fact.factors[0][0].arity if fact.factors else 1
    out = full_closure(constant(fact.unit, arity))
    for p, mult in fact.factors:
        for _ in range(mult):
            out = red_mul(out, p)
    return out


def reference_combination(combiners: List[Tuple[TropicalPolynomial,
                                                TropicalPolynomial]]
                          ) -> TropicalPolynomial:
    acc = None
    for h, g in combiners:
        term = red_mul(h, g)
        acc = term if acc is None else red_add(acc, term)
    return acc


def reference_factor_tangible_full(f: TropicalPolynomial) -> Factorization:
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    closed = full_closure(f)
    if not essential_part(closed).is_tangible_poly():
        raise NotTangibleFull("ghost vertex present")
    lo, hi = closed.degree_bounds()
    unit = closed.terms[(hi,)]
    factors: List[Tuple[TropicalPolynomial, int]] = []
    if lo > 0:
        factors.append((variable(0, 1), lo))
    if hi > lo:
        work = _shift_down(closed, lo) if lo else closed
        for m in slope_sequence(work).slopes:
            factors.append((_linear(tangible(m)), 1))
    factors = _merge_factors(factors)
    result = Factorization(unit, factors, False)
    if reference_expand(result) != closed:
        raise InternalInconsistency("expansion does not reproduce the input")
    result.certified = True
    return result
