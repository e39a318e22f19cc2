"""Reference path for certified univariate factorization.

This is the old implementation, copied unchanged apart from its names: it
read the canonical factors off the full closure by coefficient surgery
(peel ghost leading coefficients, reverse to peel ghost constants, split
the rest into blocks at its tangible monomials and peel quadratics by
recursion), merged equal factors and sorted them by a key rebuilt from
each factor's terms, and certified by closing the expanded product.  The
library now reads the same factors, already merged and in order, off the
closure's slopes in one walk; the differential test in
``test_univariate.py`` compares both.  ``reduced_reference.py`` shares the
merge.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from closure_reference import _ghost_variable_linear, _linear
from tropc import (NEG_INFINITY, ArityUnsupported, EmptyPolynomial,
                   InternalInconsistency, NotFull, NotTangibleFull,
                   TropicalNumber, TropicalPolynomial, full_closure, ghost,
                   tangible)
from tropc.essential import _close_1d
from tropc.polynomial import variable
from tropc.univariate import Factorization


def _factor_sort_key(p: TropicalPolynomial):
    d = p.total_degree()
    const = p.terms.get((0,), NEG_INFINITY)
    lead = p.terms[(d,)]
    if d == 1:
        if const.is_neg_inf():
            cls = 0          # bare x
        elif lead.is_ghost():
            cls = 2          # x^nu + b
        elif const.is_ghost():
            cls = 3          # x + b^nu
        else:
            cls = 1          # x + a
    else:
        cls = 4
    tail = tuple(sorted((e, c.tag, c.value) for e, c in p.terms.items()))
    head = -const.value if not const.is_neg_inf() else Fraction(0)
    return (cls, d, head, tail)


def _merge_factors(factors: Sequence[Tuple[TropicalPolynomial, int]]
                   ) -> List[Tuple[TropicalPolynomial, int]]:
    merged: List[Tuple[TropicalPolynomial, int]] = []
    for p, m in factors:
        for i, (q, have) in enumerate(merged):
            if q == p:
                merged[i] = (q, have + m)
                break
        else:
            merged.append((p, m))
    merged.sort(key=lambda t: _factor_sort_key(t[0]))
    return merged


def _coeffs(f: TropicalPolynomial) -> Dict[int, TropicalNumber]:
    return {e[0]: c for e, c in f.terms.items()}


def _from_coeffs(coeffs: Dict[int, TropicalNumber]) -> TropicalPolynomial:
    return TropicalPolynomial(1, {(e,): c for e, c in coeffs.items()})


def _shift_down(f: TropicalPolynomial, k: int) -> TropicalPolynomial:
    return TropicalPolynomial(1, {(e[0] - k,): c for e, c in f.terms.items()})


def _reverse(f: TropicalPolynomial) -> TropicalPolynomial:
    d = f.total_degree()
    return TropicalPolynomial(1, {(d - e[0],): c for e, c in f.terms.items()})


def reference_factor_tangible_full(f: TropicalPolynomial) -> Factorization:
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    closed, tangible_full = _close_1d(f)
    if not tangible_full:
        raise NotTangibleFull("ghost vertex present")
    return reference_factor_closed(closed)


def _peel_ghost_leads(f: TropicalPolynomial
                      ) -> Tuple[TropicalNumber, List[Fraction],
                                 TropicalPolynomial]:
    """Strip factors with a ghost variable term off the top.

    While the leading coefficient is ghost, the polynomial splits off a
    factor 0^nu x + beta with beta the projected next coefficient.  Returns
    the accumulated tangible unit, the peeled betas, and the remainder.
    """
    unit = tangible(0)
    betas: List[Fraction] = []
    coeffs = _coeffs(f)
    while True:
        t = max(coeffs)
        lead = coeffs[t]
        if t == 0 or not lead.is_ghost():
            break
        u = tangible(lead.value)
        unit = unit * u
        inv = u.inv()
        coeffs = {e: c * inv for e, c in coeffs.items()}
        nxt = coeffs.get(t - 1)
        if nxt is None or nxt.is_neg_inf():
            raise NotFull("missing coefficient below the leading term")
        beta = tangible(nxt.value)
        betas.append(nxt.value)
        binv = beta.inv()
        coeffs = {e: c * binv for e, c in coeffs.items() if e < t}
    return unit, betas, _from_coeffs(coeffs)


def _factor_monic_block(f: TropicalPolynomial
                        ) -> List[Tuple[TropicalPolynomial, int]]:
    """Factor a monic block with tangible ends and ghost interior.

    Blocks with no ghost vertex split into tangible linear factors read off
    the slopes.  Otherwise an irreducible quadratic carrying the extreme
    slopes is peeled and the middle slopes recurse.
    """
    coeffs = _coeffs(f)
    t = max(coeffs)
    if t == 1:
        return [(_linear(coeffs[0]), 1)]
    h = {e: c.value for e, c in coeffs.items()}
    diffs = {i: h[i] - h[i - 1] for i in range(1, t + 1)}
    has_ghost_vertex = any(
        coeffs[i].is_ghost() and diffs[i] > diffs[i + 1]
        for i in range(1, t))
    slopes = [h[t - k] - h[t - k + 1] for k in range(1, t + 1)]
    if not has_ghost_vertex:
        return [(_linear(tangible(m)), 1) for m in slopes]
    m1, mt = slopes[0], slopes[-1]
    quad = TropicalPolynomial(1, {(2,): tangible(0), (1,): ghost(m1),
                                  (0,): tangible(m1 + mt)})
    if t == 2:
        return [(quad, 1)]
    g_heights = {t - 2: Fraction(0)}
    for j in range(t - 3, -1, -1):
        g_heights[j] = h[j + 1] - h[t - 1]
    g_terms = {}
    for j, val in g_heights.items():
        if j == 0 or j == t - 2:
            g_terms[(j,)] = tangible(val)
        else:
            g_terms[(j,)] = ghost(val)
    return [(quad, 1)] + _factor_monic_block(TropicalPolynomial(1, g_terms))


def reference_factor_full(f: TropicalPolynomial) -> Factorization:
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    return reference_factor_closed(full_closure(f))


def reference_factor_closed(closed: TropicalPolynomial) -> Factorization:
    work = closed
    unit = tangible(0)
    raw_factors: List[Tuple[TropicalPolynomial, int]] = []

    lo = work.lower_degree()
    if lo > 0:
        raw_factors.append((variable(0, 1), lo))
        work = _shift_down(work, lo)

    if work.is_constant():
        unit = unit * work.constant_value()
    else:
        u1, lead_betas, work = _peel_ghost_leads(work)
        unit = unit * u1
        if lead_betas:
            keep = min(lead_betas)
            rest = list(lead_betas)
            rest.remove(keep)
            raw_factors.append((_ghost_variable_linear(keep), 1))
            for b in rest:
                raw_factors.append((_linear(tangible(b)), 1))

        const_vals: List[Fraction] = []
        if not work.is_constant():
            rev = _reverse(work)
            u2, rev_betas, rev_rest = _peel_ghost_leads(rev)
            unit = unit * u2
            for b in rev_betas:
                unit = unit * tangible(b)
                const_vals.append(-b)
            work = _reverse(rev_rest)
        if const_vals:
            keep = max(const_vals)
            rest = list(const_vals)
            rest.remove(keep)
            raw_factors.append((_linear(ghost(keep)), 1))
            for v in rest:
                raw_factors.append((_linear(tangible(v)), 1))

        if work.is_constant():
            unit = unit * work.constant_value()
        else:
            coeffs = _coeffs(work)
            t = max(coeffs)
            unit = unit * coeffs[t]
            tangible_positions = sorted(
                e for e, c in coeffs.items() if c.is_tangible())
            if tangible_positions[0] != 0 or tangible_positions[-1] != t:
                raise InternalInconsistency("block ends are not tangible")
            for s1, s2 in zip(tangible_positions, tangible_positions[1:]):
                inv = coeffs[s2].inv()
                block = _from_coeffs(
                    {i - s1: coeffs[i] * inv
                     for i in range(s1, s2 + 1) if i in coeffs})
                raw_factors.extend(_factor_monic_block(block))

    result = Factorization(unit, _merge_factors(raw_factors), False)
    if result.expand() != closed:
        raise InternalInconsistency("expansion does not reproduce the input")
    result.certified = True
    return result
