"""Constructive roots and certified factorization of univariate polynomials.

Every factorization is certified by multiplying the factors back, closing
the product once and comparing with the full closure of the input; a
mismatch raises InternalInconsistency instead of returning a bad answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import NEG_INFINITY, TropicalNumber, ghost, tangible
from .errors import (ArityMismatch, ArityUnsupported,
                     ConstantTangibleAmongInputs, ConstantTangibleInput,
                     EmptyPolynomial, InternalInconsistency, NotFull,
                     NotTangibleFull)
from .essential import _closure_and_guard, full_closure
from .polynomial import TropicalPolynomial, constant, variable


@dataclass
class Factorization:
    unit: TropicalNumber
    factors: List[Tuple[TropicalPolynomial, int]]
    certified: bool

    def expand(self) -> TropicalPolynomial:
        """The unit times every factor power, closed once at the end."""
        arity = self.factors[0][0].arity if self.factors else 1
        out = constant(self.unit, arity)
        for p, mult in self.factors:
            out = out * p ** mult
        return full_closure(out)


# ---------------------------------------------------------------------------
# helpers on univariate coefficient dicts


def _coeffs(f: TropicalPolynomial) -> Dict[int, TropicalNumber]:
    return {e[0]: c for e, c in f.terms.items()}


def _from_coeffs(coeffs: Dict[int, TropicalNumber]) -> TropicalPolynomial:
    return TropicalPolynomial(1, {(e,): c for e, c in coeffs.items()})


def _shift_down(f: TropicalPolynomial, k: int) -> TropicalPolynomial:
    return TropicalPolynomial(1, {(e[0] - k,): c for e, c in f.terms.items()})


def _reverse(f: TropicalPolynomial) -> TropicalPolynomial:
    d = f.total_degree()
    return TropicalPolynomial(1, {(d - e[0],): c for e, c in f.terms.items()})


def _linear(a: TropicalNumber) -> TropicalPolynomial:
    """The polynomial x + a (a may be ghost or -inf, giving bare x)."""
    terms = {(1,): tangible(0)}
    if not a.is_neg_inf():
        terms[(0,)] = a
    return TropicalPolynomial(1, terms)


def _ghost_variable_linear(b: Fraction) -> TropicalPolynomial:
    """The polynomial with a ghost variable term: 0^nu x + b."""
    return TropicalPolynomial(1, {(1,): ghost(0), (0,): tangible(b)})


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
               if any(e[i] for e in f.terms))
    fixed = {i: tangible(0) for i in range(f.arity) if i != var}
    g = f.substitute(fixed)
    r = _find_root_1d(g)
    point = tuple(r if i == var else tangible(0) for i in range(f.arity))
    if not f.is_root(point):
        raise InternalInconsistency("constructed point is not a root")
    return point


def _find_root_1d(f: TropicalPolynomial) -> TropicalNumber:
    coeffs = _coeffs(f)
    const = coeffs.get(0, NEG_INFINITY)
    if const.is_neg_inf() or const.is_ghost():
        # every positive-exponent monomial ghosts at a ghost point
        return ghost(0)
    a = const.value
    r = min((a - c.value) / e for e, c in coeffs.items() if e > 0)
    return tangible(r)


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
        const = f.constant_value()
        if const.is_neg_inf() or const.is_ghost():
            continue  # already ghost at every ghost point
        need = min((const.value - c.value) / sum(e)
                   for e, c in f.terms.items() if sum(e) > 0)
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
    closed, tangible_full = _closure_and_guard(f)
    if not tangible_full:
        raise NotTangibleFull("ghost vertex present")
    return _factor_closed(closed)


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


def factor_full(f: TropicalPolynomial) -> Factorization:
    """Canonical certified factorization of a full univariate polynomial.

    Ghost leading coefficients peel off as 0^nu x + b factors (at most one
    survives with the minimal b, the rest turn tangible); ghost constants
    peel symmetrically as x + b^nu factors keeping the maximal b ghost; the
    tangible-ended remainder splits into blocks at its tangible monomials.
    """
    if f.arity != 1:
        raise ArityUnsupported("factorization is univariate")
    if f.is_empty():
        raise EmptyPolynomial("nothing to factor")
    return _factor_closed(full_closure(f))


def _factor_closed(closed: TropicalPolynomial) -> Factorization:
    """``factor_full`` of a polynomial that is already fully closed."""
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


def roots_with_multiplicity(f: TropicalPolynomial
                            ) -> List[Tuple[TropicalNumber, int]]:
    """Roots of a tangible-full polynomial with multiplicities, descending."""
    fact = factor_tangible_full(f)
    roots: List[Tuple[TropicalNumber, int]] = []
    for p, mult in fact.factors:
        const = p.terms.get((0,), NEG_INFINITY)
        roots.append((const, mult))
    roots.sort(key=lambda t: t[0]._key(), reverse=True)
    return roots
