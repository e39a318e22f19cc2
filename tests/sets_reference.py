"""Reference paths for com-sets, the plane corner locus and radical
membership.

These are the old implementations, copied unchanged apart from their names
(the reference radical runs on the reference com-set, and the reference
com-set takes its envelope from the old Fraction sweep in
``hull1d_reference``): the com-set had
separate branches for constants and single terms, rescanned every term for
the ghost ray's bound and sorted its output; the corner locus clipped each
tie line twice, once against the other terms and once against the box; the
radical search carried guards that its com-set inputs never trigger.  The
library now reads the com-set off the breakpoints in one loop, clips with
one routine and drops the guards; the differential tests in
``test_sets.py`` and ``test_ideals.py`` compare both.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from tropc import (ArityUnsupported, CertificateSearchExceeded, Component1D,
                   CornerLocus2D, EmptyPolynomial, IdealFG, NotTangibleFull,
                   RadicalCertificate, TropicalPolynomial, full_closure,
                   red_pow)
from tropc.essential import _close_1d
from tropc.ideals import MAX_CERTIFICATE_EXPONENT
from tropc.sets import _component_sort_key
from hull1d_reference import reference_envelope_vertices


def reference_components_with_monomials(f: TropicalPolynomial
                                        ) -> List[Tuple[Component1D, int]]:
    """Complement components together with the dominating exponent on each."""
    if f.arity != 1:
        raise ArityUnsupported("com-sets are univariate")
    if f.is_empty() or f.is_ghost_poly():
        return []
    coeffs = {e[0]: c for e, c in f.terms.items()}
    if f.is_constant():
        c = coeffs[0]
        if c.is_tangible():
            return [(Component1D((None, None), (None, None), True), 0)]
        return []
    if len(coeffs) == 1:
        (e, c), = coeffs.items()
        if c.is_tangible():
            return [(Component1D((None, None), None, False), e)]
        return []

    verts = reference_envelope_vertices(f)
    heights = {e: c.value for e, c in coeffs.items()}
    breakpoints = [
        (heights[e1] - heights[e2]) / Fraction(e2 - e1)
        for e1, e2 in zip(verts, verts[1:])]
    bounds = [None] + breakpoints + [None]
    out: List[Tuple[Component1D, int]] = []
    const = coeffs.get(0)
    const_tangible = const is not None and const.is_tangible()
    for k, e in enumerate(verts):
        if not coeffs[e].is_tangible():
            continue
        iv = (bounds[k], bounds[k + 1])
        if k == 0 and const_tangible:
            # the constant dominates as x -> -inf; the leftmost tangible
            # interval, the ghost ray and -inf form one merged component
            s = min((const.value - heights[i]) / Fraction(i)
                    for i in coeffs if i > 0)
            out.append((Component1D(iv, (None, s), True), e))
        else:
            out.append((Component1D(iv, None, False), e))
    out.sort(key=lambda t: _component_sort_key(t[0]))
    return out


def reference_corner_locus_2d(f: TropicalPolynomial,
                              bbox: Tuple[Fraction, Fraction, Fraction,
                                          Fraction]
                              ) -> CornerLocus2D:
    if f.arity != 2:
        raise ArityUnsupported("corner loci are planar")
    if f.is_empty() or f.is_ghost_poly():
        return CornerLocus2D(True, [], [])
    xmin, ymin, xmax, ymax = (Fraction(v) for v in bbox)
    terms = f.sorted_terms()
    exps = [e for e, _ in terms]
    heights = [c.value for _, c in terms]
    m = len(terms)
    segments: List[dict] = []
    rays: List[dict] = []
    for i in range(m):
        for j in range(i + 1, m):
            n = (exps[i][0] - exps[j][0], exps[i][1] - exps[j][1])
            delta = heights[j] - heights[i]
            if n == (0, 0):
                continue
            if n[0]:
                p0 = (delta / Fraction(n[0]), Fraction(0))
            else:
                p0 = (Fraction(0), delta / Fraction(n[1]))
            d = (Fraction(-n[1]), Fraction(n[0]))
            tlo: Optional[Fraction] = None
            thi: Optional[Fraction] = None
            feasible = True
            for k in range(m):
                if k in (i, j):
                    continue
                nk = (exps[i][0] - exps[k][0], exps[i][1] - exps[k][1])
                rhs = (heights[k] - heights[i]
                       - nk[0] * p0[0] - nk[1] * p0[1])
                dot = nk[0] * d[0] + nk[1] * d[1]
                if dot == 0:
                    if rhs > 0:
                        feasible = False
                        break
                elif dot > 0:
                    t = rhs / dot
                    if tlo is None or t > tlo:
                        tlo = t
                else:
                    t = rhs / dot
                    if thi is None or t < thi:
                        thi = t
            if not feasible:
                continue
            if tlo is not None and thi is not None and tlo >= thi:
                continue
            unbounded_lo = tlo is None
            unbounded_hi = thi is None
            # clip to the bounding box
            ctlo, cthi = tlo, thi
            empty = False
            for (nb, rhs_b) in (((1, 0), xmin), ((-1, 0), -xmax),
                                ((0, 1), ymin), ((0, -1), -ymax)):
                rhs = rhs_b - nb[0] * p0[0] - nb[1] * p0[1]
                dot = nb[0] * d[0] + nb[1] * d[1]
                if dot == 0:
                    if rhs > 0:
                        empty = True
                        break
                elif dot > 0:
                    t = rhs / dot
                    if ctlo is None or t > ctlo:
                        ctlo = t
                else:
                    t = rhs / dot
                    if cthi is None or t < cthi:
                        cthi = t
            if empty or ctlo is None or cthi is None or ctlo > cthi:
                continue

            def at(t):
                return (p0[0] + t * d[0], p0[1] + t * d[1])

            # visible extent goes to segments; unbounded continuations are
            # recorded as rays anchored at the clip points
            entry = {"indices": [list(exps[i]), list(exps[j])]}
            if ctlo < cthi:
                segments.append({**entry, "from": at(ctlo), "to": at(cthi)})
            if unbounded_lo:
                rays.append({**entry, "from": at(ctlo), "dir": (-d[0], -d[1])})
            if unbounded_hi:
                rays.append({**entry, "from": at(cthi), "dir": d})
    return CornerLocus2D(False, segments, rays)


def reference_radical_member_1d(f: TropicalPolynomial, ideal: IdealFG
                                ) -> Optional[RadicalCertificate]:
    if f.arity != 1 or ideal.arity != 1:
        raise ArityUnsupported("radical membership is univariate")
    if f.is_empty():
        raise EmptyPolynomial("empty polynomial as radical candidate")
    f, tangible_full = _close_1d(f)
    if not tangible_full:
        raise NotTangibleFull("radical candidates must be tangible-full")

    f_comps = reference_components_with_monomials(f)
    gen_comps = [reference_components_with_monomials(g)
                 for g in ideal.generators]

    # assign every component of f to a containing generator component
    assignment: List[Tuple[int, int, int]] = []  # (gen index, f exp, g exp)
    for comp, i in f_comps:
        choice = None
        for gi, comps in enumerate(gen_comps):
            for gcomp, r in comps:
                if comp.subset_of(gcomp) and not (i == 0 and r > 0):
                    choice = (gi, i, r)
                    break
            if choice:
                break
        if choice is None:
            return None
        assignment.append(choice)

    m_lower = 1
    for _, i, r in assignment:
        if i > 0:
            m_lower = max(m_lower, -(-r // i))
    f_coeffs = {e[0]: c for e, c in f.terms.items()}

    for m in range(m_lower, MAX_CERTIFICATE_EXPONENT + 1):
        if any(m * i - r < 0 for _, i, r in assignment):
            continue
        combiners: dict = {}
        ok = True
        for gi, i, r in assignment:
            g = ideal.generators[gi]
            beta = g.terms[(r,)]
            if not beta.is_tangible():
                ok = False
                break
            coeff = (f_coeffs[i] ** m) * beta.inv()
            exp = (m * i - r,)
            bucket = combiners.setdefault(gi, {})
            # union of monomial requirements: keep the larger coefficient,
            # identical contributions collapse without ghosting
            if exp not in bucket or bucket[exp] < coeff:
                bucket[exp] = coeff
        if not ok:
            continue
        cert = RadicalCertificate(
            m, [(full_closure(TropicalPolynomial(1, bucket)),
                 ideal.generators[gi])
                for gi, bucket in sorted(combiners.items())])
        if red_pow(f, m) == cert.combination():
            return cert
    raise CertificateSearchExceeded(
        f"no certificate up to exponent {MAX_CERTIFICATE_EXPONENT}")
