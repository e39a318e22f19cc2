"""Finitely generated tropical ideals and Nullstellensatz procedures.

Generators are stored fully closed.  The weak procedure either produces a
common root of the generators or points at a tangible constant generator as
a proof of emptiness.  The univariate radical membership procedure decides
containment of complement components and, on success, returns an exponent m
with monomial combiners h_j such that f^m agrees with the combination sum
h_j g_j as a function.  The combination, one merge of the products h_j g_j,
is closed once; f^m is the reduced power, the closure of f's dilation by m
by the Frobenius property (a + b)^m = a^m + b^m, never an expansion.  Full
closures are canonical, so the two agree as functions exactly when they are
equal.  Everything here computes on the integer rows of polynomials; nothing
reads ``terms`` or does ``TropicalNumber`` arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub
from typing import List, Optional, Sequence, Tuple

from .core import TropicalNumber, tangible
from .errors import (ArityMismatch, ArityUnsupported,
                     CertificateSearchExceeded, EmptyPolynomial,
                     NotTangibleFull)
from .essential import _close_1d, essential_part, full_closure, red_pow
from .polynomial import TropicalPolynomial, _over, _sum
# eager, unlike univariate's common_root: the benchmark's tracer
# (bench/layers.py) looks tropc.sets up in sys.modules once tropc.ideals
# is loaded
from .sets import _components_with_monomials

MAX_CERTIFICATE_EXPONENT = 64


@dataclass
class IdealFG:
    arity: int
    generators: List[TropicalPolynomial] = field(default_factory=list)

    def __post_init__(self):
        closed: List[TropicalPolynomial] = []
        for g in self.generators:
            if g.arity != self.arity:
                raise ArityMismatch(
                    f"generator arity {g.arity} in arity-{self.arity} ideal")
            if g.is_empty():
                continue
            g = full_closure(g)
            if g not in closed:
                closed.append(g)
        self.generators = closed


def is_proper(ideal: IdealFG) -> bool:
    """False exactly when a generator is a tangible constant (a unit)."""
    return _unit_generator(ideal) is None


def _unit_generator(ideal: IdealFG) -> Optional[TropicalPolynomial]:
    for g in ideal.generators:
        if g.is_constant() and g.constant_value().is_tangible():
            return g
    return None


@dataclass
class NssResult:
    witness: Optional[Tuple[TropicalNumber, ...]]
    proof_of_emptiness: Optional[TropicalPolynomial]

    @property
    def nonempty(self) -> bool:
        return self.witness is not None


def weak_nullstellensatz(ideal: IdealFG) -> NssResult:
    """Either a common root of the generators or a unit generator."""
    from .univariate import common_root
    unit = _unit_generator(ideal)
    if unit is not None:
        return NssResult(None, unit)
    if not ideal.generators:
        return NssResult((tangible(0),) * ideal.arity, None)
    return NssResult(common_root(ideal.generators), None)


def is_ghost_potent(f: TropicalPolynomial) -> bool:
    """Does some power of f become a ghost polynomial?

    Holds exactly when the essential part is entirely ghost.
    """
    if f.is_empty():
        return True
    return essential_part(f).is_ghost_poly()


@dataclass
class RadicalCertificate:
    m: int
    combiners: List[Tuple[TropicalPolynomial, TropicalPolynomial]]

    def combination(self) -> TropicalPolynomial:
        """The sum of the products h * g, closed once at the end."""
        return full_closure(_sum([h * g for h, g in self.combiners]))


def radical_member_1d(f: TropicalPolynomial, ideal: IdealFG
                      ) -> Optional[RadicalCertificate]:
    """Decide whether f lies in the radical of a univariate ideal.

    Containment of every complement component of f in a component of some
    generator is necessary and sufficient; the certificate is built from
    one monomial per component and the exponent is scanned upward until the
    combination reproduces f^m exactly.
    """
    if f.arity != 1 or ideal.arity != 1:
        raise ArityUnsupported("radical membership is univariate")
    if f.is_empty():
        raise EmptyPolynomial("empty polynomial as radical candidate")
    f, tangible_full = _close_1d(f)
    if not tangible_full:
        raise NotTangibleFull("radical candidates must be tangible-full")

    f_comps = _components_with_monomials(f)
    gen_comps = [_components_with_monomials(g) for g in ideal.generators]

    # assign every component of f to a containing generator component
    assignment: List[Tuple[int, int, int]] = []  # (gen index, f exp, g exp)
    for comp, i in f_comps:
        choice = next(((gi, i, r) for gi, comps in enumerate(gen_comps)
                       for gcomp, r in comps
                       if comp.subset_of(gcomp) and not (i == 0 and r > 0)),
                      None)
        if choice is None:
            return None
        assignment.append(choice)
    m_lower = max([1] + [-(-r // i) for _, i, r in assignment if i > 0])

    # com-sets emit tangible vertices only, so every combiner is tangible;
    # its value m * f_i - g_r is an integer over one den of f and the gens
    gens = ideal.generators
    den, rows = _over([f, *gens])
    f_values, *g_values = [{e: s for (e,), s, _ in r} for r in rows]

    # m >= ceil(r / i) when i > 0 and r = 0 when i = 0, so m * i >= r
    for m in range(m_lower, MAX_CERTIFICATE_EXPONENT + 1):
        combiners: dict = {}
        for gi, i, r in assignment:
            bucket = combiners.setdefault(gi, {})
            exp, s = (m * i - r,), m * f_values[i] - g_values[gi][r]
            # union of monomial requirements: keep the larger value,
            # identical contributions collapse without ghosting
            if bucket.get(exp, s) <= s:
                bucket[exp] = s
        cert = RadicalCertificate(
            m, [(full_closure(TropicalPolynomial._from_rows(
                    1, den, [(e, s, False) for e, s in bucket.items()])),
                 gens[gi])
                for gi, bucket in sorted(combiners.items())])
        if red_pow(f, m) == cert.combination():
            return cert
    raise CertificateSearchExceeded(
        f"no certificate up to exponent {MAX_CERTIFICATE_EXPONENT}")


def verify_radical_certificate(f: TropicalPolynomial,
                               cert: RadicalCertificate,
                               points: Sequence[Sequence[TropicalNumber]]
                               ) -> bool:
    """Check f^m against the combination by evaluation at sample points."""
    power = red_pow(f, cert.m)
    combo = cert.combination()
    return all(power.evaluate(p) == combo.evaluate(p) for p in points)


def ideal_member_syntactic(f: TropicalPolynomial, ideal: IdealFG) -> bool:
    """Heuristic semidecision of ideal membership.

    Builds candidate combiners by max-plus residuation of f by each
    generator and accepts only when the combination reproduces f as a
    function.  A False answer is not a proof of non-membership.
    """
    if f.arity != ideal.arity:
        raise ArityMismatch("arity of member candidate differs")
    if f.is_empty():
        return True
    if not ideal.generators:
        return False
    f_closed = full_closure(f)
    if f_closed in ideal.generators:  # full closures are canonical
        return True
    parts = [h * g for g in ideal.generators
             if (h := _residuation(f_closed, g)) is not None]
    return bool(parts) and full_closure(_sum(parts)) == f_closed


def _residuation(f: TropicalPolynomial, g: TropicalPolynomial
                 ) -> Optional[TropicalPolynomial]:
    """Largest tangible h with the projection of h*g below that of f: at
    each e, min over g's rows of f[e + d] - g[d], an integer over the lcm
    of the two dens (Cuninghame-Green residuation).  Such an e has f terms
    at e + d for every d of g, so the e tried are f's exponents less d0,
    g's lex-largest exponent and a Newton vertex; e >= 0 is required, and
    fails before any lookup for each f term below g's degree in x1."""
    den, (f_rows, g_rows) = _over([f, g])
    f_values = {e: s for e, s, _ in f_rows}
    top = max(d for d, _, _ in g_rows)
    rows = []
    for e_f, _, _ in f_rows:
        e = tuple(map(sub, e_f, top))
        if any(k < 0 for k in e):
            continue
        try:
            rows.append((e, min(f_values[tuple(map(add, e, d))] - b
                                for d, b, _ in g_rows), False))
        except KeyError:  # some f[e + d] is -inf
            pass
    return TropicalPolynomial._from_rows(f.arity, den, rows) if rows else None
