"""Reduced results close one raw result once.

Full closure maps the polynomial semiring homomorphically onto the reduced
one, so ``red_pow``, ``Factorization.expand`` and
``RadicalCertificate.combination`` close a single raw result, and
``factor_tangible_full`` is ``factor_full`` behind its guards.  The tests
compare each with the old step-by-step path in ``reduced_reference.py``
and pin how many hulls each builds.
"""
import random
import sys
from collections import Counter

import pytest

import tropc.essential
from reduced_reference import (reference_combination, reference_expand,
                               reference_factor_tangible_full,
                               reference_red_pow)
from tropc import (Factorization, IdealFG, NotTangibleFull,
                   TropicalPolynomial, divides, factor_full,
                   factor_tangible_full, full_closure, ideal_member_syntactic,
                   parse_poly, radical_member_1d, red_mul, red_pow, tangible)
from util import rand_coeff, rand_fraction, rand_poly, rand_tangible_full

P = parse_poly
QUARTIC = "2*x^4 + 5*x^3 + 5*x^2 + 3*x + 0"


def fact_key(fact):
    return (fact.unit, [(p, m) for p, m in fact.factors], fact.certified)


def factor_kinds(fact):
    """Which special factor shapes a factorization contains."""
    kinds = set()
    for p, _ in fact.factors:
        d = p.total_degree()
        if d == 2:
            kinds.add("quadratic")
        elif d == 1 and p.terms[(1,)].is_ghost():
            kinds.add("ghost lead")
        elif d == 1 and (0,) in p.terms and p.terms[(0,)].is_ghost():
            kinds.add("ghost constant")
    return kinds


class TestAgainstReducedReference:
    def test_pinned(self):
        f = P("x + y + 0")
        assert red_pow(f, 4) == reference_red_pow(f, 4)
        assert red_pow(f, 4) == full_closure(P("(x + y + 0)^4"))
        q = P(QUARTIC)
        for k in range(6):
            assert red_pow(q, k) == reference_red_pow(q, k)
        fact = factor_tangible_full(q)
        assert fact_key(fact) == fact_key(reference_factor_tangible_full(q))
        assert fact.expand() == reference_expand(fact) == full_closure(q)

    def test_red_pow(self):
        rng = random.Random(211)
        seen = Counter()
        for n in range(1200):
            arity = 1 + n % 3
            k = (n // 3) % 6
            # keep the arity-2/3 powers small: their hulls enumerate facets
            degree, terms = {1: (6, 6), 2: (2 if k < 3 else 1, 4),
                             3: (1, 4 if k < 3 else 3)}[arity]
            f = rand_poly(rng, arity, degree, terms, nonempty=n % 17 != 0)
            if n % 2:
                f = full_closure(f)
            seen[(f.is_empty(), any(c.is_ghost() for c in f.terms.values()),
                  n % 2)] += 1
            assert red_pow(f, k) == reference_red_pow(f, k), (f, k)
        assert seen[(True, False, 0)] and seen[(True, False, 1)]
        assert seen[(False, True, 0)] and seen[(False, True, 1)]

    def test_expand(self):
        rng = random.Random(223)
        pieces = [P("x + 2"), P("x + 0"), P("x + -1v"), P("0v*x + 1"),
                  P("x"), P("x + 3v"), P("x^2 + 3v*x + 4"),
                  P("x^2 + 1v*x + 1")]
        kinds = Counter()
        for n in range(1000):
            if n % 2:
                f = rand_poly(rng, 1, 8, 6)
            else:
                f = rng.choice(pieces)
                for _ in range(rng.randint(0, 3)):
                    f = red_mul(f, rng.choice(pieces))
                f = f.scale(rand_coeff(rng))
            fact = factor_full(f)
            kinds.update(factor_kinds(fact))
            assert fact.expand() == reference_expand(fact), f
        assert min(kinds[k] for k in ("quadratic", "ghost lead",
                                      "ghost constant")) >= 50, kinds
        # factors that are not full themselves, where the closure matters
        for _ in range(200):
            fact = Factorization(rand_coeff(rng), [
                (rand_poly(rng, 1, 3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))], False)
            assert fact.expand() == reference_expand(fact), fact

    def test_combination(self):
        rng = random.Random(227)
        sizes = Counter()
        n = 0
        while n < 1000:
            f = rand_tangible_full(rng, rng.randint(1, 4))
            # powers of other polynomials, with or without a power of f,
            # so that several generators share the components of f
            gens = [red_pow(rand_tangible_full(rng, rng.randint(1, 3)),
                            rng.randint(1, 3))
                    for _ in range(rng.randint(0, 3))]
            if not gens or rng.random() < 0.5:
                gens.append(red_pow(f, rng.randint(1, 3)))
            rng.shuffle(gens)
            cert = radical_member_1d(f, IdealFG(1, gens))
            if cert is None:
                continue
            n += 1
            sizes[len(cert.combiners)] += 1
            combo = cert.combination()
            assert combo == reference_combination(cert.combiners)
            assert combo == red_pow(f, cert.m)
        assert sizes[1] and sizes[2] and sizes[3], sizes

    def test_factor_tangible_full(self):
        rng = random.Random(229)
        rejected = 0
        for n in range(1200):
            if n % 4 == 3:
                f = rand_poly(rng, 1, 6, 5)
            else:
                f = rand_tangible_full(rng, rng.randint(1, 6))
                if n % 4 == 1:
                    f = TropicalPolynomial(1, {
                        (e[0] + 2,): c for e, c in f.terms.items()})
                elif n % 4 == 2:
                    f = f.scale(tangible(rand_fraction(rng)))
            try:
                expected = fact_key(reference_factor_tangible_full(f))
            except NotTangibleFull:
                rejected += 1
                with pytest.raises(NotTangibleFull):
                    factor_tangible_full(f)
                continue
            assert fact_key(factor_tangible_full(f)) == expected, f
        assert 50 <= rejected <= 300


@pytest.fixture
def hull_builds(monkeypatch):
    """Counts calls of the two hull builders: the univariate closure off the
    sweep, and the complex that every other closure, essential part and
    classification goes through.  Every module binding of either is
    patched, since ``univariate`` and ``ideals`` import ``_close_1d``."""
    count = [0]

    def counted(build):
        def wrapper(*args):
            count[0] += 1
            return build(*args)
        return wrapper
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and n.startswith("tropc.")]
    for name in ("_complex", "_close_1d"):
        build = getattr(tropc.essential, name)
        wrapper = counted(build)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is build:
                    monkeypatch.setattr(module, attr, wrapper)

    def builds(fn, *args):
        count[0] = 0
        fn(*args)
        return count[0]
    return builds


class TestHullBuildBudget:
    """Hulls built per call on fixed inputs; each count is below that of
    the old step-by-step closures (given per line)."""

    def test_red_pow(self, hull_builds):
        assert hull_builds(red_pow, P("x + y + 0"), 4) == 1        # was 3
        assert hull_builds(red_pow, P("x + y + z + 0"), 2) == 1    # was 2
        assert hull_builds(red_pow, P(QUARTIC), 3) == 1            # was 3

    def test_factorization(self, hull_builds):
        assert hull_builds(factor_full, P(QUARTIC)) == 1           # was 6
        assert hull_builds(factor_full, P("x^2 + 3v*x + 4")) == 1  # was 3
        assert hull_builds(factor_tangible_full, P(QUARTIC)) == 1  # was 8

    def test_divides(self, hull_builds):
        f, g = P("x^2 + 3*x + 4"), P("x + 1")
        assert hull_builds(divides, f, g) == 3                     # was 7

    def test_radical_member(self, hull_builds):
        f = P("x^2 + 1*x + 0")
        ideal = IdealFG(1, [red_pow(f, 2)])
        assert hull_builds(radical_member_1d, f, ideal) == 4       # was 8
        ideal = IdealFG(1, [red_pow(P("x + 0"), 2), red_pow(P("x + 2"), 2)])
        assert hull_builds(radical_member_1d, P("x + 0"), ideal) == 4  # was 8

    def test_ideal_member(self, hull_builds):
        g = P("x^2 + 1*x + 0")
        ideal = IdealFG(1, [g])
        f = P("x + 3") * g
        assert ideal_member_syntactic(f, ideal)
        assert hull_builds(ideal_member_syntactic, f, ideal) == 2  # was 3
