"""Constructive roots and certified factorization."""
import random

import pytest

from tropc import (ArityUnsupported, ConstantTangibleAmongInputs,
                   ConstantTangibleInput, EmptyPolynomial, NEG_INFINITY,
                   TropicalPolynomial, common_root, factor_full,
                   factor_tangible_full, find_root, full_closure, ghost,
                   parse_poly, red_mul, roots_with_multiplicity, tangible,
                   NotTangibleFull)
from util import rand_coeff, rand_poly, rand_tangible_full

P = parse_poly


def factor_key(fact):
    return (fact.unit, tuple(sorted(
        (tuple(sorted((e, c.tag, c.value) for e, c in p.terms.items())), m)
        for p, m in fact.factors)))


class TestFindRoot:
    def test_pinned(self):
        assert find_root(P("x + 1")) == (tangible(1),)
        assert find_root(P("x^2 + 3*x + 4")) == (tangible(1),)
        assert find_root(P("x + 1v")) == (ghost(0),)
        assert find_root(P("x")) == (ghost(0),)
        assert find_root(P("1v")) == (tangible(0),)

    def test_tangible_constant_raises(self):
        with pytest.raises(ConstantTangibleInput):
            find_root(P("3"))

    def test_random_roots_verify(self):
        rng = random.Random(53)
        for _ in range(200):
            arity = rng.randint(1, 3)
            f = rand_poly(rng, arity, 5, 6)
            if f.is_constant() and f.constant_value().is_tangible():
                continue
            p = find_root(f)
            assert f.is_root(p)


class TestCommonRoot:
    def test_pinned(self):
        assert common_root([P("x + 1"), P("x + 5")]) == (ghost(5),)

    def test_tangible_constant_raises(self):
        with pytest.raises(ConstantTangibleAmongInputs):
            common_root([P("x + 1"), P("3")])

    def test_random_simultaneous(self):
        rng = random.Random(59)
        for _ in range(100):
            arity = rng.randint(1, 3)
            fs = []
            for _ in range(rng.randint(1, 4)):
                f = rand_poly(rng, arity, 4, 5)
                if f.is_constant() and f.constant_value().is_tangible():
                    continue
                fs.append(f)
            if not fs:
                continue
            p = common_root(fs)
            assert all(f.is_root(p) for f in fs)


class TestFactorTangibleFull:
    def test_pinned_quartic(self):
        fact = factor_tangible_full(P("2*x^4 + 5*x^3 + 5*x^2 + 3*x + 0"))
        assert fact.certified
        assert fact.unit == tangible(2)
        assert [(p, m) for p, m in fact.factors] == [
            (P("x + 3"), 1), (P("x + 0"), 1),
            (P("x + -2"), 1), (P("x + -3"), 1)]

    def test_ghost_vertex_rejected(self):
        with pytest.raises(NotTangibleFull):
            factor_tangible_full(P("x^2 + 3v*x + 0"))

    def test_guards_in_order(self):
        # arity before emptiness before tangible-fullness
        for f in (TropicalPolynomial(2, {}), P("x^2 + 3v*x*y + y^2")):
            with pytest.raises(ArityUnsupported):
                factor_tangible_full(f)
        with pytest.raises(EmptyPolynomial):
            factor_tangible_full(TropicalPolynomial(1, {}))
        with pytest.raises(NotTangibleFull):
            factor_tangible_full(P("x^2 + 3v*x + 0"))

    def test_random_round_trip(self):
        rng = random.Random(61)
        for _ in range(100):
            f = rand_tangible_full(rng, rng.randint(1, 6))
            fact = factor_tangible_full(f)
            assert fact.certified
            assert fact.expand() == full_closure(f)

    def test_roots_with_multiplicity(self):
        f = red_mul(P("x + 0"), P("x + 0"))
        assert roots_with_multiplicity(f) == [(tangible(0), 2)]
        g = red_mul(P("x^2"), P("x + 1"))
        assert roots_with_multiplicity(g) == [
            (tangible(1), 1), (NEG_INFINITY, 2)]


class TestFactorFull:
    def test_ghost_leading_pair(self):
        f = red_mul(P("0v*x + 2"), P("0v*x + 1"))
        fact = factor_full(f)
        assert fact.certified
        assert [(p, m) for p, m in fact.factors] == [
            (P("x + 2"), 1), (P("0v*x + 1"), 1)]

    def test_ghost_constant(self):
        fact = factor_full(P("x^2 + 2v"))
        assert fact.certified
        assert fact.unit == tangible(0)
        assert [(p, m) for p, m in fact.factors] == [
            (P("x + 1"), 1), (P("x + 1v"), 1)]

    def test_semitangible_quadratic_is_kept_whole(self):
        f = P("x^2 + 3v*x + 4")
        fact = factor_full(f)
        assert fact.certified
        assert [(p, m) for p, m in fact.factors] == [(P("x^2 + 3v*x + 4"), 1)]

    def test_random_certified(self):
        rng = random.Random(67)
        for _ in range(250):
            f = rand_poly(rng, 1, 8, 6)
            fact = factor_full(f)
            assert fact.certified
            assert fact.expand() == full_closure(f)

    def test_refactoring_is_stable(self):
        rng = random.Random(71)
        for _ in range(100):
            f = rand_poly(rng, 1, 7, 5)
            first = factor_full(f)
            second = factor_full(first.expand())
            assert factor_key(first) == factor_key(second)

    def test_products_of_linear_pieces(self):
        rng = random.Random(73)
        pieces = [P("x + 2"), P("x + 0"), P("x + -1v"), P("0v*x + 1"),
                  P("x"), P("x + 3v")]
        for _ in range(60):
            f = None
            for _ in range(rng.randint(1, 4)):
                p = rng.choice(pieces)
                f = p if f is None else red_mul(f, p)
            scale = rand_coeff(rng)
            f = f.scale(scale)
            fact = factor_full(f)
            assert fact.certified
            assert fact.expand() == full_closure(f)
