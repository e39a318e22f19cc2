"""Polynomial structure, evaluation and decompositions."""
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import pytest

from fold_reference import (reference_evaluate, reference_mul,
                            reference_substitute)
from tropc import (ArityMismatch, EmptyPolynomial, NEG_INFINITY,
                   TropicalPolynomial, constant, ghost, parse_poly, tangible,
                   variable)
from util import eval_points, rand_poly


P = parse_poly


class TestStructure:
    def test_duplicate_exponents_merge_with_addition(self):
        f = TropicalPolynomial(1, {})
        g = P("x + x")
        assert g.terms == {(1,): ghost(0)}
        assert f.is_empty()

    def test_neg_inf_terms_dropped(self):
        f = TropicalPolynomial(1, {(2,): NEG_INFINITY, (0,): tangible(1)})
        assert f.terms == {(0,): tangible(1)}

    def test_degree_bounds(self):
        f = P("x^3 + 2*x")
        assert f.degree_bounds() == (1, 3)
        with pytest.raises(EmptyPolynomial):
            TropicalPolynomial(1, {}).total_degree()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            P("x + y") + P("x")
        with pytest.raises(ArityMismatch):
            P("x").evaluate([tangible(0), tangible(1)])


class TestEvaluation:
    def test_pinned_example(self):
        f = P("x^2 + 0*x + 2")
        assert f.evaluate([tangible(1)]) == ghost(2)
        assert f.evaluate([tangible(3)]) == tangible(6)
        assert f.evaluate([ghost(3)]) == ghost(6)
        assert f.evaluate([NEG_INFINITY]) == tangible(2)

    def test_empty_poly_evaluates_to_neg_inf(self):
        f = TropicalPolynomial(1, {})
        assert f.evaluate([tangible(5)]) == NEG_INFINITY
        assert f.is_root([tangible(5)])

    def test_root_detection(self):
        f = P("x + 1")
        assert f.is_root([tangible(1)])
        assert f.is_root([ghost(2)])
        assert not f.is_root([tangible(2)])
        assert not f.is_root([NEG_INFINITY])
        assert P("x").is_root([NEG_INFINITY])

    def test_ghost_coordinate_under_exponent_zero(self):
        f = P("y + 1")
        assert f.evaluate([ghost(5), tangible(2)]) == tangible(2)
        assert f.substitute({0: ghost(5)}) == P("x + 1")

    def test_neg_inf_coordinate_under_exponent_zero(self):
        f = P("x*y + y + 1")
        assert f.evaluate([NEG_INFINITY, tangible(2)]) == tangible(2)
        assert f.evaluate([NEG_INFINITY, NEG_INFINITY]) == tangible(1)
        assert f.substitute({0: NEG_INFINITY}) == P("x + 1")

    def test_substitute_everything_is_evaluate(self):
        rng = random.Random(19)
        for _ in range(60):
            arity = rng.randint(1, 3)
            f = rand_poly(rng, arity, 4, 6, nonempty=False)
            for p in eval_points(arity, [Fraction(rng.randint(-6, 6), 2)]):
                g = f.substitute(dict(enumerate(p)))
                assert g == constant(f.evaluate(p), 0)

    def test_scale_is_product_with_constant(self):
        rng = random.Random(29)
        for _ in range(60):
            f = rand_poly(rng, rng.randint(1, 3), 4, 6, nonempty=False)
            for c in (tangible(Fraction(rng.randint(-9, 9), 3)),
                      ghost(rng.randint(-9, 9)), NEG_INFINITY):
                assert f.scale(c) == f * constant(c, f.arity)

    def test_evaluation_is_semiring_morphism(self):
        rng = random.Random(7)
        for _ in range(60):
            arity = rng.randint(1, 3)
            f = rand_poly(rng, arity, 4, 5)
            g = rand_poly(rng, arity, 4, 5)
            for p in eval_points(arity, [rng.randint(-3, 3)])[:6]:
                assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)
                assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)


class TestDecompositions:
    def test_tg_decompose(self):
        f = P("x^2 + 1v*x + 2")
        t, g = f.tg_decompose()
        assert t == P("x^2 + 2")
        assert g == P("1v*x")
        assert t + g == f

    def test_ru_decompose_examples(self):
        f = P("x + 2v")
        r, u = f.ru_decompose()
        assert r == P("x + 2")
        assert u == P("2")
        f = P("3v")
        r, u = f.ru_decompose()
        assert r == P("3") and u == P("3")

    def test_ru_parts_are_tangible(self):
        rng = random.Random(3)
        for _ in range(40):
            f = rand_poly(rng, rng.randint(1, 2), 4, 5)
            r, u = f.ru_decompose()
            assert r.is_tangible_poly() and u.is_tangible_poly()


class TestJson:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            f = rand_poly(rng, rng.randint(1, 3), 5, 6)
            assert TropicalPolynomial.from_json(f.to_json()) == f

    def test_substitute(self):
        f = P("x*y + x + 3")
        g = f.substitute({1: tangible(2)})
        assert g == P("2*x + x + 3")
        assert g == TropicalPolynomial(1, {(1,): tangible(2), (0,): tangible(3)})


# ---------------------------------------------------------------------------
# the integer merge kernel against the TropicalNumber folds it replaced


def _value(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 7))


def _coordinate(rng):
    roll = rng.random()
    if roll < 0.15:
        return NEG_INFINITY
    return ghost(_value(rng)) if roll < 0.5 else tangible(_value(rng))


def _random_terms(rng, arity, count):
    terms = {}
    for _ in range(count):
        exp = tuple(rng.randint(0, 3) for _ in range(arity))
        terms[exp] = ghost(_value(rng)) if rng.random() < 0.4 \
            else tangible(_value(rng))
    return terms


def _fold_case(rng, kind):
    """(f, g, point, assignment) of one kind; ``tie2``/``tie3`` build f so
    that two or three tangible terms share the maximum at the point."""
    arity = rng.randint(1, 3)
    point = tuple(_coordinate(rng) for _ in range(arity))
    if kind == "empty":
        f = TropicalPolynomial(arity, {})
    elif kind == "single":
        f = TropicalPolynomial(arity, _random_terms(rng, arity, 1))
    elif kind in ("tie2", "tie3"):
        point = tuple(tangible(_value(rng)) for _ in range(arity))
        exps = list(iter_product(range(4), repeat=arity))
        rng.shuffle(exps)
        ties = int(kind[-1])
        if arity > 1 and rng.random() < 0.3:
            # a ghost coordinate under exponent 0 in every tied term
            point = (ghost(_value(rng)),) + point[1:]
            exps.sort(key=lambda e: e[0] > 0)
        top, terms = _value(rng), {}
        for exp in exps[:ties + rng.randint(0, 3)]:
            at = sum(e * c.value for e, c in zip(exp, point))
            gap = 0 if len(terms) < ties else rng.randint(1, 5)
            terms[exp] = tangible(top - gap - at)
        f = TropicalPolynomial(arity, terms)
    else:
        f = TropicalPolynomial(arity,
                               _random_terms(rng, arity, rng.randint(2, 6)))
    g = TropicalPolynomial(arity, _random_terms(rng, arity, rng.randint(0, 5)))
    fixed = rng.sample(range(arity), rng.randint(0, arity))
    assignment = {i: point[i] if rng.random() < 0.5 else _coordinate(rng)
                  for i in fixed}
    return f, g, point, assignment


class TestAgainstFoldReference:
    """Products, substitution and evaluation equal the old folds."""

    def assert_same(self, f, g, point, assignment):
        assert f.evaluate(point) == reference_evaluate(f, point)
        assert f * g == reference_mul(f, g)
        assert g * f == reference_mul(g, f)
        assert f.substitute(assignment) == \
            reference_substitute(f, assignment)

    def test_pinned_products(self):
        base, one = P("x + y + 0"), constant(tangible(0), 2)
        ref = one
        for _ in range(4):
            ref = reference_mul(ref, base)
        assert P("(x + y + 0)^4") == ref
        lin, c = P("x + 1v"), P("x + 2")
        ref = reference_mul(reference_mul(reference_mul(lin, lin), lin), c)
        assert P("(x + 1v)^3*(x + 2)") == ref
        assert ref == P("x^4 + 2*x^3 + 3v*x^2 + 4v*x + 5v")

    def test_random(self):
        rng = random.Random(61)
        kinds = ["random", "random", "empty", "single", "tie2", "tie3"]
        seen = Counter()
        for i in range(1200):
            kind = kinds[i % len(kinds)]
            f, g, point, assignment = _fold_case(rng, kind)
            self.assert_same(f, g, point, assignment)
            value = f.evaluate(point)
            seen[kind, f.arity] += 1
            seen["ghost from ties"] += kind.startswith("tie") and \
                value.is_ghost()
            seen["-inf coordinate"] += any(c.is_neg_inf() for c in point)
            seen["ghost coordinate"] += any(c.is_ghost() for c in point)
            seen["fractional"] += any(c.value.denominator > 1
                                      for c in f.terms.values())
        assert all(seen[k, a] for k in kinds for a in (1, 2, 3))
        assert seen["ghost from ties"] == 400
        assert min(seen["-inf coordinate"], seen["ghost coordinate"],
                   seen["fractional"]) >= 100
