"""Polynomial structure, evaluation and decompositions."""
import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tropc.polynomial
from fold_reference import (reference_add, reference_evaluate,
                            reference_mul, reference_substitute)
from power_reference import reference_pow
from tropc import (ArityMismatch, EmptyPolynomial, NEG_INFINITY,
                   TropicalPolynomial, constant, essential_part, full_closure,
                   ghost, monomial, parse_poly, tangible, variable)
from tropc.polynomial import _sum
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

    def test_terms_are_read_only(self):
        given = {(2,): tangible(0), (1,): ghost(1)}
        f = TropicalPolynomial(1, given)
        given[(0,)] = tangible(5)  # the constructor keeps its own copy
        for p in (f, f * f, f + P("3"), f ** 1, f.substitute({})):
            with pytest.raises(TypeError):
                p.terms[(0,)] = tangible(1)
            with pytest.raises(AttributeError):
                p.terms = {}
        assert f.terms == {(2,): tangible(0), (1,): ghost(1)}
        assert f * f == P("x^4 + 1v*x^3 + 2v*x^2")

    def test_arity_is_read_only(self):
        f = P("x + 1")
        for p in (f, f * f, f.substitute({0: tangible(2)}),
                  TropicalPolynomial(2, {})):
            arity = p.arity
            with pytest.raises(AttributeError):
                p.arity = arity + 1
            assert p.arity == arity
            for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
                assert q == p and q.arity == arity

    def test_equal_rows_over_other_dens_differ(self):
        f, g = P("1/2*x"), P("1/3*x")
        assert f._rows == g._rows and f != g

    def test_constructor_validates(self):
        with pytest.raises(ArityMismatch):
            TropicalPolynomial(2, {(1,): tangible(0)})
        for exp in ((-1,), (1.5,), (Fraction(1, 2),), ("2",)):
            with pytest.raises(ValueError):  # not truncated to an int
                TropicalPolynomial(1, {exp: tangible(1), (2,): tangible(0)})
        for exp in ((True, 0), (1.0, Fraction(0))):
            f = TropicalPolynomial(2, {exp: tangible(1),
                                       (0, 1): NEG_INFINITY})
            assert f.terms == {(1, 0): tangible(1)}
            assert all(type(a) is int for a in next(iter(f.terms)))

    def test_arity_is_a_non_negative_int(self):
        # checked even with no terms to compare it against, and through
        # from_json too
        for arity in (-1, "2", 2.0, None, True):
            with pytest.raises(ValueError):
                TropicalPolynomial(arity, {})
        with pytest.raises(ValueError):
            TropicalPolynomial.from_json({"arity": -1, "terms": []})
        with pytest.raises(ValueError):
            TropicalPolynomial(-1, {(): tangible(0)})
        assert TropicalPolynomial(0, {(): tangible(1)}).arity == 0
        assert TropicalPolynomial.from_json(
            {"arity": 3, "terms": []}) == TropicalPolynomial(3, {})

    def test_degree_bounds(self):
        f = P("x^3 + 2*x")
        assert f.degree_bounds() == (1, 3)
        with pytest.raises(EmptyPolynomial):
            TropicalPolynomial(1, {}).total_degree()
        with pytest.raises(EmptyPolynomial):
            TropicalPolynomial(1, {}).lower_degree()

    def test_eq_repr_and_monomial(self):
        assert (P("x") == 3) is False
        assert repr(P("x + 1/2v")) == (
            "TropicalPolynomial(arity=1, terms={"
            "(1,): TropicalNumber(tag='t', value=Fraction(0, 1)), "
            "(0,): TropicalNumber(tag='g', value=Fraction(1, 2))})")
        assert monomial(ghost(2), (1, 0, 3)) == TropicalPolynomial(
            3, {(1, 0, 3): ghost(2)})

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            P("x + y") + P("x")
        for f, point in ((P("x"), (tangible(0), tangible(1))),
                         (P("x + y"), (tangible(0),)),
                         (TropicalPolynomial(2, {}), ())):
            with pytest.raises(ArityMismatch):
                f.evaluate(point)
            with pytest.raises(ArityMismatch):
                f.is_root(point)


def assert_value(f, point, value):
    """``evaluate`` gives the value and ``is_root`` agrees with it."""
    assert f.evaluate(point) == value
    assert f.is_root(point) == value.is_ghost_or_bottom()


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
        for arity in (2, 3):
            f = TropicalPolynomial(arity, {})
            assert_value(f, (ghost(-1),) * arity, NEG_INFINITY)
            assert_value(f, (NEG_INFINITY,) * arity, NEG_INFINITY)

    def test_root_detection(self):
        f = P("x + 1")
        assert f.is_root([tangible(1)])
        assert f.is_root([ghost(2)])
        assert not f.is_root([tangible(2)])
        assert not f.is_root([NEG_INFINITY])
        assert P("x").is_root([NEG_INFINITY])

    def test_ghost_coordinate_under_exponent_zero(self):
        f = P("y + 1")
        assert_value(f, (ghost(5), tangible(2)), tangible(2))
        assert_value(f, (ghost(5), tangible(0)), tangible(1))
        assert_value(P("y + 3"), (tangible(5), ghost(4)), ghost(4))
        assert f.substitute({0: ghost(5)}) == P("x + 1")

    def test_neg_inf_coordinate_under_exponent_zero(self):
        f = P("x*y + y + 1")
        assert_value(f, (NEG_INFINITY, tangible(2)), tangible(2))
        assert_value(f, (NEG_INFINITY, ghost(2)), ghost(2))
        assert f.substitute({0: NEG_INFINITY}) == P("x + 1")

    def test_all_neg_inf_point(self):
        point = (NEG_INFINITY, NEG_INFINITY)
        assert_value(P("x*y + y + 1"), point, tangible(1))
        assert_value(P("x*y + 2*y + 1v"), point, ghost(1))
        assert_value(P("x*y + 2*y + x"), point, NEG_INFINITY)

    def test_tie_across_denominators(self):
        f = P("x^2 + 1/3*x + 1/2")
        assert_value(f, (tangible(Fraction(1, 6)),), ghost(Fraction(1, 2)))
        assert_value(f, (tangible(Fraction(1, 5)),), tangible(Fraction(8, 15)))

    def test_ghost_term_below_the_maximum(self):
        f = P("x^2 + 1v*x + 0")
        assert_value(f, (tangible(3),), tangible(6))
        assert_value(f, (tangible(-2),), tangible(0))
        assert_value(f, (tangible(Fraction(-1, 2)),), ghost(Fraction(1, 2)))

    def test_one_pass_kernel(self, monkeypatch):
        # evaluation stays off the merge kernel; a root test builds no
        # value, and neither does a root test of a product
        f = P("x^2 + 1/3*x*y + 1/2v")
        g = P("1/7*y + 2")
        point = (tangible(Fraction(1, 6)), ghost(1))
        fg = f * g  # the merge kernel is refused below

        def refuse(*args):
            raise AssertionError("not on the evaluation path")
        for name in ("_merge", "_over", "_rescale"):
            monkeypatch.setattr(tropc.polynomial, name, refuse)
        assert f.evaluate(point) == ghost(Fraction(3, 2))
        assert fg.evaluate(point) == ghost(Fraction(7, 2))
        monkeypatch.undo()
        for name in ("Fraction", "TropicalNumber"):
            monkeypatch.setattr(tropc.polynomial, name, refuse)
        assert f.is_root(point)
        assert not f.is_root((tangible(3), tangible(0)))
        assert (f * g).is_root(point)
        assert not (f * g).is_root((tangible(3), tangible(0)))

    def test_substitute_refuses_unknown_variables(self):
        f = P("x + y + 0")
        for i in (-1, 2, 5):
            with pytest.raises(ArityMismatch):
                f.substitute({i: tangible(1)})
            with pytest.raises(ArityMismatch):
                f.substitute({0: tangible(1), i: tangible(1)})
        assert f.substitute({1: tangible(1)}) == P("x + 1")

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
            for p in (f, f * f):  # terms built, and rows only
                assert pickle.loads(pickle.dumps(p)) == p
                assert copy.deepcopy(p) == p

    def test_substitute(self):
        f = P("x*y + x + 3")
        g = f.substitute({1: tangible(2)})
        assert g == P("2*x + x + 3")
        assert g == TropicalPolynomial(1, {(1,): tangible(2), (0,): tangible(3)})


# ---------------------------------------------------------------------------
# the integer kernels against the TropicalNumber folds they replaced


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
    """Products, sums, powers, substitution, evaluation and root tests equal
    the old folds."""

    def assert_same(self, f, g, point, assignment, k):
        value = reference_evaluate(f, point)
        assert f.evaluate(point) == value
        assert f.is_root(point) == value.is_ghost_or_bottom()
        assert f * g == reference_mul(f, g)
        assert g * f == reference_mul(g, f)
        assert f + g == reference_add(f, g)
        assert g + f == reference_add(g, f)
        assert f.substitute(assignment) == \
            reference_substitute(f, assignment)
        ref = constant(tangible(0), f.arity)
        for _ in range(k):
            ref = reference_mul(ref, f)
        power = f ** k
        assert power == ref and power is not f

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
            self.assert_same(f, g, point, assignment, i // 6 % 6)
            value = f.evaluate(point)
            seen[kind, f.arity] += 1
            seen["ghost from ties"] += kind.startswith("tie") and \
                value.is_ghost()
            seen["-inf coordinate"] += any(c.is_neg_inf() for c in point)
            seen["ghost coordinate"] += any(c.is_ghost() for c in point)
            seen["fractional"] += any(c.value.denominator > 1
                                      for c in f.terms.values())
            # at arity 0 the point is empty: off the one-variable path
            everything = f.substitute(dict(enumerate(point)))
            assert everything.is_root(()) == value.is_ghost_or_bottom()
            assert constant(value, 0).evaluate(()) == value
            # the branches of the one-pass kernel, on nonempty f
            if f.is_empty():
                continue
            grows = any(f._den % c.value.denominator for c in point
                        if not c.is_neg_inf())
            dead = [i for i, c in enumerate(point) if c.is_neg_inf()]
            seen["den grows"] += grows
            seen["den grows, arity 1"] += grows and f.arity == 1
            seen["-inf drops every row"] += all(
                any(e[i] for i in dead) for e, _, _ in f._rows)
            seen["ghost coordinate, arity 1"] += \
                f.arity == 1 and point[0].is_ghost()
        assert all(seen[k, a] for k in kinds for a in (1, 2, 3))
        assert seen["ghost from ties"] == 400
        assert min(seen["-inf coordinate"], seen["ghost coordinate"],
                   seen["fractional"]) >= 100
        assert min(seen["den grows"], seen["den grows, arity 1"],
                   seen["-inf drops every row"],
                   seen["ghost coordinate, arity 1"]) >= 50, seen


    def test_chains(self):
        # kernels fed by kernels: no terms are read between them, and the
        # denominators 2, 3 and 7 put a product's common denominator above
        # the least one whenever a term that carried a factor loses the
        # maximum; every output still has the least den
        rng = random.Random(71)
        seen = Counter()

        def poly(arity):
            return TropicalPolynomial(arity, {
                tuple(rng.randint(0, 2) for _ in range(arity)):
                (ghost if rng.random() < 0.4 else tangible)(
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))))
                for _ in range(rng.randint(0, 4))})

        for _ in range(400):
            arity = rng.randint(1, 3)
            f, g, h = poly(arity), poly(arity), poly(arity)
            point = tuple(_coordinate(rng) for _ in range(arity))
            fixed = rng.sample(range(arity), rng.randint(0, arity))
            assignment = {i: _coordinate(rng) for i in fixed}
            rest = tuple(c for i, c in enumerate(point) if i not in fixed)
            fg = reference_mul(f, g)
            cube = reference_mul(reference_mul(f, f), f)
            cases = [(lambda: f * g * h, reference_mul(fg, h), point),
                     (lambda: (f * g) + h, reference_add(fg, h), point),
                     (lambda: h + f * g, reference_add(h, fg), point),
                     (lambda: f * g, fg, point),
                     (lambda: (f ** 3).substitute(assignment),
                      reference_substitute(cube, assignment), rest)]
            for build, ref, at in cases:
                value = reference_evaluate(ref, at)
                got = build()
                assert got.is_root(at) == value.is_ghost_or_bottom()
                assert build().evaluate(at) == value
                assert build() == ref  # compared on the rows
                assert got._den == lcm(
                    *(c.value.denominator for c in got.terms.values()))
                assert got.terms == ref.terms
            seen["den reduced"] += \
                (f * g * h)._den < lcm(f._den, g._den, h._den)
            seen["ghost coordinate"] += any(c.is_ghost() for c in point)
            seen["-inf coordinate"] += any(c.is_neg_inf() for c in point)
        assert min(seen.values()) >= 50, seen


def _loop_case(rng, arity, kind):
    """(f, g, point) at one arity.  ``tie2``/``tie3``: two or three
    tangible terms share the maximum; ``ghost``: one tangible term holds
    the maximum with a positive power of a ghost coordinate; ``dead``: two
    or more -inf coordinates; ``random``: anything, ghost and -inf
    coordinates included.  Values and coordinates have dens 1-7."""
    exps = list(iter_product(range(4), repeat=arity))
    rng.shuffle(exps)
    point = [tangible(_value(rng)) for _ in range(arity)]
    if kind in ("tie2", "tie3", "ghost") and arity:
        if kind == "ghost":
            j = rng.randrange(arity)
            point[j] = ghost(point[j].value)
            exps.sort(key=lambda e: e[j] == 0)
            ties = 1
        else:
            ties = int(kind[-1])
            if rng.random() < 0.4:
                # a ghost coordinate under exponent 0 in every tied term
                j = rng.randrange(arity)
                point[j] = ghost(point[j].value)
                exps.sort(key=lambda e: e[j] > 0)
        top, terms = _value(rng), {}
        for exp in exps[:ties + rng.randint(0, 4)]:
            at = sum(e * c.value for e, c in zip(exp, point))
            if len(terms) < ties:
                terms[exp] = tangible(top - at)
            else:
                v = top - rng.randint(1, 5) - at
                terms[exp] = ghost(v) if rng.random() < 0.4 else tangible(v)
        items = list(terms.items())
        rng.shuffle(items)  # the tied terms come at any place in the rows
        f = TropicalPolynomial(arity, dict(items))
    else:
        if kind == "dead" and arity >= 2:
            for i in rng.sample(range(arity), rng.randint(2, arity)):
                point[i] = NEG_INFINITY
        else:
            point = [_coordinate(rng) for _ in range(arity)]
        f = TropicalPolynomial(arity, {
            exp: (ghost if rng.random() < 0.4 else tangible)(
                _value(rng)) for exp in exps[:rng.randint(1, 6)]})
    g = TropicalPolynomial(arity, {
        exp: (ghost if rng.random() < 0.4 else tangible)(_value(rng))
        for exp in exps[:rng.randint(0, 5)]})
    return f, g, tuple(point)


def _loop_branches(f, point):
    """The branches the row loop of ``_top`` takes on f at the point, in
    the order of f's rows (the first live row, a new maximum above an
    earlier one, a tie with the maximum and a row below it), and the
    exponents of the terms at the maximum."""
    top, taken, values = None, set(), {}
    for exp, c in ((e, f.terms[e]) for e, _, _ in f._rows):
        if any(e and p.is_neg_inf() for e, p in zip(exp, point)):
            continue
        s = values[exp] = c.value + sum(
            e * p.value for e, p in zip(exp, point) if e)
        taken.add("first" if top is None else "raise" if s > top else
                  "tie" if s == top else "below")
        top = s if top is None else max(top, s)
    return taken, [e for e, s in values.items() if s == top]


class TestWrittenOutLoops:
    """Evaluation and products at arities 0-5: the written-out loops at
    one, two and three variables and the general loops elsewhere equal the
    folds."""

    def test_against_folds(self):
        rng = random.Random(79)
        kinds = ["random", "random", "tie2", "tie3", "ghost", "dead"]
        seen = Counter()
        for i in range(3000):
            arity, kind = i % 6, kinds[i // 6 % len(kinds)]
            f, g, point = _loop_case(rng, arity, kind)
            value = reference_evaluate(f, point)
            assert f.evaluate(point) == value, (f, point)
            root = f.is_root(point)
            assert type(root) is bool and root == value.is_ghost_or_bottom()
            assert g.is_root(point) == \
                reference_evaluate(g, point).is_ghost_or_bottom()
            assert f * g == reference_mul(f, g)
            assert g * f == reference_mul(g, f)
            k = rng.randint(0, 3 if arity >= 4 else 4)
            ref = constant(tangible(0), arity)
            for _ in range(k):
                ref = reference_mul(ref, f)
            assert f ** k == ref
            # what the case reached
            branches, top = _loop_branches(f, point)
            loop = arity if arity in (1, 2, 3) else "general"
            for branch in branches:
                seen[loop, branch] += 1
            seen["arity", arity] += 1
            seen["general loop, arity >= 4"] += arity >= 4 and bool(branches)
            seen["-inf drops every row"] += not branches
            seen["two or more -inf coordinates"] += \
                sum(c.is_neg_inf() for c in point) >= 2
            ties = sum(not f.terms[e].is_ghost() for e in top)
            if ties >= 2:
                seen["tie of", min(ties, 3), arity] += 1
            lit = [j for j, c in enumerate(point) if c.is_ghost()]
            if len(top) == 1 and not f.terms[top[0]].is_ghost():
                decides = any(top[0][j] for j in lit)
                if decides and arity in (2, 3):
                    seen["ghost coordinate decides", arity] += 1
                    assert value.is_ghost()
            if top and any(all(e[j] == 0 for e in top) for j in lit):
                seen["ghost coordinate under exponent 0"] += 1
            for c in point:
                if not c.is_neg_inf():
                    seen["den", c.value.denominator] += 1
        floors = [(loop, branch) for loop in (1, 2, 3, "general")
                  for branch in ("first", "raise", "tie", "below")]
        floors += [("arity", a) for a in range(6)]
        floors += [("tie of", n, a) for n in (2, 3) for a in range(1, 6)]
        floors += [("ghost coordinate decides", 2),
                   ("ghost coordinate decides", 3),
                   "general loop, arity >= 4",
                   "-inf drops every row", "two or more -inf coordinates",
                   "ghost coordinate under exponent 0"]
        floors += [("den", d) for d in range(1, 8)]
        assert min(seen[key] for key in floors) >= 50, seen


class TestCanonicalOutputs:
    """Products, substitutions, essential parts, full closures and the
    decompositions skip the constructor's checks; each equals a checked
    copy of itself, den and rows included."""

    def test_random(self):
        rng = random.Random(67)
        kinds = ["random", "empty", "single", "tie2"]
        for i in range(400):
            f, g, _, assignment = _fold_case(rng, kinds[i % len(kinds)])
            outs = [f * g, g * f, f.substitute(assignment)]
            if not f.is_empty():
                outs += [essential_part(f), full_closure(f)]
            outs += [f.tangible_part(), f.ghost_part(), f.projection()]
            assert f.constant_value() == f.terms.get((0,) * f.arity,
                                                     NEG_INFINITY)
            for p in outs:
                checked = TropicalPolynomial(p.arity, dict(p.terms))
                assert p == checked
                assert p._den == checked._den
                assert set(p._rows) == set(checked._rows)
                assert all(len(e) == p.arity and
                           all(type(a) is int and a >= 0 for a in e) and
                           not c.is_neg_inf() for e, c in p.terms.items())


def _power_base(rng, kind):
    """A base of arity 1-3: no term, one term or 2-4 terms, values over
    dens 1-3, about 40% of them ghost."""
    arity = rng.randint(1, 3)
    count = {"empty": 0, "single": 1}.get(kind) or rng.randint(2, 4)
    terms = {}
    while len(terms) < count:
        exp = tuple(rng.randint(0, 3) for _ in range(arity))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        terms[exp] = ghost(v) if rng.random() < 0.4 else tangible(v)
    return TropicalPolynomial(arity, terms)


class TestPowerOneFactorAtATime:
    """f ** k is a copy of f multiplied by f k - 1 times, and a monomial's
    power is one row; both equal the frozen square-and-multiply."""

    def test_against_square_and_multiply(self):
        rng = random.Random(73)
        kinds = ["random", "random", "empty", "single"]
        seen = Counter()
        for i in range(1500):
            kind = kinds[i % len(kinds)]
            f = _power_base(rng, kind)
            big = f.arity >= 2 and len(f._rows) >= 3
            k = rng.randint(0, 12 if big else 40)
            got, want = f ** k, reference_pow(f, k)
            assert got._den == want._den, (f, k)
            assert len(got._rows) == len(got.terms) == len(want._rows)
            assert set(got._rows) == set(want._rows), (f, k)
            one = f ** 1
            assert one is not f and one == f
            with pytest.raises(ValueError):
                f ** -rng.randint(1, 3)
            seen["arity", f.arity] += 1
            seen[kind] += 1
            seen["ghost"] += not f.is_tangible_poly()
            seen["den > 1"] += got._den > 1
            seen["k <= 1"] += k <= 1
        assert min(seen.values()) >= 100, seen

    @pytest.fixture
    def products(self, monkeypatch):
        count = Counter()

        def counted(f, g, _mul=TropicalPolynomial.__mul__):
            count["products"] += 1
            count["pairs"] += len(f._rows) * len(g._rows)
            return _mul(f, g)
        monkeypatch.setattr(TropicalPolynomial, "__mul__", counted)
        return count

    def test_pairs_of_a_power(self, products):
        # square-and-multiply formed 5 products pairing 967,527 rows
        f = P("x + y + z + 0")
        products.clear()
        power = f ** 32
        assert products == {"products": 31, "pairs": 209_436}
        assert len(power.terms) == 6545  # every monomial of degree <= 32

    def test_monomial_power_is_one_row(self, products):
        k = 10 ** 9
        assert constant(tangible(3)) ** k == constant(tangible(3 * k))
        mono = TropicalPolynomial(2, {(1, 2): ghost(Fraction(-1, 3))})
        assert mono ** k == TropicalPolynomial(
            2, {(k, 2 * k): ghost(Fraction(-k, 3))})
        assert TropicalPolynomial(2, {}) ** k == TropicalPolynomial(2, {})
        assert not products


def _summands(rng):
    """1-8 polynomials of one arity 1-4 over dens 1-11, a few of them
    empty; most exponents come from a pool of four and many values are 0
    or 1, so rows tie across members and across dens."""
    arity = rng.randint(1, 4)
    pool = [tuple(rng.randint(0, 2) for _ in range(arity)) for _ in range(4)]
    polys = []
    for _ in range(rng.randint(1, 8)):
        terms = {}
        den = rng.choice((1, 2, 3, 5, 7, 11))
        for _ in range(0 if rng.random() < 0.15 else rng.randint(1, 4)):
            exp = rng.choice(pool) if rng.random() < 0.7 else \
                tuple(rng.randint(0, 3) for _ in range(arity))
            v = Fraction(rng.randint(-3, 3), den) if rng.random() < 0.6 \
                else Fraction(rng.randint(0, 1))
            terms[exp] = ghost(v) if rng.random() < 0.3 else tangible(v)
        polys.append(TropicalPolynomial(arity, terms))
    return polys


def _nested(rng, depth):
    """A sum in x and y whose summands are monomials, -inf, or
    parenthesized sums under a power or a factor."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if depth and roll < 0.3:
            tail = rng.choice(("", "^2", "*x", "*1/3v"))
            parts.append(f"({_nested(rng, depth - 1)}){tail}")
        elif roll < 0.35:
            parts.append("-inf")
        else:
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))
            mono = "".join(f"*{v}^{rng.randint(0, 2)}" for v in "xy")
            parts.append(f"{c}{'v' if rng.random() < 0.3 else ''}{mono}")
    return " + ".join(parts)


@st.composite
def _permuted_summands(draw):
    arity = draw(st.integers(1, 3))
    coeffs = st.builds(
        lambda v, g: ghost(v) if g else tangible(v),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.booleans())
    polys = draw(st.lists(st.builds(
        lambda terms: TropicalPolynomial(arity, terms),
        st.dictionaries(st.tuples(*[st.integers(0, 2)] * arity), coeffs,
                        max_size=4)), min_size=1, max_size=6))
    return polys, draw(st.permutations(polys))


class TestSumOfMany:
    """A sum of many polynomials is one merge of all their rows over one
    lcm of the dens: equal, den for den and row for row, to the left fold
    of the old ``+``, whatever the order of the summands."""

    def test_against_the_left_fold(self):
        rng = random.Random(83)
        seen = Counter()
        for _ in range(1500):
            polys = _summands(rng)
            got, want = _sum(polys), reduce(reference_add, polys)
            assert got._den == want._den, polys
            assert got._rows == want._rows, polys
            seen["arity", polys[0].arity] += 1
            seen["members", len(polys)] += 1
            seen["dens"] += len({p._den for p in polys}) > 1
            seen["empty member"] += any(p.is_empty() for p in polys)
            seen["ghost tie"] += any(
                g and not any(r[2] for p in polys for r in p._rows
                              if r[0] == e)
                for e, _, g in got._rows)
        assert min(seen.values()) >= 100, seen
        with pytest.raises(ArityMismatch):
            _sum([P("x"), P("x + 0"), P("x*y")])

    def test_parse_is_the_fold_of_its_summands(self):
        rng = random.Random(89)
        seen = Counter()
        for _ in range(400):
            summands = [_nested(rng, 2) for _ in range(rng.randint(1, 6))]
            got = parse_poly(" + ".join(summands), arity=2)
            want = reduce(reference_add,
                          [parse_poly(s, arity=2) for s in summands])
            assert got._den == want._den and got._rows == want._rows
            seen["nested"] += any("(" in s for s in summands)
            seen["ghost"] += not got.is_tangible_poly()
            seen["den > 1"] += got._den > 1
        assert min(seen.values()) >= 100, seen

    @given(_permuted_summands())
    def test_any_order(self, case):
        polys, permuted = case
        assert _sum(permuted) == _sum(polys) == reduce(reference_add, polys)

    def test_one_merge_of_n_rows(self, monkeypatch):
        # the left fold of + fed its merges 2 + 3 + ... + n rows
        fed = []

        def counted(arity, den, rows, _merge=tropc.polynomial._merge):
            rows = list(rows)
            fed.append(len(rows))
            return _merge(arity, den, rows)
        monkeypatch.setattr(tropc.polynomial, "_merge", counted)
        n = 400
        f = P(" + ".join(f"x^{i}" for i in range(1, n + 1)))
        assert fed == [n] and len(f._rows) == n
        fed.clear()
        primes = [p for p in range(2, 3000)
                  if all(p % d for d in range(2, int(p ** 0.5) + 1))][:n]
        f = P(" + ".join(f"1/{p}" for p in primes))
        assert fed == [n] and f == constant(tangible(Fraction(1, 2)))
