"""Constructive roots and certified factorization."""
import random
from collections import Counter
from fractions import Fraction

import pytest

from factor_reference import (reference_factor_full,
                              reference_factor_tangible_full)
from tropc import (ArityMismatch, ArityUnsupported,
                   ConstantTangibleAmongInputs, ConstantTangibleInput,
                   EmptyPolynomial, NEG_INFINITY,
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

    def test_empty_polynomial(self):
        assert find_root(TropicalPolynomial(2, {})) == (tangible(0),) * 2

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

    def test_guards(self):
        with pytest.raises(ValueError, match="no polynomials given"):
            common_root([])
        with pytest.raises(ArityMismatch):
            common_root([P("x"), P("x + y")])
        assert common_root([TropicalPolynomial(1, {}), P("x + 1"),
                            P("x + 5")]) == (ghost(5),)

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
    def test_guards(self):
        with pytest.raises(ArityUnsupported):
            factor_full(P("x + y"))
        with pytest.raises(EmptyPolynomial):
            factor_full(TropicalPolynomial(1, {}))

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


def outcome(fn, f):
    """(unit, factors in order, certified), or the name of the error."""
    try:
        fact = fn(f)
    except Exception as exc:  # compared by name against the reference
        return type(exc).__name__
    return (fact.unit, [(p, m) for p, m in fact.factors], fact.certified)


def rand_factor_input(rng, n):
    """A univariate input of class n % 5: gapped with about 40% ghost
    coefficients, all ghost, all tangible, every position on a concave
    profile with mostly ghost tags, or one block (tangible ends, ghost
    interior) on a concave profile."""
    kind = n % 5
    lo = rng.randint(0, 3)
    if kind < 3:
        degree = rng.randint(0, 14)
        share = (0.4, 1.0, 0.0)[kind]
        terms = {}
        for e in range(degree + 1):
            if e in (0, degree) or rng.random() < 0.6:
                v = Fraction(rng.randint(-20, 20), rng.randint(2, 7))
                terms[(lo + e,)] = ghost(v) if rng.random() < share \
                    else tangible(v)
        return TropicalPolynomial(1, terms)
    degree = rng.randint(2, 14) if kind == 3 else rng.randint(4, 12)
    slopes = sorted((Fraction(rng.randint(-12, 12), rng.randint(2, 7))
                     for _ in range(degree)), reverse=True)
    height = Fraction(rng.randint(-6, 6), rng.randint(2, 7))
    terms = {}
    for e in range(degree, -1, -1):
        end = e in (0, degree)
        ghosted = rng.random() < 0.7 if kind == 3 else not end
        terms[(lo + e,)] = ghost(height) if ghosted else tangible(height)
        if e:
            height += slopes[degree - e]
    return TropicalPolynomial(1, terms)


def input_classes(f, unit, factors):
    """The classes the closure of f and its factorization fall in."""
    closed = full_closure(f)
    lo, hi = closed.degree_bounds()
    marks = [e[0] for e, c in closed.terms.items() if c.is_tangible()]
    classes = set()
    if any(c.is_ghost() for c in f.terms.values()):
        classes.add("ghost coefficients")
    if unit.is_ghost():
        classes.add("ghost unit")
    if marks and hi - max(marks) >= 2:
        classes.add("ghost lead run")
    if marks and min(marks) - lo >= 2:
        classes.add("ghost constant run")
    quads = sum(m for p, m in factors if p.total_degree() == 2)
    if len(marks) == 2 and quads >= 2:
        classes.add("nested quadratics")
    # x + a with a != -inf; x^lo is a bare x and does not count
    if any(len(p.terms) == 2 and p.total_degree() == 1 and m >= 2
           for p, m in factors):
        classes.add("repeated linear")
    if any(p.total_degree() == 2 and m >= 2 for p, m in factors):
        classes.add("repeated quadratic")
    return classes


class TestAgainstFactorReference:
    """The slope walk against the old coefficient surgery, merge and sort
    in ``factor_reference.py``: the same unit, factors in order and
    certificate, or the same error."""

    PINNED = ["2*x^4 + 5*x^3 + 5*x^2 + 3*x + 0", "x^2 + 3v*x + 4",
              "2v*x + 3v", "3v*x^3", "3v"]

    def test_pinned(self):
        for text in self.PINNED:
            f = P(text)
            assert outcome(factor_full, f) == \
                outcome(reference_factor_full, f), text
            assert outcome(factor_tangible_full, f) == \
                outcome(reference_factor_tangible_full, f), text
        assert outcome(factor_full, P("3v"))[0] == ghost(3)
        assert outcome(factor_tangible_full, P("x^2 + 3v*x + 4")) == \
            "NotTangibleFull"

    def test_random(self):
        rng = random.Random(307)
        seen = Counter()
        for n in range(1500):
            f = rand_factor_input(rng, n)
            expected = outcome(reference_factor_full, f)
            assert outcome(factor_full, f) == expected, f
            seen.update(input_classes(f, *expected[:2]))
            expected = outcome(reference_factor_tangible_full, f)
            assert outcome(factor_tangible_full, f) == expected, f
            seen["tangible-full" if isinstance(expected, tuple)
                 else expected] += 1
        assert seen["ghost coefficients"] >= 1000, seen
        assert seen["ghost unit"] >= 300, seen
        assert seen["ghost lead run"] >= 150, seen
        assert seen["ghost constant run"] >= 150, seen
        assert seen["nested quadratics"] >= 250, seen
        assert seen["repeated linear"] >= 600, seen
        assert seen["repeated quadratic"] >= 25, seen
        assert seen["tangible-full"] >= 300, seen
        assert seen["NotTangibleFull"] >= 900, seen
