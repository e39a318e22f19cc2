"""Closures and certified factorizations on integer rows.

The hull hands closures integer heights and the factor walk reads integer
slopes, so no closure builds a ``Fraction``.  The tests compare full
closures, reduced products and powers, the univariate factor walks,
slope sequences, division and syntactic ideal membership with the old
``Fraction`` path kept in ``closure_reference.py``, and refuse
``Fraction`` and ``TropicalNumber`` on the closure path.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

import tropc.essential
import tropc.polynomial
from closure_reference import (reference_divides, reference_factor_full,
                               reference_factor_tangible_full,
                               reference_full_closure, reference_ideal_member,
                               reference_red_mul, reference_red_pow,
                               reference_residuation,
                               reference_roots_with_multiplicity,
                               reference_slope_sequence)
from tropc import (IdealFG, TropicalPolynomial, divides, equivalent,
                   essential_part, factor_full, factor_tangible_full,
                   full_closure, ghost, ideal_member_syntactic, parse_poly,
                   red_mul, red_pow, roots_with_multiplicity, slope_sequence,
                   tangible)
from tropc.ideals import _residuation
from util import rand_poly

P = parse_poly
KINDS = ["random", "fractional", "collinear", "flat", "single", "gaps"]


def same_rows(got, want):
    """Equal arity, den, row set and terms, not only equal polynomials."""
    return (got.arity == want.arity and got._den == want._den
            and set(got._rows) == set(want._rows)
            and dict(got.terms) == dict(want.terms))


def value(rng, denominators=range(1, 8)):
    return Fraction(rng.randint(-20, 20), rng.choice(denominators))


def coeff(rng, v):
    return ghost(v) if rng.random() < 0.4 else tangible(v)


def rand_case(rng, kind, arity, degree):
    """A nonempty polynomial of the given kind, about 40% ghost terms."""
    if kind == "single":
        return rand_poly(rng, arity, degree, 1)
    if kind == "gaps":  # few terms over a wide support
        return TropicalPolynomial(arity, {
            tuple(rng.randint(0, 3 * degree) for _ in range(arity)):
                coeff(rng, value(rng)) for _ in range(rng.randint(2, 3))})
    if kind == "collinear":
        step = tuple(rng.randint(0, 2) for _ in range(arity - 1)) + (1,)
        start = tuple(rng.randint(0, 2) for _ in range(arity))
        return TropicalPolynomial(arity, {
            tuple(a + j * d for a, d in zip(start, step)):
                coeff(rng, value(rng)) for j in range(rng.randint(2, 5))})
    f = rand_poly(rng, arity, degree, 6)
    if kind == "flat":  # heights affine in the exponent
        c = [value(rng, (1, 2, 3)) for _ in range(arity + 1)]
        return TropicalPolynomial(arity, {
            e: coeff(rng, c[0] + sum(a * x for a, x in zip(c[1:], e)))
            for e in f.terms})
    if kind == "fractional":  # denominators 2-7
        return TropicalPolynomial(arity, {
            e: coeff(rng, value(rng, range(2, 8))) for e in f.terms})
    return f


class TestAgainstClosureReference:
    """full_closure, red_mul and red_pow give the old Fraction path's rows
    over the same den."""

    def test_random(self):
        rng = random.Random(71)
        seen = Counter()
        for n in range(1200):
            arity = 1 + n % 3
            kind = KINDS[n // 3 % len(KINDS)]
            degree = (8, 3, 2)[arity - 1]
            f = rand_case(rng, kind, arity, degree)
            g = rand_case(rng, rng.choice(KINDS), arity, (4, 2, 1)[arity - 1])
            k = rng.randint(0, (4, 3, 2)[arity - 1])
            F = full_closure(f)
            assert same_rows(F, reference_full_closure(f)), f
            assert same_rows(red_mul(f, g), reference_red_mul(f, g)), (f, g)
            assert same_rows(red_pow(g, k), reference_red_pow(g, k)), (g, k)
            seen[arity, kind] += 1
            seen["ghost"] += not f.is_tangible_poly()
            seen["den > 1"] += F._den > 1
            seen["lattice ghost"] += \
                len(F._rows) > len(essential_part(f)._rows)
        assert all(seen[a, kind] >= 50 for a in (1, 2, 3) for kind in KINDS)
        assert min(seen["ghost"], seen["den > 1"], seen["lattice ghost"]) \
            >= 300, seen


class TestFrobeniusPowers:
    """red_pow closes f's hull dilated by k and never expands f ** k; it
    gives the rows of the closed expansion and of the old Fraction path,
    over the same den."""

    def test_random(self):
        rng = random.Random(89)
        seen = Counter()
        kinds = KINDS + ["empty"]
        for n in range(1200):
            arity = 1 + n % 3
            kind = kinds[n // 3 % len(kinds)]
            k = n // 24 % 9
            if kind == "empty":
                f = TropicalPolynomial(arity, {})
            else:  # about 35% ghost terms, the kind's values kept
                f = rand_case(rng, kind, arity, (8, 2, 1)[arity - 1])
                f = TropicalPolynomial(arity, {
                    e: (ghost if rng.random() < 0.35 else tangible)(c.value)
                    for e, c in f.terms.items()})
            got = red_pow(f, k)
            assert same_rows(got, full_closure(f ** k)), (f, k)
            assert same_rows(got, reference_red_pow(f, k)), (f, k)
            seen[arity, kind] += 1
            seen[arity, k] += 1
            seen["den > 1"] += got._den > 1
            seen["ghost vertex"] += not (
                essential_part(f).is_tangible_poly())
        assert all(seen[a, kind] >= 50 for a in (1, 2, 3) for kind in kinds)
        assert all(seen[a, k] >= 30 for a in (1, 2, 3) for k in range(9))
        assert min(seen["den > 1"], seen["ghost vertex"]) >= 300, seen

    def test_pinned(self):
        assert red_pow(P("x + 3"), 2) == P("x^2 + 3v*x + 6")
        assert red_pow(P("x + 1v"), 3) == P("x^3 + 1v*x^2 + 2v*x + 3v")
        assert red_pow(P("x*y + 0"), 2) == P("x^2*y^2 + 0v*x*y + 0")
        assert red_pow(P("x + 3"), 0) == P("0")
        assert red_pow(TropicalPolynomial(2, {}), 3).is_empty()
        with pytest.raises(ValueError):
            red_pow(P("x + 3"), -1)

    def test_no_expansion(self, monkeypatch):
        # the power is a dilated hull: no product or power is formed
        cases = [(P("(x+y+0)^6 + 3*x^2*y^2 + 1v*x*y"), 32, 18721),
                 (P("(x+y+z+0)^2 + 1*x*y*z + 2*x*y"), 16, 9401),
                 (P("2*x^4 + 5*x^3 + 1/2v*x^2 + 3*x + 0"), 64, 257)]

        def refuse(*args):
            raise AssertionError("red_pow expanded a power")
        for name in ("__mul__", "__pow__"):
            monkeypatch.setattr(TropicalPolynomial, name, refuse)
        for f, k, size in cases:
            assert len(red_pow(f, k)._rows) == size, (f, k)


def rand_univariate(rng, n):
    """Class n % 4: gapped with about 40% ghost terms, all tangible, a
    product of tangible-full pieces, or a concave profile with mostly
    ghost tags; denominators 1-7 and a lowest degree of 0-3."""
    kind = n % 4
    lo = rng.randint(0, 3)
    if kind < 2:
        f = rand_case(rng, rng.choice(KINDS), 1, 10)
        if kind == 1:
            f = f.projection()
    elif kind == 2:
        f = TropicalPolynomial(1, {(lo,): tangible(value(rng))})
        for _ in range(rng.randint(1, 6)):
            f = f * TropicalPolynomial(1, {(1,): tangible(0),
                                           (0,): tangible(value(rng))})
        return f
    else:
        degree = rng.randint(1, 10)
        slopes = sorted((value(rng) for _ in range(degree)), reverse=True)
        height = value(rng)
        terms = {}
        for e in range(degree, -1, -1):
            terms[(e,)] = (ghost if rng.random() < 0.6 else tangible)(height)
            if e:
                height += slopes[degree - e]
        f = TropicalPolynomial(1, terms)
    return TropicalPolynomial(1, {(e[0] + lo,): c for e, c in f.terms.items()})


def outcome(fn, *args):
    """The result of fn, or the name of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__


def fact_key(fact):
    if isinstance(fact, str):
        return fact
    return (fact.unit, [(p, m) for p, m in fact.factors], fact.certified)


class TestFactorWalkAgainstReference:
    """The integer factor walk, slope sequences and division give the old
    Fraction path's outputs."""

    def test_random(self):
        rng = random.Random(73)
        seen = Counter()
        for n in range(1200):
            f = rand_univariate(rng, n)
            want = fact_key(outcome(reference_factor_full, f))
            assert fact_key(outcome(factor_full, f)) == want, f
            want = fact_key(outcome(reference_factor_tangible_full, f))
            assert fact_key(outcome(factor_tangible_full, f)) == want, f
            seen["tangible-full"] += not isinstance(want, str)
            assert outcome(roots_with_multiplicity, f) == \
                outcome(reference_roots_with_multiplicity, f), f
            got = outcome(slope_sequence, f)
            want = outcome(reference_slope_sequence, f)
            if isinstance(want, str):
                assert got == want, f
            else:
                assert (got.slopes, got.edges) == (want.slopes, want.edges), f
                assert all(type(s) is Fraction for s in got.slopes)
            g = rand_univariate(rng, rng.randrange(4))
            if n % 2:  # a product, which g divides
                f = red_mul(f, g)
            got, want = divides(f, g), reference_divides(f, g)
            assert (got is None) == (want is None), (f, g)
            if want is not None:
                assert same_rows(got, want), (f, g)
            seen["divides"] += want is not None
            seen["none"] += want is None
        assert seen["tangible-full"] >= 300, seen
        assert seen["divides"] >= 500 and seen["none"] >= 100, seen


class TestIdealMemberAgainstReference:
    """One closure of the combination decides the last step of
    ideal_member_syntactic as the old two essential parts did."""

    def test_random(self):
        rng = random.Random(79)
        seen = Counter()
        for n in range(300):
            arity = 1 + n % 3
            degree = (4, 2, 1)[arity - 1]
            gens = [rand_poly(rng, arity, degree, 3)
                    for _ in range(rng.randint(1, 2))]
            ideal = IdealFG(arity, gens)
            roll = rng.random()
            if roll < 0.5:  # a combination of the generators
                f = None
                for g in gens:
                    h = rand_poly(rng, arity, degree, 2).projection()
                    f = h * g if f is None else f + h * g
            elif roll < 0.75:  # the same with one term dropped
                f = rand_poly(rng, arity, degree, 2) * gens[0]
                terms = dict(f.terms)
                if len(terms) > 1:
                    del terms[rng.choice(list(terms))]
                f = TropicalPolynomial(arity, terms)
            else:
                f = rand_poly(rng, arity, degree + 1, 4)
            got = ideal_member_syntactic(f, ideal)
            assert got == reference_ideal_member(f, ideal), (f, gens)
            seen[arity, got] += 1
        assert all(seen[a, s] >= 20 for a in (1, 2, 3) for s in (True, False)
                   ), seen


class TestResiduationAgainstReference:
    """_residuation on integer rows gives the old ``Fraction`` slacks' rows
    over the same den, and ideal_member_syntactic the old answer."""

    def test_random(self):
        rng = random.Random(83)
        seen = Counter()
        for n in range(1200):
            arity = 1 + n % 3
            degree = (4, 2, 1)[arity - 1]
            g = rand_case(rng, rng.choice(KINDS), arity, degree)
            kind = n // 3 % 3
            if kind == 0:  # a tangible multiple of g: h reaches every term
                f = rand_case(rng, "fractional", arity, degree).projection()
                f = f * g
            else:
                f = rand_case(rng, rng.choice(KINDS), arity, degree + 1)
            if kind == 1:  # g of higher degree than f in some variable
                k = rng.randrange(arity)
                top = max(e[k] for e in f.terms) + 1
                g = g * TropicalPolynomial(arity, {
                    tuple(top * (j == k) for j in range(arity)):
                        coeff(rng, value(rng, range(2, 8)))})
            for F in (f, full_closure(f)):
                got, want = _residuation(F, g), reference_residuation(F, g)
                assert (got is None) == (want is None), (F, g)
                if got is not None:
                    assert got._den == want._den, (F, g)
                    assert set(got._rows) == set(want._rows), (F, g)
                    seen["den > 1"] += got._den > 1
                seen["None" if got is None else "rows"] += 1
            gens = [g] + [rand_case(rng, "fractional", arity, degree)
                          for _ in range(rng.random() < 0.3)]
            ideal = IdealFG(arity, gens)
            member = ideal_member_syntactic(f, ideal)
            assert member == reference_ideal_member(f, ideal), (f, gens)
            seen[arity, member] += 1
            seen["ghost"] += not (f.is_tangible_poly() and
                                  g.is_tangible_poly())
        assert all(seen[a, m] >= 50 for a in (1, 2, 3) for m in (True, False)
                   ), seen
        assert min(seen["None"], seen["rows"], seen["den > 1"],
                   seen["ghost"]) >= 300, seen


class TestClosuresBuildNoFraction:
    def test_refused_on_the_closure_path(self, monkeypatch):
        # the inputs come from the constructor, then the closure path runs
        # with Fraction and TropicalNumber refused in both modules
        cases = [(P("2*x^4 + 5*x^3 + 1/2v*x^2 + 3*x + 0"),
                  P("1/3*x^2 + -1/7")),
                 (P("x^3 + 0"), P("x + 2v")),
                 (P("x*y + 1/2*x + y + 0"), P("x + 1/3v*y + 0")),
                 (P("(x + 1/2*y + 0)^2"), P("x^2 + y^2")),
                 (P("x*z + 1/5*x^2*z^2 + 0 + y"), P("x + y + z + 1/2v"))]
        want = [(reference_full_closure(f), reference_red_mul(f, g),
                 reference_red_pow(f, 2), reference_red_pow(g, 3))
                for f, g in cases]

        def refuse(*args):
            raise AssertionError("not on the closure path")
        for module in (tropc.essential, tropc.polynomial):
            for name in ("Fraction", "TropicalNumber"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        got = []
        for f, g in cases:
            got.append((full_closure(f), red_mul(f, g), red_pow(f, 2),
                        red_pow(g, 3)))
            assert essential_part(f) == essential_part(full_closure(f))
            assert equivalent(f, full_closure(f))
            assert not equivalent(f, g)
        monkeypatch.undo()
        for g_row, w_row in zip(got, want):
            assert all(same_rows(a, b) for a, b in zip(g_row, w_row))

    def test_refused_on_univariate_closures_and_powers(self, monkeypatch):
        # univariate closures off the sweep, and red_pow at k = 5 and 8 as
        # dilated hulls in arities 1-3
        cases = [P("2*x^4 + 5*x^3 + 1/2v*x^2 + 3*x + 0"), P("x^3 + 0"),
                 P("x^9 + 1/3v*x^4 + -2/7*x"), P("5v*x^2 + 1/2*x + -1"),
                 P("x^2 + 0*x + 0"), P("4/5v*x^6"),
                 P("x*y + 1/2*x + y + 0"), P("x^2 + 1/3v*x*y + y^2 + 1"),
                 P("x*z + 1/5*x^2*z^2 + 0 + y"), P("x + y + z + 1/2v")]
        want = [(reference_full_closure(f), reference_red_pow(f, 5),
                 reference_red_pow(f, 8)) for f in cases]
        flags = [essential_part(f).is_tangible_poly() for f in cases]

        def refuse(*args):
            raise AssertionError("not on the closure path")
        for module in (tropc.essential, tropc.polynomial):
            for name in ("Fraction", "TropicalNumber"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        got = [(full_closure(f), red_pow(f, 5), red_pow(f, 8)) for f in cases]
        guarded = [tropc.essential._closure_and_guard(f) for f in cases
                   if f.arity == 1]
        monkeypatch.undo()
        for g_row, w_row in zip(got, want):
            assert all(same_rows(a, b) for a, b in zip(g_row, w_row))
        for (closed, flag), g_row, want_flag in zip(guarded, got, flags):
            assert same_rows(closed, g_row[0]) and flag == want_flag
