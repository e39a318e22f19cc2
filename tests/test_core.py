"""Semiring arithmetic: pinned examples and algebraic laws."""
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropc import (NEG_INFINITY, InversionOfNegInfinity, RootOfNegInfinity,
                   TropicalNumber, TropicalPolynomial, compare,
                   corner_locus_2d, ghost, ghost_of, parse_poly, project,
                   tangible, trop_add, trop_inv, trop_mul, trop_pow,
                   trop_root)
from util import rand_number, rand_poly


def fractions():
    return st.fractions(min_value=-50, max_value=50, max_denominator=6)


def numbers():
    return st.one_of(
        st.just(NEG_INFINITY),
        st.builds(tangible, fractions()),
        st.builds(ghost, fractions()),
    )


class TestExamples:
    def test_addition_table(self):
        assert trop_add(tangible(2), tangible(3)) == tangible(3)
        assert trop_add(tangible(2), tangible(2)) == ghost(2)
        assert trop_add(ghost(2), ghost(2)) == ghost(2)
        assert trop_add(tangible(2), ghost(2)) == ghost(2)
        assert trop_add(ghost(2), tangible(3)) == tangible(3)
        assert trop_add(tangible(3), ghost(2)) == tangible(3)
        assert trop_add(NEG_INFINITY, tangible(5)) == tangible(5)
        assert trop_add(NEG_INFINITY, ghost(5)) == ghost(5)
        assert trop_add(NEG_INFINITY, NEG_INFINITY) == NEG_INFINITY

    def test_multiplication_table(self):
        assert trop_mul(tangible(2), tangible(3)) == tangible(5)
        assert trop_mul(tangible(2), ghost(3)) == ghost(5)
        assert trop_mul(ghost(2), ghost(3)) == ghost(5)
        assert trop_mul(NEG_INFINITY, ghost(3)) == NEG_INFINITY
        assert trop_mul(tangible(0), ghost(7)) == ghost(7)

    def test_order(self):
        assert compare(tangible(2), ghost(2)) < 0
        assert compare(ghost(2), tangible(3)) < 0
        assert compare(NEG_INFINITY, tangible(-100)) < 0
        assert compare(tangible(5), tangible(5)) == 0

    def test_ghost_map(self):
        assert ghost_of(tangible(3)) == ghost(3)
        assert ghost_of(ghost(3)) == ghost(3)
        assert ghost_of(NEG_INFINITY) == NEG_INFINITY

    def test_projection(self):
        assert project(tangible(Fraction(5, 2))) == Fraction(5, 2)
        assert project(ghost(3)) == Fraction(3)
        assert project(NEG_INFINITY) is None

    def test_inverse_and_powers(self):
        assert trop_inv(tangible(3)) == tangible(-3)
        assert trop_inv(ghost(3)) == ghost(-3)
        with pytest.raises(InversionOfNegInfinity):
            trop_inv(NEG_INFINITY)
        assert trop_pow(tangible(2), 3) == tangible(6)
        assert trop_pow(ghost(2), 3) == ghost(6)
        assert trop_pow(NEG_INFINITY, 3) == NEG_INFINITY
        assert trop_pow(ghost(5), 0) == tangible(0)
        assert trop_pow(NEG_INFINITY, 0) == tangible(0)
        assert trop_pow(ghost(2), -3) == ghost(-6)
        # a negative power inverts, and -inf has no inverse
        for k in (-1, -2):
            with pytest.raises(InversionOfNegInfinity):
                trop_pow(NEG_INFINITY, k)
            with pytest.raises(InversionOfNegInfinity):
                NEG_INFINITY ** k
        assert trop_root(tangible(6), 3) == tangible(2)
        assert trop_root(ghost(5), 2) == ghost(Fraction(5, 2))
        with pytest.raises(RootOfNegInfinity):
            trop_root(NEG_INFINITY, 2)

    def test_zeroth_root_raises(self):
        # a value error, as a negative polynomial power; -inf has no root
        for a in (tangible(6), ghost(Fraction(-5, 2)), tangible(0)):
            with pytest.raises(ValueError, match="zeroth root"):
                a.root(0)
            with pytest.raises(ValueError, match="zeroth root"):
                trop_root(a, 0)
        for k in (0, 2):
            with pytest.raises(RootOfNegInfinity):
                trop_root(NEG_INFINITY, k)

    def test_text_round_trip(self):
        for a in (tangible(Fraction(-5, 2)), ghost(3), NEG_INFINITY):
            assert TropicalNumber.parse(str(a)) == a
            assert TropicalNumber.from_json(a.to_json()) == a

    def test_parse_refuses_exponent_notation(self):
        # Fraction would build 10^k in full; the refusal comes first, so a
        # huge exponent costs nothing
        for text in ("1e999999999", "1E5", "-2e-3", "1e3v", " 5e0 "):
            with pytest.raises(ValueError, match="exponent notation"):
                TropicalNumber.parse(text)
        assert TropicalNumber.parse("1.5") == tangible(Fraction(3, 2))
        assert TropicalNumber.parse("-0.25v") == ghost(Fraction(-1, 4))


class TestExactValues:
    def test_float_refused(self):
        # 0.1 is not a rational with a short denominator: refuse, not round
        for make in (tangible, ghost):
            with pytest.raises(TypeError):
                make(0.1)
        with pytest.raises(TypeError):
            TropicalNumber("t", 0.5)
        assert tangible("1/10").value == Fraction(1, 10)
        assert ghost(3).value == Fraction(3)
        assert TropicalNumber("g", 2) == ghost(2)

    def test_every_entry_point_reads_exactly(self):
        # one rule for every value from outside: exponent notation is
        # refused before Fraction would build 10^k in full (10^6 here, so
        # a missing refusal costs a fraction of a second, not a hang), and
        # a float, a JSON one included, is refused as inexact
        big = "1e1000000"

        def poly_json(value):
            return {"arity": 1, "terms": [
                {"exp": [1], "coeff": {"tag": "t", "value": value}}]}

        cases = [
            (ValueError, lambda: tangible(big)),
            (ValueError, lambda: ghost("2E1000000")),
            (ValueError, lambda: TropicalNumber("t", big)),
            (ValueError, lambda: TropicalNumber.from_json(
                {"tag": "t", "value": big})),
            (ValueError, lambda: TropicalPolynomial.from_json(poly_json(big))),
            (ValueError, lambda: corner_locus_2d(
                parse_poly("x + y + 0"), (big, 0, "1e1000001", 1))),
            (TypeError, lambda: TropicalNumber.from_json(
                {"tag": "t", "value": 0.1})),
            (TypeError, lambda: TropicalPolynomial.from_json(poly_json(0.1))),
        ]
        for error, call in cases:
            with pytest.raises(error):
                call()
        for value, exact in ((7, Fraction(7)), (Fraction(-1, 3),
                             Fraction(-1, 3)), ("-5/2", Fraction(-5, 2)),
                             ("1.5", Fraction(3, 2)), (" 3 ", Fraction(3))):
            for make in (tangible, ghost):
                assert make(value).value == exact
            assert TropicalNumber.from_json(
                {"tag": "g", "value": value}) == ghost(exact)
            assert TropicalPolynomial.from_json(poly_json(value)).terms == {
                (1,): tangible(exact)}
        f = parse_poly("x + y + 0")
        assert corner_locus_2d(f, ("-5/2", " -3 ", 4, "1.5")) == (
            corner_locus_2d(f, (Fraction(-5, 2), -3, 4, Fraction(3, 2))))

    def test_json_round_trip_unchanged(self):
        rng = random.Random(29)
        for _ in range(200):
            a = rand_number(rng)
            assert TropicalNumber.from_json(a.to_json()) == a
        for _ in range(100):
            f = rand_poly(rng, rng.randint(1, 3), 4, 6, nonempty=False)
            obj = f.to_json()
            assert TropicalPolynomial.from_json(obj) == f
            # a -inf coefficient is dropped on the way back in
            obj["terms"].append({"exp": [9] * f.arity,
                                 "coeff": NEG_INFINITY.to_json()})
            g = TropicalPolynomial.from_json(obj)
            assert g == f and g.to_json() == f.to_json()

    def test_bad_tags_refused(self):
        with pytest.raises(ValueError, match="-inf carries no value"):
            TropicalNumber("ninf", Fraction(1))
        with pytest.raises(ValueError, match="unknown tag 'q'"):
            TropicalNumber("q", 1)

    def test_frozen_with_slots(self):
        a = tangible(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.value = Fraction(2)
        assert not hasattr(a, "__dict__")
        assert hash(a) == hash(tangible(Fraction(1)))


class TestLaws:
    @given(numbers(), numbers(), numbers())
    def test_add_associative(self, a, b, c):
        assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))

    @given(numbers(), numbers())
    def test_add_commutative(self, a, b):
        assert trop_add(a, b) == trop_add(b, a)

    @given(numbers(), numbers(), numbers())
    def test_mul_associative(self, a, b, c):
        assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))

    @given(numbers(), numbers())
    def test_mul_commutative(self, a, b):
        assert trop_mul(a, b) == trop_mul(b, a)

    @given(numbers(), numbers(), numbers())
    def test_distributive(self, a, b, c):
        assert trop_mul(a, trop_add(b, c)) == \
            trop_add(trop_mul(a, b), trop_mul(a, c))

    @given(numbers())
    def test_identities(self, a):
        assert trop_add(a, NEG_INFINITY) == a
        assert trop_mul(a, tangible(0)) == a
        assert trop_mul(a, NEG_INFINITY) == NEG_INFINITY

    @given(numbers())
    def test_not_idempotent_unless_bottom(self, a):
        doubled = trop_add(a, a)
        if a.is_neg_inf():
            assert doubled == a
        else:
            assert doubled == ghost_of(a)

    @given(numbers())
    def test_ghost_map_is_projection(self, a):
        assert ghost_of(ghost_of(a)) == ghost_of(a)

    @given(numbers(), numbers())
    def test_ghost_map_is_homomorphism(self, a, b):
        assert ghost_of(trop_add(a, b)) == trop_add(ghost_of(a), ghost_of(b))
        assert ghost_of(trop_mul(a, b)) == trop_mul(ghost_of(a), ghost_of(b))

    @given(numbers(), numbers())
    def test_projection_is_max_plus_epimorphism(self, a, b):
        pa, pb = project(a), project(b)
        add = project(trop_add(a, b))
        mul = project(trop_mul(a, b))
        if pa is None:
            assert add == pb and mul is None
        elif pb is None:
            assert add == pa and mul is None
        else:
            assert add == max(pa, pb)
            assert mul == pa + pb

    @given(numbers())
    def test_inverse_law(self, a):
        if a.is_neg_inf():
            return
        prod = trop_mul(a, trop_inv(a))
        assert project(prod) == 0
        assert prod.is_ghost() == a.is_ghost()

    @given(numbers(), st.integers(min_value=1, max_value=6))
    def test_root_inverts_power(self, a, k):
        if a.is_neg_inf():
            return
        assert trop_root(trop_pow(a, k), k) == a
