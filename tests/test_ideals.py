"""Finitely generated ideals: Nullstellensatz and radical membership."""
import random
from collections import Counter
from fractions import Fraction

import pytest

import tropc.ideals
from sets_reference import reference_radical_member_1d
from tropc import (ArityMismatch, CertificateSearchExceeded, EmptyPolynomial,
                   IdealFG, NotTangibleFull, TropicalNumber,
                   TropicalPolynomial, full_closure, ghost,
                   ideal_member_syntactic, is_ghost_potent, is_proper,
                   parse_poly, radical_member_1d, red_mul, red_pow,
                   roots_with_multiplicity, tangible,
                   verify_radical_certificate, weak_nullstellensatz)
from util import critical_points_1d, rand_poly, rand_tangible_full

P = parse_poly


class TestIdealBasics:
    def test_generators_are_closed_and_deduped(self):
        ideal = IdealFG(1, [P("x^2 + 0"), P("x^2 + 0v*x + 0"),
                            TropicalPolynomial(1, {})])
        assert ideal.generators == [full_closure(P("x^2 + 0"))]

    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            IdealFG(2, [P("x + 1")])

    def test_proper(self):
        assert is_proper(IdealFG(1, [P("x + 1")]))
        assert not is_proper(IdealFG(1, [P("x + 1"), P("3")]))
        assert is_proper(IdealFG(1, [P("3v")]))


class TestWeakNullstellensatz:
    def test_witness(self):
        res = weak_nullstellensatz(IdealFG(1, [P("x + 1"), P("x + 5")]))
        assert res.nonempty
        assert res.witness == (ghost(5),)

    def test_no_generators(self):
        res = weak_nullstellensatz(IdealFG(2, []))
        assert res.witness == (tangible(0), tangible(0))
        assert res.proof_of_emptiness is None

    def test_emptiness_proof(self):
        res = weak_nullstellensatz(IdealFG(1, [P("x + 1"), P("3")]))
        assert not res.nonempty
        assert res.proof_of_emptiness == P("3")

    def test_random_proper_ideals_have_witnesses(self):
        rng = random.Random(107)
        for _ in range(80):
            arity = rng.randint(1, 3)
            gens = [rand_poly(rng, arity, 4, 5)
                    for _ in range(rng.randint(1, 4))]
            ideal = IdealFG(arity, gens)
            res = weak_nullstellensatz(ideal)
            if is_proper(ideal):
                assert res.nonempty
                assert all(g.is_root(res.witness)
                           for g in ideal.generators)
            else:
                assert res.proof_of_emptiness is not None


class TestGhostPotency:
    def test_examples(self):
        assert is_ghost_potent(P("1v*x + 0v"))
        assert is_ghost_potent(TropicalPolynomial(1, {}))
        assert not is_ghost_potent(P("x + 1"))
        # tangible terms strictly under the hull do not block potency
        assert is_ghost_potent(P("0v*x^2 + -5*x + 0v"))

    def test_potent_powers_become_ghost(self):
        rng = random.Random(109)
        for _ in range(60):
            f = rand_poly(rng, 1, 4, 4)
            if is_ghost_potent(f):
                assert red_pow(f, 1).is_ghost_poly() or \
                    red_pow(f, 2).is_ghost_poly()


class TestRadicalMembership:
    def test_pinned_square(self):
        f = P("x + 0")
        cert = radical_member_1d(f, IdealFG(1, [red_pow(f, 2)]))
        assert cert is not None and cert.m == 2
        assert cert.combination() == red_pow(f, 2)

    def test_pinned_cube(self):
        f = P("x + 1")
        cert = radical_member_1d(f, IdealFG(1, [red_pow(f, 3)]))
        assert cert is not None and cert.m == 3

    def test_pinned_rejection(self):
        assert radical_member_1d(P("x + 1"), IdealFG(1, [P("x + 0")])) is None

    def test_candidate_must_be_tangible_full(self):
        with pytest.raises(NotTangibleFull):
            radical_member_1d(P("0v*x + 1"), IdealFG(1, [P("x + 1")]))

    def test_empty_candidate(self):
        with pytest.raises(EmptyPolynomial):
            radical_member_1d(TropicalPolynomial(1, {}),
                              IdealFG(1, [P("x + 0")]))

    def test_search_cap(self, monkeypatch):
        monkeypatch.setattr(tropc.ideals, "MAX_CERTIFICATE_EXPONENT", 0)
        with pytest.raises(CertificateSearchExceeded):
            radical_member_1d(P("x + 0"), IdealFG(1, [P("x^2 + 0")]))

    def test_random_powers(self):
        rng = random.Random(113)
        for _ in range(60):
            f = rand_tangible_full(rng, rng.randint(1, 4))
            k = rng.randint(1, 3)
            ideal = IdealFG(1, [red_pow(f, k)])
            cert = radical_member_1d(f, ideal)
            assert cert is not None
            assert cert.combination() == red_pow(f, cert.m)
            pts = [[p] for p in critical_points_1d(f, cert.combination())]
            assert verify_radical_certificate(f, cert, pts)

    def test_two_generators(self):
        f = red_mul(P("x + 0"), P("x + 2"))
        ideal = IdealFG(1, [red_pow(P("x + 0"), 2), red_pow(P("x + 2"), 2)])
        cert = radical_member_1d(f, ideal)
        assert cert is not None
        assert cert.combination() == red_pow(f, cert.m)


def radical_outcome(fn, f, ideal):
    """(m, combiners), None, or the name of the error."""
    try:
        cert = fn(f, ideal)
    except Exception as exc:  # compared by name against the reference
        return type(exc).__name__
    return None if cert is None else (cert.m, cert.combiners)


def rand_radical_case(rng, n):
    """Class n % 4: a tangible-full f against one power of itself; against
    a random polynomial listed before a power of f; against a tangible-full
    polynomial listed before a power of f; a random f against random
    generators."""
    kind = n % 4
    if kind == 3:
        f = rand_poly(rng, 1, 3, 3)
        return f, IdealFG(1, [rand_poly(rng, 1, 3, 3)
                              for _ in range(rng.randint(1, 2))])
    f = rand_tangible_full(rng, rng.randint(1, 3))
    power = red_pow(f, rng.randint(1, 3))
    if kind == 0:
        return f, IdealFG(1, [power])
    if kind == 1:
        return f, IdealFG(1, [rand_poly(rng, 1, 3, 3), power])
    return f, IdealFG(1, [rand_tangible_full(rng, rng.randint(1, 3)), power])


class TestAgainstRadicalReference:
    """The radical search without its unreachable guards against the old
    one in ``sets_reference.py`` (on the old com-set): the same exponent
    and combiners, the same None, or the same error."""

    def test_random(self, monkeypatch):
        tries = [0]
        red_pow_once = tropc.ideals.red_pow

        def counted(f, k):
            tries[0] += 1
            return red_pow_once(f, k)

        monkeypatch.setattr(tropc.ideals, "red_pow", counted)
        rng = random.Random(317)
        seen = Counter()
        for n in range(1000):
            f, ideal = rand_radical_case(rng, n)
            expected = radical_outcome(reference_radical_member_1d, f, ideal)
            tries[0] = 0
            assert radical_outcome(radical_member_1d, f, ideal) == expected, \
                (f, ideal.generators)
            seen["member" if isinstance(expected, tuple)
                 else expected or "not a member"] += 1
            if tries[0] > 1:
                seen["past the first exponent"] += 1
        assert seen["member"] >= 500, seen
        assert seen["not a member"] >= 50, seen
        assert seen["NotTangibleFull"] >= 100, seen
        assert seen["past the first exponent"] >= 100, seen


class TestSyntacticMembership:
    def test_tangible_multiples_accepted(self):
        rng = random.Random(127)
        for _ in range(40):
            g = rand_tangible_full(rng, rng.randint(1, 3))
            h = rand_tangible_full(rng, rng.randint(1, 3))
            ideal = IdealFG(1, [g])
            assert ideal_member_syntactic(full_closure(h * g), ideal)

    def test_generators_are_members(self):
        rng = random.Random(131)
        for _ in range(40):
            gens = [rand_poly(rng, 1, 3, 3) for _ in range(rng.randint(1, 3))]
            ideal = IdealFG(1, gens)
            for g in ideal.generators:
                assert ideal_member_syntactic(g, ideal)

    def test_non_member_rejected(self):
        ideal = IdealFG(1, [P("x + 0")])
        assert not ideal_member_syntactic(P("x + 5"), ideal)
        assert not ideal_member_syntactic(P("0"), ideal)

    def test_guards(self):
        with pytest.raises(ArityMismatch):
            ideal_member_syntactic(P("x"), IdealFG(2, [P("x + y")]))
        assert ideal_member_syntactic(TropicalPolynomial(1, {}),
                                      IdealFG(1, [P("x + 0")]))
        assert not ideal_member_syntactic(P("x + 0"), IdealFG(1, []))


class TestRowsOnly:
    def test_no_terms_and_no_number_arithmetic(self, monkeypatch):
        # the inputs come from the parser; then the ideal procedures, the
        # roots and the decompositions run with ``terms`` and the
        # TropicalNumber arithmetic refused
        f = P("(x + 1/2)^2*(x + -1/3)")
        radical = [P("(x + 1/2)*(x + -1/3)^2"), P("x + 5")]
        g1 = P("x^2 + 1/2v*x + 0")
        g2 = P("x + 1/2*y + 0")
        members = [(P("(x + 2)*(x^2 + 1/2v*x + 0)"), 1, [g1]),
                   (P("x + 5"), 1, [g1]),
                   (P("(y + 1/3)*(x + 1/2*y + 0)"), 2, [g2]),
                   (P("x*y + 7/2"), 2, [g2, P("y^2 + 1/5")])]
        nss = [(2, [P("x + 1/2*y + 1/3v"), P("x*y + 2")]),
               (1, [P("x + 1"), P("3")])]
        h = P("2*x^2*y + 1/2v*x + 1/3v*y + 5")

        def run_all():
            out = [radical_member_1d(f, IdealFG(1, radical)),
                   roots_with_multiplicity(f)]
            out += [ideal_member_syntactic(m, IdealFG(a, gens))
                    for m, a, gens in members]
            for a, gens in nss:
                ideal = IdealFG(a, gens)
                out += [weak_nullstellensatz(ideal), is_proper(ideal)]
            out += [h.constant_value(), h.tangible_part(), h.ghost_part(),
                    h.projection(), h.tg_decompose(), h.ru_decompose()]
            return out

        want = run_all()

        def refuse(*args):
            raise AssertionError("not on the row path")
        monkeypatch.setattr(TropicalPolynomial, "terms", property(refuse))
        for name in ("__pow__", "inv", "__mul__"):
            monkeypatch.setattr(TropicalNumber, name, refuse)
        got = run_all()
        monkeypatch.undo()
        assert got == want
        assert want[0] is not None and want[2:6] == [True, False, True, False]
        assert want[6].nonempty and want[7]
        assert not want[8].nonempty and not want[9]
