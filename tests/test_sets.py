"""Complement components of zero sets and plane corner loci."""
import random
from fractions import Fraction

import pytest

from tropc import (ArityMismatch, ArityUnsupported, Component1D, NEG_INFINITY,
                   TropicalPolynomial, comset1d, comset_leq, comset_meet,
                   corner_locus_2d, ghost, parse_poly, red_mul, tangible,
                   zset_contains)
from util import critical_points_1d, rand_poly

P = parse_poly


def in_comset(components, p):
    return any(c.contains(p) for c in components)


def assert_matches_membership(f, components, extra=()):
    """The component list describes exactly the non-roots of f."""
    for p in list(critical_points_1d(f)) + list(extra):
        assert in_comset(components, p) == (not f.is_root([p]))


class TestComset1D:
    def test_pinned_linear(self):
        comps = comset1d(P("x + 2"))
        assert comps == [
            Component1D((None, Fraction(2)), (None, Fraction(2)), True),
            Component1D((Fraction(2), None), None, False)]

    def test_ghost_poly_vanishes_everywhere(self):
        assert comset1d(P("2v*x + 1v")) == []
        assert comset1d(TropicalPolynomial(1, {})) == []

    def test_tangible_constant_never_vanishes(self):
        comps = comset1d(P("3"))
        assert comps == [Component1D((None, None), (None, None), True)]

    def test_monomial(self):
        comps = comset1d(P("3*x^2"))
        assert comps == [Component1D((None, None), None, False)]
        assert not in_comset(comps, NEG_INFINITY)
        assert not in_comset(comps, ghost(1))
        assert in_comset(comps, tangible(1))

    def test_ghost_coefficient_kills_interval(self):
        # the middle monomial dominates on (1, 3) but is ghost there
        comps = comset1d(P("x^2 + 3v*x + 4"))
        assert_matches_membership(P("x^2 + 3v*x + 4"), comps)
        assert not in_comset(comps, tangible(2))
        assert in_comset(comps, tangible(0))
        assert in_comset(comps, tangible(4))

    def test_random_against_sampling(self):
        rng = random.Random(79)
        for _ in range(200):
            f = rand_poly(rng, 1, 6, 6)
            if f.is_constant() and f.constant_value().is_tangible():
                continue
            assert_matches_membership(f, comset1d(f))

    def test_components_are_disjoint(self):
        rng = random.Random(83)
        for _ in range(100):
            f = rand_poly(rng, 1, 6, 6)
            comps = comset1d(f)
            for p in critical_points_1d(f):
                assert sum(c.contains(p) for c in comps) <= 1


class TestComsetAlgebra:
    def test_meet_matches_product(self):
        rng = random.Random(89)
        for _ in range(80):
            f = rand_poly(rng, 1, 4, 4)
            g = rand_poly(rng, 1, 4, 4)
            h = red_mul(f, g)
            via_product = comset1d(h)
            via_meet = comset_meet(comset1d(f), comset1d(g))
            for p in critical_points_1d(f, g, h):
                assert in_comset(via_product, p) == in_comset(via_meet, p)

    def test_leq(self):
        rng = random.Random(97)
        for _ in range(60):
            f = rand_poly(rng, 1, 4, 4)
            g = rand_poly(rng, 1, 4, 4)
            prod = comset1d(red_mul(f, g))
            assert comset_leq(prod, comset1d(f))
            assert comset_leq(prod, comset1d(g))
        assert comset_leq(comset1d(P("x + 2")), comset1d(P("x + 2")))
        assert not comset_leq(comset1d(P("x + 2")), comset1d(P("x + 2v")))

    def test_zset_contains(self):
        fs = [P("x + 1"), P("x + 5")]
        assert zset_contains(fs, [ghost(5)])
        assert not zset_contains(fs, [tangible(1)])

    def test_zset_contains_checks_every_arity_first(self):
        # x + 0 is not zero at 1, so a lazy check would stop before x + y
        fs = [P("x + 0"), P("x + y")]
        for order in (fs, fs[::-1]):
            with pytest.raises(ArityMismatch):
                zset_contains(order, (tangible(1),))

    def test_arity_guard(self):
        with pytest.raises(ArityUnsupported):
            comset1d(P("x + y"))


class TestCornerLocus2D:
    BOX = (Fraction(-5), Fraction(-5), Fraction(5), Fraction(5))

    def test_tropical_line(self):
        locus = corner_locus_2d(P("x + y + 0"), self.BOX)
        assert not locus.whole_plane
        assert len(locus.segments) == 3
        assert len(locus.rays) == 3
        for seg in locus.segments:
            assert (Fraction(0), Fraction(0)) in (seg["from"], seg["to"])
        dirs = sorted(tuple(r["dir"]) for r in locus.rays)
        assert dirs == [(-1, 0), (0, -1), (1, 1)]

    def test_ghost_poly_whole_plane(self):
        assert corner_locus_2d(P("1v*x + 0v*y"), self.BOX).whole_plane
        assert corner_locus_2d(TropicalPolynomial(2, {}), self.BOX).whole_plane

    def test_segments_are_ties(self):
        rng = random.Random(101)
        for _ in range(40):
            f = rand_poly(rng, 2, 4, 5)
            if len(f.terms) < 2:
                continue
            locus = corner_locus_2d(f, self.BOX)
            proj = {e: c.value for e, c in f.terms.items()}
            for seg in locus.segments:
                for pt in (seg["from"], seg["to"],
                           tuple((a + b) / 2 for a, b in
                                 zip(seg["from"], seg["to"]))):
                    vals = [h + e[0] * pt[0] + e[1] * pt[1]
                            for e, h in proj.items()]
                    top = max(vals)
                    (e1, e2) = seg["indices"]
                    v1 = proj[tuple(e1)] + e1[0] * pt[0] + e1[1] * pt[1]
                    v2 = proj[tuple(e2)] + e2[0] * pt[0] + e2[1] * pt[1]
                    assert v1 == v2 == top

    def test_tie_points_are_covered(self):
        # every grid point where the max is attained twice lies on the locus
        rng = random.Random(103)
        for _ in range(20):
            f = rand_poly(rng, 2, 3, 4)
            if len(f.terms) < 2:
                continue
            locus = corner_locus_2d(f, self.BOX)
            proj = {e: c.value for e, c in f.terms.items()}
            step = Fraction(1, 2)
            x = Fraction(-4)
            while x <= 4:
                y = Fraction(-4)
                while y <= 4:
                    vals = sorted((h + e[0] * x + e[1] * y
                                   for e, h in proj.items()), reverse=True)
                    if len(vals) >= 2 and vals[0] == vals[1]:
                        assert _on_locus(locus, (x, y))
                    y += step
                x += step


def _on_locus(locus, pt):
    for seg in locus.segments:
        a, b = seg["from"], seg["to"]
        cross = ((b[0] - a[0]) * (pt[1] - a[1])
                 - (b[1] - a[1]) * (pt[0] - a[0]))
        if cross == 0 and min(a[0], b[0]) <= pt[0] <= max(a[0], b[0]) \
                and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1]):
            return True
    return False
