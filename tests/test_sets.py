"""Complement components of zero sets and plane corner loci."""
import random
from collections import Counter
from fractions import Fraction

import pytest

import tropc.essential
import tropc.sets
from corner_reference import reference_corner_locus_2d as fraction_corner_locus
from sets_reference import (reference_components_with_monomials,
                            reference_corner_locus_2d)
from tropc import (ArityMismatch, ArityUnsupported, Component1D, NEG_INFINITY,
                   TropicalPolynomial, classify_monomials, comset1d,
                   comset_leq, comset_meet, corner_locus_2d, format_poly,
                   ghost, parse_poly, red_mul, tangible, zset_contains)
from tropc.sets import _components_with_monomials
from util import critical_points_1d, hull_builds, is_flat_lift, rand_poly

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

    def test_meet_sorts_ghost_only_components(self):
        # no tangible part: sorted by the ghost interval's lower end, an
        # unbounded one first
        a = [Component1D(None, (Fraction(5), Fraction(9)), False),
             Component1D(None, (Fraction(1), Fraction(4)), False),
             Component1D(None, (None, Fraction(0)), False)]
        meet = comset_meet(a, [Component1D(None, (None, None), False)])
        assert meet == a[::-1]


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

    def test_arity_guard(self):
        with pytest.raises(ArityUnsupported):
            corner_locus_2d(P("x + 0"), self.BOX)

    def test_ghost_poly_whole_plane(self):
        assert corner_locus_2d(P("1v*x + 0v*y"), self.BOX).whole_plane
        assert corner_locus_2d(TropicalPolynomial(2, {}), self.BOX).whole_plane

    def test_bad_boxes_raise(self):
        # an inverted box, even for a polynomial that vanishes everywhere,
        # and a float bound (a binary float is not the rational it was
        # written as); a zero-width box stays allowed
        for f in (P("x + y + 0"), P("1v*x + 0v*y"), TropicalPolynomial(2, {})):
            for box in ((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)):
                with pytest.raises(ValueError):
                    corner_locus_2d(f, box)
            for box in ((0.1, 0, 1, 1), (0, 0, 1, 1.0)):
                with pytest.raises(TypeError):
                    corner_locus_2d(f, box)
            box = (0, -5, 0, 5)
            assert corner_locus_2d(f, box) == reference_corner_locus_2d(f, box)

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


def rand_value(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 6))


def rand_term(rng, ghost_share):
    return (ghost if rng.random() < ghost_share else tangible)(rand_value(rng))


def rand_comset_input(rng, n):
    """A univariate input of class n % 4: a constant, a single
    non-constant term, a gapped polynomial with its constant, or one whose
    constant is dropped 30% of the time; about a third of terms ghost."""
    kind = n % 4
    if kind < 2:
        e = 0 if kind == 0 else rng.randint(1, 9)
        return TropicalPolynomial(1, {(e,): rand_term(rng, 0.3)})
    degree = rng.randint(1, 10)
    terms = {}
    if kind == 2 or rng.random() < 0.7:
        terms[(0,)] = rand_term(rng, 0.35)
    for e in range(1, degree + 1):
        if e == degree or rng.random() < 0.5:
            terms[(e,)] = rand_term(rng, 0.35)
    return TropicalPolynomial(1, terms)


def rand_corner_input(rng, n):
    """(class, polynomial) of class n % 5: empty, a collinear support, all
    ghost, or one of two general draws with about 35% ghost terms."""
    kind = n % 5
    if kind == 0:
        return "empty", TropicalPolynomial(2, {})
    size = rng.randint(1, 6)
    if kind == 1:
        base = (rng.randint(0, 2), rng.randint(0, 2) + 6)
        step = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
        exps = {(base[0] + k * step[0], base[1] + k * step[1])
                for k in range(size)}
    else:
        exps = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(size)}
    terms = {e: rand_term(rng, 1.0 if kind == 2 else 0.35) for e in exps}
    name = {1: "collinear", 2: "all ghost"}.get(kind, "general")
    return name, TropicalPolynomial(2, terms)


def fractional_box(rng):
    """A box with fractional corners, possibly degenerate."""
    x0, y0 = rand_value(rng), rand_value(rng)
    return (x0, y0, x0 + Fraction(rng.randint(0, 30), rng.randint(1, 7)),
            y0 + Fraction(rng.randint(0, 30), rng.randint(1, 7)))


def rand_box(rng):
    """The fixed box half of the time, else a fractional one."""
    if rng.random() < 0.5:
        return TestCornerLocus2D.BOX
    return fractional_box(rng)


def rand_large_support(rng, n):
    """(class, polynomial) with 10-40 terms, mostly few, of class n % 3:
    random exponents up to 7 with about 30% ghost terms; a product of
    linear forms drawn with repeats from a pool of three, so many cells
    and many terms inside edges; or a collinear support whose heights are
    a product of binomials with repeated roots, so many terms tie on one
    edge."""
    kind = n % 3
    size = 10 + int(31 * rng.random() ** 4)
    if kind == 0:
        terms = {}
        while len(terms) < size:
            e = (rng.randint(0, 7), rng.randint(0, 7))
            terms[e] = rand_term(rng, 0.3)
        return "random", TropicalPolynomial(2, terms)
    if kind == 1:
        pool = [f"({rng.randint(-3, 3)}*x + {rng.randint(-3, 3)}*y"
                f" + {rng.randint(-3, 3)})" for _ in range(3)]
        text = "*".join(rng.choice(pool)
                        for _ in range(rng.choice((3, 3, 3, 4, 4, 5, 7))))
        f = parse_poly(text)
        if len(f.terms) < 10:
            f = f * parse_poly(pool[0])
        return "linear forms", f
    roots = [rand_value(rng) for _ in range(3)]
    chain = TropicalPolynomial(1, {(0,): tangible(0)})
    for _ in range(size - 1):
        chain = chain * TropicalPolynomial(
            1, {(1,): tangible(0), (0,): tangible(rng.choice(roots))})
    base = (rng.randint(0, 3), rng.randint(0, 3) + 40)
    step = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
    return "collinear", TropicalPolynomial(2, {
        (base[0] + k * step[0], base[1] + k * step[1]):
            (ghost if rng.random() < 0.2 else tangible)(c.value)
        for (k,), c in chain.terms.items()})


class TestAgainstSetsReference:
    """The one-loop com-set and the one-routine clip against the old code
    in ``sets_reference.py``: the same components with their exponents in
    order, and the same segments and rays in order."""

    def test_comsets(self):
        rng = random.Random(311)
        seen = Counter()
        for n in range(2000):
            f = rand_comset_input(rng, n)
            got = _components_with_monomials(f)
            assert got == reference_components_with_monomials(f), f
            if f.is_constant():
                seen["tangible constant" if got else "ghost constant"] += 1
            elif len(f.terms) == 1 and got:
                seen["tangible single term"] += 1
            elif any(c.neg_inf for c, _ in got):
                seen["merged component"] += 1
        assert seen["tangible constant"] >= 100, seen
        assert seen["tangible single term"] >= 100, seen
        assert seen["merged component"] >= 500, seen

    def test_corner_loci(self):
        rng = random.Random(313)
        seen = Counter()
        for n in range(1000):
            kind, f = rand_corner_input(rng, n)
            box = rand_box(rng)
            got = corner_locus_2d(f, box)
            assert got == reference_corner_locus_2d(f, box), (f, box)
            seen[kind] += 1
            seen["fractional box"] += any(v.denominator > 1 for v in box)
            seen["segments"] += len(got.segments)
            seen["rays"] += len(got.rays)
        for kind in ("empty", "collinear", "all ghost"):
            assert seen[kind] >= 150, seen
        assert seen["fractional box"] >= 300, seen
        assert seen["segments"] >= 500 and seen["rays"] >= 500, seen

    def test_corner_loci_large(self):
        """Supports of 10-40 terms, on the fixed box and on fractional
        ones in turn: many cells, many terms inside edges and repeated
        ties."""
        rng = random.Random(317)
        seen = Counter()
        for n in range(48):
            kind, f = rand_large_support(rng, n)
            assert 10 <= len(f.terms) <= 40, (kind, f)
            box = fractional_box(rng) if n // 3 % 2 else TestCornerLocus2D.BOX
            got = corner_locus_2d(f, box)
            assert got == reference_corner_locus_2d(f, box), (f, box)
            seen[kind] += 1
            seen["terms > 30"] += len(f.terms) > 30
            seen["loci"] += len(got.segments) + len(got.rays)
        assert seen["random"] == seen["linear forms"] == 16, seen
        assert seen["terms > 30"] >= 3 and seen["loci"] >= 1000, seen


def typed_locus(locus):
    """The locus with the type of every container and coordinate next to
    its value, so that an int or a list where the reference has a
    ``Fraction`` or a tuple fails the comparison."""
    def tag(value):
        if isinstance(value, (tuple, list)):
            return type(value), [tag(v) for v in value]
        return type(value), value
    return (locus.whole_plane,
            *([[(k, tag(v)) for k, v in entry.items()] for entry in entries]
              for entries in (locus.segments, locus.rays)))


def wide_box(rng):
    """A box that holds every dual vertex of the small inputs below, so
    the box cuts every unbounded locus and each gives a ray."""
    r = Fraction(rng.randint(200, 400), rng.choice((1, 3)))
    return (-r, -r - 1, r, r + Fraction(1, 2))


def zero_width_box(rng):
    """A box of width zero in x, in y or in both."""
    x0, y0 = rand_value(rng), rand_value(rng)
    flat = rng.choice(("x", "y", "point"))
    return (x0, y0, x0 if flat != "y" else x0 + rng.randint(1, 20),
            y0 if flat != "x" else y0 + rng.randint(1, 20))


def vertex_box(rng, f):
    """A zero-width box through an end of a drawn locus, so the clip meets
    its ends exactly: a point box or a line through it."""
    locus = fraction_corner_locus(f, wide_box(rng))
    ends = [seg[k] for seg in locus.segments for k in ("from", "to")]
    if not ends:
        return zero_width_box(rng)
    x, y = rng.choice(ends)
    return rng.choice(((x, y, x, y), (x, y - 3, x, y + 3),
                       (x - 3, y, x + 3, y)))


class TestAgainstCornerReference:
    """The integer clip against the ``Fraction`` clip it replaced, in
    ``corner_reference.py``: the same segments and rays in order, every
    coordinate the same value and a ``Fraction``."""

    BOXES = ("fixed", "fractional", "zero width", "wide", "vertex")

    def test_random(self):
        rng = random.Random(331)
        seen = Counter()
        for n in range(1500):
            kind, f = rand_corner_input(rng, n)
            if kind == "general" and n % 3 == 0:
                kind = "fractional coefficients"
                f = TropicalPolynomial(2, {
                    e: (ghost if rng.random() < 0.3 else tangible)(
                        Fraction(rng.randint(-40, 40), rng.randint(2, 9)))
                    for e in f.terms})
            box_kind = self.BOXES[n // 5 % len(self.BOXES)]
            box = {"fixed": lambda: TestCornerLocus2D.BOX,
                   "fractional": lambda: fractional_box(rng),
                   "zero width": lambda: zero_width_box(rng),
                   "wide": lambda: wide_box(rng),
                   "vertex": lambda: vertex_box(rng, f)}[box_kind]()
            got = corner_locus_2d(f, box)
            want = fraction_corner_locus(f, box)
            assert typed_locus(got) == typed_locus(want), (f, box)
            seen[kind] += 1
            seen[box_kind] += 1
            seen[box_kind + " segments"] += len(got.segments)
            seen[box_kind + " rays"] += len(got.rays)
            seen["ghost terms"] += any(c.is_ghost() for c in f.terms.values())
            if box_kind == "vertex":
                seen["point rays"] += sum(
                    r["from"] == (box[0], box[1]) for r in got.rays)
        for kind in ("empty", "collinear", "all ghost",
                     "fractional coefficients"):
            assert seen[kind] >= 150, seen
        assert seen["ghost terms"] >= 600, seen
        for box_kind in self.BOXES:
            assert seen[box_kind] == 300, seen
        assert seen["wide rays"] >= 400 and seen["wide segments"] >= 400, seen
        assert seen["zero width rays"] >= 20, seen
        assert seen["vertex segments"] + seen["vertex rays"] >= 150, seen
        assert seen["point rays"] >= 100, seen


class TestOneHullPerLocus:
    """The tie loci are read off one hull of the lifted points, a flat lift
    included: each cell's edges come from the upper facets and Newton walls
    it meets, with no hull per cell and no second run.  The kernel
    (``essential._hull``, which the cell reader ``essential._cells``
    calls) is called once per locus, and runs beneath-beyond (inserts a
    point after its start simplex) unless the support is affinely
    independent.  No locus builds the hull complex (``essential._complex``),
    so no term is classified."""

    def test_corpus(self, monkeypatch):
        calls, runs, complexes = [0], [0], [0]

        def counted(points, start, _hull=tropc.essential._hull):
            calls[0] += 1
            runs[0] += len(points) > len(start)
            return _hull(points, start)

        def counted_complex(f, _complex=tropc.essential._complex):
            complexes[0] += 1
            return _complex(f)
        monkeypatch.setattr(tropc.essential, "_hull", counted)
        # counted at home and in sets, in case sets binds the name itself
        monkeypatch.setattr(tropc.essential, "_complex", counted_complex)
        monkeypatch.setattr(tropc.sets, "_complex", counted_complex,
                            raising=False)
        rng = random.Random(347)
        seen = Counter()
        cases = [rand_corner_input(rng, n) for n in range(600)]
        cases += [rand_large_support(rng, n) for n in range(30)]
        for n in range(100):  # flat lifts: heights affine in the exponent
            a, b, c = (rand_value(rng) for _ in range(3))
            cases.append(("flat", TropicalPolynomial(2, {
                e: (ghost if rng.random() < 0.3 else tangible)(
                    a + b * e[0] + c * e[1])
                for e in rand_corner_input(rng, 3)[1].terms})))
        for kind, f in cases:
            calls[0] = runs[0] = complexes[0] = 0
            got = corner_locus_2d(f, TestCornerLocus2D.BOX)
            assert calls[0] == (not got.whole_plane), format_poly(f)
            assert complexes[0] == 0, format_poly(f)
            want = 0 if got.whole_plane else hull_builds(f)
            assert runs[0] == want, format_poly(f)
            seen[want] += 1
            seen["flat"] += want == 1 and is_flat_lift(f)
            seen["cells"] += want == 1 and \
                len(classify_monomials(f).subdivision) > 1
        assert min(seen[0], seen[1], seen["flat"], seen["cells"]) >= 50, seen


class TestCornerBudget:
    """The tie loci are read off the hull's edges: only the pairs of terms
    on one edge reach the box clip, not every pair of terms."""

    @pytest.fixture
    def clipped(self, monkeypatch):
        pairs = []
        box_range = tropc.sets._box_range

        def counted(*args):
            pairs.append(args)
            return box_range(*args)
        monkeypatch.setattr(tropc.sets, "_box_range", counted)
        return pairs

    @pytest.mark.parametrize("text, pairs", [
        # one flat cell: 3 edges of 13 terms, 3 * C(13, 2) of C(91, 2) pairs
        ("(x+y+0)^12", 234),
        # three cells with 8 edges of 7 terms: 8 * C(7, 2) pairs
        ("(x + 1*y + 0)^6*(x + -2*y + 5)^6", 168),
    ])
    def test_pairs_visited(self, clipped, text, pairs):
        f = P(text)
        assert len(f.terms) == 91
        corner_locus_2d(f, TestCornerLocus2D.BOX)
        assert len(clipped) == pairs
