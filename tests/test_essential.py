"""Essential parts, full closure, functional equivalence, reduced ops."""
import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product
from math import gcd

import pytest

import tropc.essential
import tropc.sets
import facets_reference
from closure_reference import (reference_classify, reference_full_closure,
                               reference_red_pow)
from corner_reference import reference_corner_locus_2d
from facets_reference import reference_complex_nd
from hull1d_reference import reference_complex_1d, reference_envelope_vertices
from lp_reference import reference_complex
from tropc import (EmptyPolynomial, EssentialComplex, InternalInconsistency,
                   MonomialInput, NEG_INFINITY, TropicalPolynomial,
                   classify_monomials, corner_locus_2d, divides, equivalent,
                   essential_part, format_poly, full_closure, ghost, is_full,
                   is_ghost_potent, parse_poly,
                   red_add, red_mul, red_pow, slope_sequence, tangible)
from util import (critical_points_1d, eval_points, hull_builds, is_flat_lift,
                  rand_coeff, rand_fraction, rand_poly, rand_tangible_full,
                  same_function_1d)

P = parse_poly


class TestClassification:
    def test_pinned_quasi(self):
        cx = classify_monomials(P("x^2 + 0*x + 0"))
        assert cx.classification == {
            (2,): "essential", (1,): "quasi-essential", (0,): "essential"}

    def test_pinned_inessential(self):
        cx = classify_monomials(P("x^2 + -1*x + 0"))
        assert cx.classification[(1,)] == "inessential"

    def test_two_variable(self):
        cx = classify_monomials(P("x*y + x + y + 0"))
        assert all(v == "essential" for v in cx.classification.values())
        # flat lift: the interior lattice exponent sits on the hull but
        # is not a vertex of it
        cx = classify_monomials(P("x^2 + x*y + y^2 + 0*x + 0*y + 0"))
        assert cx.classification[(1, 1)] == "quasi-essential"
        cx = classify_monomials(P("x^2 + 1*x*y + y^2 + 0*x + 0*y + 0"))
        assert cx.classification[(1, 1)] == "essential"

    def test_empty_raises(self):
        with pytest.raises(EmptyPolynomial):
            classify_monomials(TropicalPolynomial(1, {}))

    def test_inessential_terms_never_matter(self):
        # dropping an inessential term leaves the function unchanged;
        # dropping an essential term changes it somewhere
        rng = random.Random(19)
        for _ in range(80):
            f = rand_poly(rng, 1, 6, 6)
            cx = classify_monomials(f)
            for e, cls in cx.classification.items():
                rest = TropicalPolynomial(
                    1, {d: c for d, c in f.terms.items() if d != e})
                if rest.is_empty():
                    continue
                if cls == "inessential":
                    assert same_function_1d(f, rest)
                elif cls == "essential":
                    assert not same_function_1d(f, rest)


def _fields(cx: EssentialComplex):
    """Every field of a complex as text; dicts in key order, so the text
    tells Fractions from ints but not dict insertion orders apart."""
    return [(f.name, repr(sorted(v.items()) if isinstance(v, dict) else v))
            for f in dataclasses.fields(cx) for v in [getattr(cx, f.name)]]


def _reference_case(rng: random.Random, kind: str,
                    arity: int = 0) -> TropicalPolynomial:
    arity = arity or rng.choice((2, 2, 3))
    if kind == "single":
        return rand_poly(rng, arity, 3, 1)
    if kind == "collinear":
        step = tuple(rng.randint(0, 2) for _ in range(arity))
        start = tuple(rng.randint(0, 2) for _ in range(arity))
        count = rng.randint(2, 4) if any(step) else 1
        return TropicalPolynomial(arity, {
            tuple(a + j * d for a, d in zip(start, step)):
                tangible(rand_fraction(rng)) for j in range(count)})
    if kind == "coplanar":  # a plane inside three (or four) variables
        u, w = (1, rng.randint(0, 1), 0), (0, rng.randint(0, 2), 1)
        if arity == 4:
            u, w = u + (rng.randint(0, 1),), w + (rng.randint(0, 2),)
        terms = {tuple(i * a + j * b for a, b in zip(u, w)):
                 tangible(rand_fraction(rng))
                 for i in range(3) for j in range(3) if rng.random() < 0.6}
        return TropicalPolynomial(len(u),
                                  terms or {(0,) * len(u): tangible(0)})
    f = rand_poly(rng, arity, rng.randint(1, 4 if arity == 2 else 3), 7)
    if kind == "flat":  # heights affine in the exponent
        c = [rand_fraction(rng, -3, 3) for _ in range(arity + 1)]
        return TropicalPolynomial(arity, {
            e: tangible(c[0] + sum(a * x for a, x in zip(c[1:], e)))
            for e in f.terms})
    if kind == "fractional":
        return TropicalPolynomial(arity, {
            e: tangible(rand_fraction(rng, denominators=(2, 3, 5, 6, 7)))
            for e in f.terms})
    return f


class TestAgainstLpReference:
    """The facet kernel gives every field of the exact-LP hull path."""

    def assert_same(self, f):
        got = _fields(classify_monomials(f, with_subdivision=True))
        assert got == _fields(reference_complex(f)), format_poly(f)

    def test_pinned(self):
        for text in ("(x + y + 0)^4", "(x + y + z + 0)^3", "x*y + x + y + 0",
                     "x^2 + x*y + y^2 + 0*x + 0*y + 0", "3v*x*y",
                     "x^3*y + 1/2*x*y^3 + -1/3", "x*z + 1*x^2*z^2 + 0"):
            self.assert_same(P(text))

    def test_random(self):
        rng = random.Random(53)
        kinds = ["random", "random", "collinear", "coplanar", "flat",
                 "fractional", "single"]
        seen = Counter()
        for i in range(1050):
            f = _reference_case(rng, kinds[i % len(kinds)])
            self.assert_same(f)
            seen[(f.arity, len(tropc.essential._echelon(
                [[a - b for a, b in zip(e, min(f.terms))]
                 for e in f.terms])))] += 1
        # every dimension of support occurs in both arities
        assert all(seen[(a, k)] for a in (2, 3) for k in range(a + 1))


def _paraboloid(arity: int, d: int, sign: int = -1) -> TropicalPolynomial:
    """Every monomial of degree <= d in arity 2 or 3 variables, at height
    -(i^2 + ij + j^2) or -(i^2 + ij + j^2 + jk + k^2): every term is a
    vertex of the lifted hull.  Its convex twin (sign 1) has one upper
    facet, and only its Newton vertices are essential."""
    return TropicalPolynomial(arity, {
        e: tangible(sign * (sum(a * b for a, b in zip(e, e)) + sum(
            a * b for a, b in zip(e, e[1:]))))
        for e in iter_product(range(d + 1), repeat=arity) if sum(e) <= d})


class TestAgainstFacetsReference:
    """The upper-hull kernel gives the upper facets of the old k-subset
    enumeration of the lifted points and, as its Newton walls, that
    enumeration's facets of their projections with a 0 height coefficient
    appended; classify_monomials gives every field of the old complex.
    Supports of hundreds of terms, where the enumeration is too slow, are
    held to the full-hull beneath-beyond kernel instead."""

    kernel = staticmethod(tropc.essential._hull)

    @pytest.fixture
    def hulls(self, monkeypatch):
        """The points the reference is handed, with its facets, in call
        order: it builds the Newton hull first, then the lifted one."""
        seen = []

        def recorded(points, _reference=facets_reference.reference_facets):
            seen.append((points, _reference(points)))
            return seen[-1][1]
        monkeypatch.setattr(facets_reference, "reference_facets", recorded)
        return seen

    @staticmethod
    def facet_set(facets, order=None):
        """Facets as a set of (normal, offset, contact set), each
        (normal, offset) divided by the gcd of the normal; contact indices
        go through order when the points were permuted by it."""
        out = set()
        for n, b, c in facets:
            g = gcd(*n)
            out.add((tuple(a // g for a in n), b // g,
                     frozenset(order[i] for i in c) if order else c))
        assert len(out) == len(facets)  # no facet twice
        return out

    def assert_kernel(self, f, lifted, newton, rng):
        """The kernel's facets of f's lifted points are the upper ones of
        lifted and the facets newton of the projections, each with a 0
        appended, in the given and in a random order, in which a point may
        come after a facet has covered it."""
        _, _, _, _, points, start = tropc.essential._lift(f)
        want = self.facet_set([fc for fc in lifted if fc[0][-1] > 0])
        want |= self.facet_set([((*n, 0), b, c) for n, b, c in newton])
        assert self.facet_set(self.kernel(points, start)) == want, points
        order = rng.sample(range(len(points)), len(points))
        where = {i: j for j, i in enumerate(order)}
        shuffled = self.kernel([points[i] for i in order],
                               sorted(where[i] for i in start))
        assert self.facet_set(shuffled, order) == want, points
        return points

    def assert_same(self, f, hulls, rng):
        """Every field of the complex, and the kernel's facets against the
        reference's facets of the lifted points and of their
        projections."""
        hulls.clear()
        got = _fields(classify_monomials(f))
        assert got == _fields(reference_complex_nd(f)), format_poly(f)
        assert hulls, format_poly(f)
        newton = hulls[0][1] if len(hulls) == 2 else []
        points = self.assert_kernel(f, hulls[-1][1], newton, rng)
        assert points == hulls[-1][0], format_poly(f)

    def test_random(self, hulls):
        rng = random.Random(61)
        kinds = ["random", "random", "collinear", "coplanar", "flat",
                 "fractional", "single", "ghost"]
        seen = Counter()
        for i in range(2400):
            arity = (2, 2, 3, 4)[i % 4]
            kind = kinds[i // 4 % len(kinds)]
            if kind == "ghost":
                f = _reference_case(rng, "random", arity)
                f = TropicalPolynomial(arity, {e: ghost(c.value)
                                               for e, c in f.terms.items()})
            else:
                f = _reference_case(rng, kind, arity)
            self.assert_same(f, hulls, rng)
            seen[(f.arity, len(tropc.essential._echelon(
                [[a - b for a, b in zip(e, min(f.terms))]
                 for e in f.terms])))] += 1
        # every dimension of support occurs in every arity
        assert all(seen[(a, k)]
                   for a in (2, 3, 4) for k in range(a + 1)), seen

    def test_large_supports(self, hulls):
        rng = random.Random(67)
        cases = [P(t) for t in ("(x + y + 0)^7", "(x + y + 1*x*y + 0)^6",
                                "(x + 1*y + 3*z + 0)^3", "(x + y + z + 0)^4")]
        while len(cases) < 32:
            arity = rng.choice((2, 2, 2, 3))
            f = rand_poly(rng, arity, 10 if arity == 2 else 4, 60)
            if 20 <= len(f.terms) <= (60 if arity == 2 else 25):
                cases.append(f)
        for f in cases:
            self.assert_same(f, hulls, rng)

    @pytest.mark.parametrize("f, terms", [
        pytest.param(_paraboloid(2, 24), 325, id="concave paraboloid"),
        pytest.param(_paraboloid(2, 24, 1), 325, id="convex paraboloid"),
        pytest.param(P("(x+y+z+0)^8"), 165, id="flat"),
        pytest.param(P("(x + 2*y + -1*z + 3)^5*(z + 1/2*x*y + 0)^4"), 310,
                     id="raw product"),
    ])
    def test_against_the_full_hull_kernel(self, f, terms):
        assert len(f.terms) == terms
        points = tropc.essential._lift(f)[4]
        self.assert_kernel(
            f, facets_reference.full_hull_facets(points),
            facets_reference.full_hull_facets([p[:-1] for p in points]),
            random.Random(71))


class TestSubdivisionAgainstEvaluate:
    """The arity-2 subdivision of classify_monomials held to evaluate, with
    no hull: at each cell's dual vertex, solved exactly from three affinely
    independent points of the cell (or any point of the tie line, for the
    edge cells of a collinear support), the terms that reach the maximum
    of the projected values are exactly the cell's points."""

    @staticmethod
    def vertex(f, cell):
        """Where the cell's first two points tie, (a, b) . p = r, and, when
        a third point is off their line, (c, d) . p = s with it."""
        value = {e: c.value for e, c in f.terms.items()}
        if len(cell) == 1:  # a single term dominates everywhere
            return Fraction(0), Fraction(0)
        (x0, y0), (x1, y1) = cell[:2]
        a, b, r = x1 - x0, y1 - y0, value[cell[0]] - value[cell[1]]
        for x2, y2 in cell[2:]:
            c, d = x2 - x0, y2 - y0
            if a * d != b * c:
                s = value[cell[0]] - value[(x2, y2)]
                return (r * d - b * s) / (a * d - b * c), \
                    (a * s - r * c) / (a * d - b * c)
        return r * a / (a * a + b * b), r * b / (a * a + b * b)

    def test_corpora(self):
        rng = random.Random(211)
        corpus = [_independent_case(rng, 2, i % 3) for i in range(90)]
        for i in range(480):
            kind = ("random", "collinear", "flat", "fractional", "single",
                    "ghost")[i % 6]
            f = _reference_case(rng, "random" if kind == "ghost" else kind, 2)
            while len(f.terms) < {"collinear": 3, "flat": 4}.get(kind, 1):
                f = _reference_case(rng, kind, 2)  # not independent
            if kind == "ghost":
                f = TropicalPolynomial(2, {
                    e: ghost(c.value) if rng.random() < 0.5 else c
                    for e, c in f.terms.items()})
            corpus.append(f)
        seen = Counter()
        for f in corpus:
            cells = classify_monomials(f).subdivision
            for cell in cells:
                point = [tangible(x) for x in self.vertex(f, cell)]
                top = f.evaluate(point).value
                reach = [e for e, c in f.terms.items() if TropicalPolynomial(
                    2, {e: c}).evaluate(point).value == top]
                assert sorted(reach) == cell, (format_poly(f), cell)
            exps = sorted(f.terms)
            k = len(tropc.essential._echelon(
                [[a - b for a, b in zip(e, exps[0])] for e in exps]))
            seen["independent"] += k == len(exps) - 1
            seen["collinear"] += k == 1 and len(exps) > 2
            seen["flat"] += is_flat_lift(f)
            seen["ghost"] += not f.is_tangible_poly()
            seen["fractional"] += f._den > 1
            seen["cells > 1"] += len(cells) > 1
        assert min(seen.values()) >= 50 and len(seen) == 6, seen


class TestPinnedDegenerateCases:
    """Hulls whose facts sit on degenerate facets, pinned against the
    frozen paths: every field of classify_monomials against the two-hull
    complex of ``closure_reference`` and, below 40 terms, the k-subset
    enumeration of ``facets_reference``; the closure's den and rows in
    order; and in two variables the corner locus's segments and rays in
    order, against ``corner_reference``."""

    BOX = (Fraction(-60), Fraction(-60), Fraction(60), Fraction(60))

    @pytest.mark.parametrize("name, f", [
        # a vertical facet over y = 0: (1, 0) tops it, inside the edge
        ("vertical facet", P("x^2 + 5*x + 0 + y")),
        # collinear heights over y = 0, where a flat lift meets its wall:
        # (1, 0) lies inside that edge
        ("straight ridge", P("x^2 + 1*x + 2 + y")),
        # the same edge as the ridge of an upper and a lower facet
        ("straight ridge, not flat", P("x^2 + 1*x + 2 + y + 5*x*y")),
        ("flat lift", P("(x + 1*y + 0v)^3 + 2v*x*y")),
        ("collinear in three variables",
         P("2*x^3*y^3*z^3 + 1v*x^2*y^2*z^2 + 3*x*y*z + 0")),
        ("all ghost", P("0v*x^2 + 1v*x*y + 0v*y^2 + 2v*x + 0v")),
        ("paraboloid, d = 12", _paraboloid(2, 12)),
        ("paraboloid in three variables, d = 6", _paraboloid(3, 6)),
        # 325 terms in three flat cells of 91, 91 and 169 points, whose
        # inner edges carry 13 points each: 624 tie segments and 468 rays
        ("three large flat cells",
         P("(x + 1*y + 0)^12*(x + -2*y + 5)^12")),
    ])
    def test_against_the_references(self, name, f):
        cx = classify_monomials(f)
        references = [reference_classify(f)]
        if len(f.terms) < 40:
            references.append(reference_complex_nd(f))
        for ref in references:
            assert _fields(cx) == _fields(ref), name
            for field in ("lifted_points", "classification",
                          "hull_lattice_points"):
                assert list(getattr(cx, field).items()) == \
                    list(getattr(ref, field).items()), (name, field)
        closed, want = full_closure(f), reference_full_closure(f)
        assert closed._den == want._den, name
        assert closed._rows == sorted(want._rows), name
        if f.arity == 2:
            got = corner_locus_2d(f, self.BOX)
            want = reference_corner_locus_2d(f, self.BOX)
            assert got.whole_plane == want.whole_plane, name
            assert got.segments == want.segments, name
            assert got.rays == want.rays, name

    def test_pinned_facts(self):
        vertical = classify_monomials(P("x^2 + 5*x + 0 + y"))
        assert vertical.classification[(1, 0)] == "essential"
        assert vertical.interior_vertices == [(1, 0)]
        for text in ("x^2 + 1*x + 2 + y", "x^2 + 1*x + 2 + y + 5*x*y"):
            ridge = classify_monomials(P(text))
            assert ridge.classification[(1, 0)] == "quasi-essential", text
            assert ridge.interior_vertices == [], text
        for arity, d in ((2, 12), (3, 6)):
            cx = classify_monomials(_paraboloid(arity, d))
            assert set(cx.classification.values()) == {"essential"}


class TestClosedFormPlanes:
    """The written-out normals of 2, 3 and 4 points in 2-D, 3-D and 4-D
    equal the cofactor expansion that other dimensions run, offsets
    included; on affinely dependent points both give the zero normal."""

    @staticmethod
    def cofactor_plane(pts):
        rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        n = [(-1) ** j * tropc.essential._det([r[:j] + r[j + 1:]
                                               for r in rows])
             for j in range(len(pts))]
        g = gcd(*n)
        if g:
            n = [a // g for a in n]
        return n, sum(a * b for a, b in zip(n, pts[0]))

    def test_random(self):
        rng = random.Random(73)
        for d in (1, 2, 3, 4):
            done = 0
            while done < 400:
                # heights (the last coordinate) are scaled and may be large
                pts = [tuple(rng.randint(-4, 4) for _ in range(d - 1))
                       + (rng.choice((rng.randint(-4, 4),
                                      rng.randint(-10**9, 10**9))),)
                       for _ in range(d)]
                diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts]
                if len(tropc.essential._echelon(diffs)) < d - 1:
                    continue
                assert tropc.essential._plane(pts) == \
                    self.cofactor_plane(pts), pts
                done += 1

    def test_degenerate(self):
        # one point an integer affine combination of the others (at d = 2
        # a repeated point), in any position
        rng = random.Random(74)
        for d in (2, 3, 4):
            for _ in range(400):
                pts = [tuple(rng.randint(-4, 4) for _ in range(d))
                       for _ in range(d - 1)]
                ts = [rng.randint(-3, 3) for _ in pts[1:]]
                pts.append(tuple(
                    a + sum(t * (b - a) for t, b in zip(ts, col))
                    for a, *col in zip(*pts)))
                rng.shuffle(pts)
                assert tropc.essential._plane(pts) == \
                    self.cofactor_plane(pts) == ([0] * d, 0), pts


def _hull_cases(count: int, seed: int):
    """(f, g) pairs of arity 2 and 3 over every kind of support."""
    rng = random.Random(seed)
    kinds = ["random", "collinear", "coplanar", "flat", "fractional",
             "single", "ghost"]
    for i in range(count):
        arity = (2, 3)[i % 2]
        kind = kinds[i // 2 % len(kinds)]
        f = _reference_case(rng, "random" if kind == "ghost" else kind,
                            arity)
        if kind == "ghost":
            f = TropicalPolynomial(arity, {e: ghost(c.value)
                                           for e, c in f.terms.items()})
        yield f, _reference_case(rng, "random", f.arity)


class TestEssentialPartsSkipTheLatticeWalk:
    """Above arity 1 an essential part reads only the classification of
    the hull complex: the lattice walk runs for closures and
    classify_monomials, not for essential_part, equivalent or
    is_ghost_potent."""

    @pytest.fixture
    def walks(self, monkeypatch):
        count = [0]

        def counted(*args, _walk=tropc.essential._close_nd):
            count[0] += 1
            return _walk(*args)
        monkeypatch.setattr(tropc.essential, "_close_nd", counted)
        return count

    def test_no_walk(self, walks):
        seen = Counter()
        for f, g in _hull_cases(700, 79):
            essential_part(f)
            equivalent(f, g)
            equivalent(f, f + g)
            is_ghost_potent(f)
            assert walks[0] == 0, format_poly(f)
            full_closure(f)  # the counter sees the walk of a closure
            assert walks[0] == 1, format_poly(f)
            walks[0] = 0
            seen[f.arity] += 1
        assert seen[2] >= 300 and seen[3] >= 300, seen

    def test_matches_classification(self):
        seen = Counter()
        for f, _ in _hull_cases(700, 83):
            kind = classify_monomials(f).classification
            want = TropicalPolynomial(f.arity, {
                e: c for e, c in f.terms.items() if kind[e] == "essential"})
            got = essential_part(f)
            assert got == want and got.terms == want.terms, format_poly(f)
            seen["quasi"] += "quasi-essential" in kind.values()
            seen["inessential"] += "inessential" in kind.values()
            seen["ghost"] += got.is_ghost_poly()
        assert min(seen.values()) >= 25, seen


class TestPlaneBudget:
    """Hyperplanes the kernel builds for one complex, counted at its plane
    helper.  Enumerating k-subsets would face C(56, 4) = 367,290 candidate
    planes on the 56 lifted points below; beneath-beyond builds a few
    hundred, and no lower facet.  The pins guard the insertion order and
    the missing lower facets: a full hull built in ascending order takes
    225, 214, 14,053 and 47,017 planes on the four inputs below."""

    def planes(self, monkeypatch, f):
        count = [0]

        def counted(points, _plane=tropc.essential._plane):
            count[0] += 1
            return _plane(points)
        monkeypatch.setattr(tropc.essential, "_plane", counted)
        tropc.essential._complex_nd(f)
        return len(f.terms), count[0]

    def test_three_variables(self, monkeypatch):
        assert self.planes(monkeypatch, P("(x + 1*y + 3*z + 0)^5")) == \
            (56, 91)

    def test_two_variables(self, monkeypatch):
        # not flat: the lifted points have two upper facets
        assert self.planes(monkeypatch, P("(x + y + 1*x*y + 0)^6")) == \
            (49, 48)

    def test_convex_paraboloid(self, monkeypatch):
        # one upper facet over 1,600 lower triangles
        assert self.planes(monkeypatch, _paraboloid(2, 40, 1)) == (861, 114)

    def test_raw_product(self, monkeypatch):
        # a raw product whose terms mostly lie under its 13 facets
        f = P("(x + 2*y + -1*z + 3)^10*(z + 1/2*x*y + 0)^6")
        assert self.planes(monkeypatch, f) == (1453, 1865)


def _univariate_case(rng: random.Random, kind: str) -> TropicalPolynomial:
    if kind == "single":
        return rand_poly(rng, 1, 9, 1)
    if kind == "two":
        x, y = rng.sample(range(10), 2)
        return TropicalPolynomial(1, {(x,): rand_coeff(rng),
                                      (y,): rand_coeff(rng)})
    if kind == "tangible-full":
        return rand_tangible_full(rng, rng.randint(1, 6))
    if kind == "mixed":  # denominators 2-7 in one polynomial
        return TropicalPolynomial(1, {
            (x,): tangible(rand_fraction(rng, denominators=range(2, 8)))
            for x in rng.sample(range(9), rng.randint(1, 6))})
    if kind == "gaps":  # few terms over a wide support
        return TropicalPolynomial(1, {
            (x,): rand_coeff(rng) for x in rng.sample(range(25),
                                                      rng.randint(2, 5))})
    if kind == "collinear":  # runs on the edges of a concave function
        xs = sorted(rng.sample(range(12), rng.randint(3, 7)))
        h = rand_fraction(rng)
        slope = rand_fraction(rng, -2, 4)
        terms = {}
        for prev, x in zip(xs[:1] + xs, xs):
            h += slope * (x - prev)
            v = h - (rng.randint(1, 3) if rng.random() < 0.2 else 0)
            terms[(x,)] = ghost(v) if rng.random() < 0.3 else tangible(v)
            if rng.random() < 0.4:
                slope -= rand_fraction(rng, 1, 4, (1, 2, 3))
        return TropicalPolynomial(1, terms)
    return rand_poly(rng, 1, 8, 7)  # ~40% ghost coefficients


class TestAgainstHull1dReference:
    """The integer sweep gives every field of the old Fraction sweep, in the
    same order, and the same com-set envelope."""

    def assert_same(self, f):
        got, want = classify_monomials(f), reference_complex_1d(f)
        assert _fields(got) == _fields(want), format_poly(f)
        for name in ("lifted_points", "classification", "hull_lattice_points"):
            assert list(getattr(got, name)) == list(getattr(want, name))
        assert [x for x, _ in tropc.essential._hull_1d(f)[2]] == \
            reference_envelope_vertices(f)
        return got

    def test_pinned(self):
        self.assert_same(P("2*x^4 + 5*x^3 + 5*x^2 + 3*x + 0"))
        cx = self.assert_same(P("x^3 + 0"))
        assert cx.hull_lattice_points == {(x,): 0 for x in range(4)}
        assert cx.subdivision == [[(0,), (3,)]]

    def test_random(self):
        rng = random.Random(59)
        kinds = ["random", "tangible-full", "mixed", "gaps", "collinear",
                 "single", "two"]
        seen = Counter()
        for i in range(1400):
            f = _univariate_case(rng, kinds[i % len(kinds)])
            cx = self.assert_same(f)
            seen.update(cx.classification.values())
            seen["ghost"] += not f.is_tangible_poly()
            seen["fractional lattice"] += any(
                h.denominator > 1 for v, h in cx.hull_lattice_points.items()
                if v not in cx.lifted_points)
        assert min(seen.values()) >= 100, seen


class TestUnivariateClosureOffTheSweep:
    """At arity 1 a closure is written straight off the hull vertices, and
    the complex classifies without walking an edge."""

    def test_against_the_complex(self):
        # full_closure and _close_1d against the frozen Fraction closure,
        # and the tangible flag against the complex's classification
        rng = random.Random(61)
        kinds = ["random", "tangible-full", "mixed", "gaps", "collinear",
                 "single", "two"]
        seen = Counter()
        for i in range(2100):
            f = _univariate_case(rng, kinds[i % len(kinds)])
            cx = tropc.essential._complex_1d(f)
            want = reference_full_closure(f)
            tangible_full = not any(g for e, _, g in f._rows
                                    if cx[0][e] == "essential")
            closed, flag = tropc.essential._close_1d(f)
            for got in (full_closure(f), closed):
                assert got._den == want._den, format_poly(f)
                assert set(got._rows) == set(want._rows), format_poly(f)
                assert [e for e, _, _ in got._rows] == sorted(
                    e for e, _, _ in got._rows), format_poly(f)
            assert flag == tangible_full, format_poly(f)
            seen[kinds[i % len(kinds)], flag] += 1
            seen["ghost row"] += not closed.is_tangible_poly()
            seen["den > 1"] += closed._den > 1
        assert all(seen[k, True] >= 50 for k in kinds), seen
        assert all(seen[k, False] >= 50 for k in kinds
                   if k not in ("tangible-full", "mixed")), seen
        assert min(seen["ghost row"], seen["den > 1"]) >= 300, seen

    def test_one_sweep_each(self, monkeypatch):
        # the complex's close slot walks the sweep the classification made
        sweeps = [0]

        def counted(f, _hull=tropc.essential._hull_1d):
            sweeps[0] += 1
            return _hull(f)
        monkeypatch.setattr(tropc.essential, "_hull_1d", counted)
        rng = random.Random(71)
        kinds = ["random", "tangible-full", "mixed", "gaps", "collinear",
                 "single", "two"]
        for i in range(700):
            f = _univariate_case(rng, kinds[i % len(kinds)])
            for read in (classify_monomials, full_closure, essential_part):
                sweeps[0] = 0
                read(f)
                assert sweeps[0] == 1, (read.__name__, format_poly(f))

    @pytest.fixture
    def walks(self, monkeypatch):
        count = [0]

        def counted(*args, _walk=tropc.essential._walk_1d):
            count[0] += 1
            return _walk(*args)
        monkeypatch.setattr(tropc.essential, "_walk_1d", counted)
        return count

    def test_essential_parts_skip_the_walk(self, walks):
        rng = random.Random(67)
        kinds = ["random", "tangible-full", "gaps", "collinear", "two"]
        for i in range(500):
            f = _univariate_case(rng, kinds[i % len(kinds)])
            g = _univariate_case(rng, "random")
            walks[0] = 0  # tangible-full cases are built by closures
            essential_part(f)
            equivalent(f, g)
            equivalent(f, f + g)
            is_ghost_potent(f)
            assert walks[0] == 0, format_poly(f)
            full_closure(f)
            assert walks[0] == 1, format_poly(f)
            classify_monomials(f)
            assert walks[0] == 2, format_poly(f)


def _independent_case(rng: random.Random, arity: int,
                      k: int) -> TropicalPolynomial:
    """k + 1 affinely independent exponents in a small box (so the old
    box walks stay cheap at arity 4), values with denominators 1-7 and
    about 35% ghost terms."""
    side = {2: 3, 3: 2, 4: 1}[arity]
    while True:
        exps = [tuple(rng.randint(0, side) for _ in range(arity))
                for _ in range(k + 1)]
        if len(tropc.essential._echelon(
                [[a - b for a, b in zip(e, exps[0])] for e in exps])) == k:
            break
    return TropicalPolynomial(arity, {
        e: (ghost if rng.random() < 0.35 else tangible)(
            Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
        for e in exps})


def _dilated(f: TropicalPolynomial, m: int) -> TropicalPolynomial:
    return TropicalPolynomial(f.arity, {
        tuple(m * a for a in e): (ghost if c.is_ghost() else tangible)(
            m * c.value) for e, c in f.terms.items()})


class TestAffinelyIndependentSupports:
    """A support of k + 1 affinely independent exponents is its own Newton
    simplex with one upper cell, and its complex is read off the support
    without building a facet; close() builds the start simplex's facets.
    Outputs are the old paths' ones."""

    def test_against_the_references(self):
        rng = random.Random(97)
        seen = Counter()
        for i in range(360):
            arity = (2, 3, 4)[i % 3]
            k = i // 3 % (arity + 1)
            m = 1 + i // 15 % 5
            f = _independent_case(rng, arity, k)
            g = _dilated(f, m)
            cx, ref = classify_monomials(g), reference_complex_nd(g)
            assert _fields(cx) == _fields(ref), format_poly(g)
            for name in ("lifted_points", "classification",
                         "hull_lattice_points"):  # key order too
                assert list(getattr(cx, name)) == list(getattr(ref, name))
            closed = full_closure(g)
            want = reference_full_closure(g)
            assert closed._den == want._den, format_poly(g)
            assert set(closed._rows) == set(want._rows), format_poly(g)
            kind = reference_classify(g).classification
            assert essential_part(g) == TropicalPolynomial(arity, {
                e: c for e, c in g.terms.items() if kind[e] == "essential"})
            power, want = red_pow(f, m), reference_red_pow(f, m)
            assert power._den == want._den, (format_poly(f), m)
            assert set(power._rows) == set(want._rows), (format_poly(f), m)
            # the cells handed out are fresh: mutating them changes no
            # later answer
            if cx.subdivision is not None:
                cx.subdivision[0].append((9, 9))
                cx.subdivision.append([])
            assert _fields(classify_monomials(g)) == _fields(
                reference_complex_nd(g)), format_poly(g)
            seen[arity, k] += 1
            seen["ghost"] += not g.is_tangible_poly()
            seen["den > 1"] += g._den > 1
            seen["lattice ghost"] += len(closed._rows) > len(g._rows)
        assert all(seen[a, k] >= 20 for a in (2, 3, 4)
                   for k in range(a + 1)), seen
        assert min(seen["ghost"], seen["den > 1"],
                   seen["lattice ghost"]) >= 100, seen

    def test_both_paths_on_the_corpora(self, monkeypatch):
        # the short path is taken exactly on affinely independent
        # supports, and each path often on the seeded corpora above; every
        # other complex, a flat lift included, runs beneath-beyond once on
        # its lifted points, whose walls are the Newton facts
        calls = [0]

        def counted(points, start, _hull=tropc.essential._hull):
            calls[0] += 1
            return _hull(points, start)
        monkeypatch.setattr(tropc.essential, "_hull", counted)
        rng = random.Random(61)
        kinds = ["random", "random", "collinear", "coplanar", "flat",
                 "fractional", "single"]
        corpus = [p for pair in _hull_cases(700, 79) for p in pair]
        corpus += [_reference_case(rng, kinds[i % len(kinds)],
                                   (2, 3, 4)[i % 3]) for i in range(700)]
        seen = Counter()
        for f in corpus:
            exps = sorted(f.terms)
            independent = len(tropc.essential._echelon(
                [[a - b for a, b in zip(e, exps[0])] for e in exps])) == \
                len(exps) - 1
            calls[0] = 0
            tropc.essential._complex_nd(f)
            assert (calls[0] == 0) == independent, format_poly(f)
            assert calls[0] == hull_builds(f), format_poly(f)
            seen[f.arity, independent] += 1
            if calls[0]:
                seen[f.arity, "flat" if is_flat_lift(f) else "lifted"] += 1
        assert all(seen[a, short] >= 50 for a in (2, 3, 4)
                   for short in (True, False)), seen
        assert all(seen[a, "lifted"] >= 50 and seen[a, "flat"] >= 5
                   for a in (2, 3, 4)), seen

    def test_one_hull_per_classification(self, monkeypatch):
        # on the short path close() builds the one hull, of the start
        # simplex, and the subdivision needs none; every other complex
        # builds its one hull
        calls = [0]

        def counted(points, start, _hull=tropc.essential._hull):
            calls[0] += 1
            return _hull(points, start)
        monkeypatch.setattr(tropc.essential, "_hull", counted)
        rng = random.Random(83)
        corpus = [p for pair in _hull_cases(160, 89) for p in pair]
        corpus += [_independent_case(rng, arity, i // 3 % (arity + 1))
                   for i, arity in enumerate([2, 3, 4] * 40)]
        seen = Counter()
        for f in corpus:
            calls[0] = 0
            cx = classify_monomials(f)
            assert calls[0] == 1, format_poly(f)
            seen[f.arity, hull_builds(f)] += 1
            seen["cells"] += f.arity == 2 and len(cx.subdivision) > 1
        assert all(seen[a, b] >= 20 for a in (2, 3) for b in (0, 1)), seen
        assert seen[4, 0] >= 20 and seen["cells"] >= 20, seen


class TestSubdivisionBuildsNoEdges:
    """classify_monomials reads its subdivision off the complex's upper
    facets and never builds the cell edges, dual vertices and wall normals
    that only the corner locus reads (``essential._cells``)."""

    def test_budget(self, monkeypatch):
        calls = [0]

        def counted(f, _cells=tropc.essential._cells):
            calls[0] += 1
            return _cells(f)
        for module in (tropc.essential, tropc.sets):
            monkeypatch.setattr(module, "_cells", counted)
        rng = random.Random(223)
        corpus = [_univariate_case(rng, "random") for _ in range(40)]
        corpus += [p for pair in _hull_cases(120, 227) for p in pair]
        corpus += [_independent_case(rng, 2, i % 3) for i in range(60)]
        seen = Counter()
        for f in corpus:
            cx = classify_monomials(f)
            assert calls[0] == 0, format_poly(f)
            seen[f.arity] += cx.subdivision is not None
        assert seen[1] >= 40 and seen[2] >= 100, seen
        corner_locus_2d(P("x + y + 0"), (-1, -1, 1, 1))
        assert calls[0] == 1  # the counter sees the corner locus's read


class TestClosureRowsAscend:
    """The complex writes the full closure with one row per hull lattice
    point in ascending exponent order, on every path: the sweep at arity
    1, an affinely independent support's simplex, and the walk of a
    segment or of the bounding box.  classify_monomials reads the hull
    lattice heights off those rows, key order included."""

    @staticmethod
    def path(f: TropicalPolynomial) -> str:
        if f.arity == 1:
            return "sweep"
        exps = sorted(f.terms)
        k = len(tropc.essential._echelon(
            [[a - b for a, b in zip(e, exps[0])] for e in exps]))
        return "simplex" if k == len(exps) - 1 else \
            "segment" if k == 1 else "box"

    def test_corpora(self):
        rng = random.Random(131)
        kinds = ["random", "tangible-full", "mixed", "gaps", "collinear",
                 "single", "two"]
        corpus = [_univariate_case(rng, kinds[i % len(kinds)])
                  for i in range(350)]
        corpus += [p for pair in _hull_cases(300, 137) for p in pair]
        corpus += [_independent_case(rng, a, k) for a in (2, 3, 4)
                   for k in range(a + 1) for _ in range(15)]
        corpus += [_reference_case(rng, kind, (2, 3, 4)[i % 3])
                   for i in range(150)
                   for kind in ("collinear", "coplanar", "flat")]
        seen = Counter()
        for f in corpus:
            closed = full_closure(f)
            exps = [e for e, _, _ in closed._rows]
            assert all(a < b for a, b in zip(exps, exps[1:])), format_poly(f)
            assert list(classify_monomials(f).hull_lattice_points.items()) \
                == [(e, c.value) for e, c in closed.terms.items()], \
                format_poly(f)
            seen[self.path(f)] += 1
        assert all(seen[p] >= 50
                   for p in ("sweep", "simplex", "segment", "box")), seen


class TestComplexIsShared:
    def test_subdivision_independent_of_earlier_calls(self):
        f = P("x^2*y + 2*x*y^2 + x + y + 1/2")
        fresh = classify_monomials(f).subdivision
        classify_monomials(f, with_subdivision=True)
        assert classify_monomials(f).subdivision == fresh
        classify_monomials(f, with_subdivision=True)
        assert classify_monomials(f).subdivision == fresh
        assert fresh == reference_complex(f).subdivision

    def test_frozen(self):
        cx = classify_monomials(P("x*y + x + 0"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cx.subdivision = None


class TestEssentialPart:
    def test_pinned(self):
        f = P("x + 3") * P("x + 3")
        assert f == P("x^2 + 3v*x + 6")
        assert essential_part(f) == P("x^2 + 6")

    def test_function_preserved(self):
        rng = random.Random(23)
        for _ in range(60):
            arity = rng.randint(1, 3)
            f = rand_poly(rng, arity, 4, 6)
            fe = essential_part(f)
            ft = full_closure(f)
            if arity == 1:
                assert same_function_1d(f, fe)
                assert same_function_1d(f, ft)
            else:
                for p in eval_points(arity, [Fraction(-2), Fraction(0),
                                             Fraction(3)]):
                    v = f.evaluate(p)
                    assert fe.evaluate(p) == v
                    assert ft.evaluate(p) == v

    def test_idempotent(self):
        rng = random.Random(29)
        for _ in range(40):
            f = rand_poly(rng, rng.randint(1, 2), 5, 6)
            assert essential_part(essential_part(f)) == essential_part(f)
            assert full_closure(full_closure(f)) == full_closure(f)
            assert is_full(full_closure(f))


class TestFullClosure:
    def test_pinned(self):
        assert full_closure(P("x^2 + 0")) == P("x^2 + 0v*x + 0")
        assert full_closure(P("x^2 + 4")) == P("x^2 + 2v*x + 4")

    def test_fills_newton_lattice(self):
        f = P("x^2*y^2 + 0")
        ft = full_closure(f)
        assert (1, 1) in ft.terms and ft.terms[(1, 1)] == ghost(0)


class TestEquivalence:
    def test_pinned_identities(self):
        assert equivalent(P("x + 3") * P("x + 3"), P("x^2 + 6"))
        assert not equivalent(P("x + 2"), P("x + 2v"))
        assert equivalent(P("x + 0v + 0"), P("x + 0v"))

    def test_matches_evaluation_oracle(self):
        rng = random.Random(31)
        agree = disagree = 0
        while agree < 40 or disagree < 40:
            f = rand_poly(rng, 1, 5, 5)
            g = rand_poly(rng, 1, 5, 5)
            if rng.random() < 0.5:
                g = essential_part(f) + rand_poly(rng, 1, 5, 2)
            want = same_function_1d(f, g)
            assert equivalent(f, g) == want
            if want:
                agree += 1
            else:
                disagree += 1

    def test_full_closures_equal_exactly_when_equivalent(self):
        # full closures are canonical and their dens least, so a plain
        # comparison decides equivalence; g is f with terms added strictly
        # below its hull (equivalent), f with one term moved by a half or
        # retagged (either), or an unrelated polynomial
        rng = random.Random(53)
        seen = Counter()
        for i in range(1200):
            arity = i % 3 + 1
            degree = (5, 3, 2)[arity - 1]
            f = rand_poly(rng, arity, degree, 5)
            F = full_closure(f)
            roll = rng.random()
            if roll < 0.4:
                below = {v: rng.choice((tangible, ghost))(
                    c.value - rand_fraction(rng, 1, 4))
                    for v, c in F.terms.items() if rng.random() < 0.5}
                g = essential_part(f) + TropicalPolynomial(arity, below)
            elif roll < 0.7:
                terms = dict(f.terms)
                e = rng.choice(list(terms))
                v = terms[e].value
                if terms[e].is_tangible() and rng.random() < 0.5:
                    terms[e] = ghost(v)
                else:
                    terms[e] = tangible(v + Fraction(rng.choice((-1, 1)), 2))
                g = TropicalPolynomial(arity, terms)
            else:
                g = rand_poly(rng, arity, degree, 5)
            G = full_closure(g)
            same = F == G
            assert equivalent(F, G) == same
            assert equivalent(f, g) == same
            seen[arity, same] += 1
        assert all(seen[a, s] >= 50 for a in (1, 2, 3) for s in (True, False))
        assert sum(seen[a, True] for a in (1, 2, 3)) >= 200, seen


class TestReducedOps:
    def test_products_stay_full(self):
        rng = random.Random(37)
        for _ in range(40):
            f = rand_poly(rng, 1, 4, 4)
            g = rand_poly(rng, 1, 4, 4)
            h = red_mul(f, g)
            assert is_full(h)
            for p in critical_points_1d(f, g, h):
                assert h.evaluate([p]) == (f * g).evaluate([p])
            s = red_add(f, g)
            assert is_full(s)
            for p in critical_points_1d(f, g, s):
                assert s.evaluate([p]) == (f + g).evaluate([p])

    def test_red_pow_matches_repeated_red_mul(self):
        rng = random.Random(41)
        for _ in range(25):
            f = rand_poly(rng, rng.randint(1, 2), 3, 4)
            acc = full_closure(f)
            for k in range(2, 5):
                acc = red_mul(acc, f)
                assert red_pow(f, k) == acc
        assert red_pow(P("x + 1"), 0) == P("0")

    def test_red_pow_negative_raises(self):
        with pytest.raises(ValueError):
            red_pow(P("x + 1"), -1)


class TestSlopeSequence:
    def test_pinned(self):
        s = slope_sequence(P("2*x^4 + 5*x^3 + 5*x^2 + 3*x + 0"))
        assert s.slopes == [3, 0, -2, -3]

    def test_monomial_raises(self):
        with pytest.raises(MonomialInput):
            slope_sequence(P("3*x^2"))

    def test_ascending_slopes_raise(self, monkeypatch):
        # a closure with ascending slopes is a broken invariant, not an
        # assert that -O strips
        monkeypatch.setattr(tropc.essential, "full_closure",
                            lambda f: P("x^2 + 0*x + 5"))
        with pytest.raises(InternalInconsistency):
            slope_sequence(P("x^2 + 0"))

    def test_descending_on_random_products(self):
        rng = random.Random(43)
        for _ in range(30):
            f = rand_tangible_full(rng, rng.randint(2, 6))
            s = slope_sequence(f)
            assert all(a >= b for a, b in zip(s.slopes, s.slopes[1:]))


class TestDivides:
    def test_exact_division(self):
        f = red_mul(P("x + 0"), P("x + 1"))
        q = divides(f, P("x + 0"))
        assert q is not None
        assert red_mul(q, full_closure(P("x + 0"))) == f

    def test_non_divisor(self):
        f = red_mul(P("x + 0"), P("x + 1"))
        assert divides(f, P("x + 5")) is None

    def test_random_products(self):
        rng = random.Random(47)
        for _ in range(30):
            g = rand_tangible_full(rng, rng.randint(1, 3))
            h = rand_tangible_full(rng, rng.randint(1, 3))
            f = red_mul(g, h)
            q = divides(f, g)
            assert q is not None
            assert red_mul(q, full_closure(g)) == full_closure(f)

    # The canonical factors of a product are not the union of the factors'
    # canonical factors, so the old factor-list matching missed these.
    @pytest.mark.parametrize("q,g", [
        ("0v*x + 1", "0v*x + 3"),
        ("x + 5v", "x + 1v"),
        ("x^2 + 5v*x + 7", "x^2 + 3v*x + 4"),
    ])
    def test_missed_quotient(self, q, g):
        f = P(q) * P(g)
        assert red_mul(P(q), P(g)) == full_closure(f)  # q is a quotient
        assert divides(f, P(g)) is not None
