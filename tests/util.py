"""Shared random generators and oracles for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product
from typing import List, Optional

from tropc import (NEG_INFINITY, TropicalNumber, TropicalPolynomial, ghost,
                   red_mul, tangible)
from tropc.essential import _kept

from det_reference import fraction_det, fraction_rank


def rand_fraction(rng: random.Random, lo=-9, hi=9, denominators=(1, 1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(denominators))


def rand_number(rng: random.Random, allow_neg_inf=True) -> TropicalNumber:
    roll = rng.random()
    if allow_neg_inf and roll < 0.08:
        return NEG_INFINITY
    v = rand_fraction(rng)
    return ghost(v) if roll < 0.45 else tangible(v)


def rand_coeff(rng: random.Random) -> TropicalNumber:
    v = rand_fraction(rng)
    return ghost(v) if rng.random() < 0.4 else tangible(v)


def rand_poly(rng: random.Random, arity: int, max_degree: int,
              max_terms: int, nonempty=True) -> TropicalPolynomial:
    n_terms = rng.randint(1 if nonempty else 0, max_terms)
    terms = {}
    for _ in range(n_terms):
        while True:
            exp = tuple(rng.randint(0, max_degree) for _ in range(arity))
            if sum(exp) <= max_degree:
                break
        terms[exp] = rand_coeff(rng)
    return TropicalPolynomial(arity, terms)


def rand_tangible_full(rng: random.Random, degree: int) -> TropicalPolynomial:
    """A random tangible-full univariate polynomial built as a product of
    tangible linear factors (plus a unit and an optional monomial factor)."""
    unit = tangible(rand_fraction(rng))
    lower = rng.randint(0, 1)
    f = TropicalPolynomial(1, {(lower,): unit})
    for _ in range(degree - lower):
        root = rand_fraction(rng)
        lin = TropicalPolynomial(1, {(1,): tangible(0), (0,): tangible(root)})
        f = red_mul(f, lin)
    return f


def eval_points(arity: int, values: List[Fraction]) -> List[tuple]:
    """Points covering every tangible/ghost tag pattern plus -inf coords."""
    pts = []
    for pattern in iter_product((0, 1), repeat=arity):
        for v in values:
            pts.append(tuple(
                ghost(v + i) if bit else tangible(v + i)
                for i, bit in enumerate(pattern)))
    # points with -inf in each coordinate, and the all--inf point
    for i in range(arity):
        pts.append(tuple(
            NEG_INFINITY if j == i else tangible(values[0])
            for j in range(arity)))
    pts.append((NEG_INFINITY,) * arity)
    return pts


def critical_points_1d(*polys: TropicalPolynomial):
    """Evaluation points that separate any two distinct univariate
    piecewise-linear functions built from the given polynomials: every
    pairwise tie value of the affine forms, midpoints between consecutive
    ties, outer points, each as tangible and ghost, plus the bottom element.
    """
    lines = []  # (slope, intercept)
    for f in polys:
        for e, c in f.terms.items():
            lines.append((e[0], c.value))
    ties = set()
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            (s1, h1), (s2, h2) = lines[a], lines[b]
            if s1 != s2:
                ties.add(Fraction(h2 - h1, s1 - s2))
    xs = sorted(ties)
    samples = set(xs)
    for u, v in zip(xs, xs[1:]):
        samples.add((u + v) / 2)
    if xs:
        samples.add(xs[0] - 1)
        samples.add(xs[-1] + 1)
    else:
        samples.update((Fraction(-1), Fraction(0), Fraction(1)))
    pts = [NEG_INFINITY]
    for v in sorted(samples):
        pts.append(tangible(v))
        pts.append(ghost(v))
    return pts


def same_function_1d(f: TropicalPolynomial, g: TropicalPolynomial) -> bool:
    """Dense-sampling oracle for functional equality of univariate
    polynomials; exact because both are piecewise linear and every
    breakpoint is among the sample points."""
    pts = critical_points_1d(f, g)
    return all(f.evaluate([p]) == g.evaluate([p]) for p in pts)


def poly_key(f: TropicalPolynomial):
    return (f.arity, tuple(sorted(
        (e, c.tag, c.value) for e, c in f.terms.items())))


def _ranks(f: TropicalPolynomial):
    """The number of f's terms, the dimension k of its support and that of
    its lifted points, ranks taken over the integer rows."""
    rows = sorted(f._rows)
    e0, s0, _ = rows[0]
    support = [[a - b for a, b in zip(e, e0)] for e, _, _ in rows]
    lifted = [d + [s - s0] for d, (_, s, _) in zip(support, rows)]
    return len(rows), len(_kept(support)[1]), len(_kept(lifted)[1])


def hull_builds(f: TropicalPolynomial) -> int:
    """The beneath-beyond runs one hull of f's lifted points takes: none
    for an affinely independent support (k + 1 exponents spanning k
    dimensions, a single term included), whose start simplex is its whole
    hull, and one otherwise, a flat lift included."""
    m, k, _ = _ranks(f)
    return 0 if k == m - 1 else 1


def unimodular(f: TropicalPolynomial) -> bool:
    """Whether f's support is an affinely independent set (k + 1 exponents
    spanning k dimensions, a single term included) whose differences from
    the least exponent have a k x k minor of +-1 on the first k columns
    that are independent from the left (the pivots of a reduced echelon
    form): a simplex unimodular on those coordinates, which holds no
    lattice point but its vertices, so f is its own full closure.  Ranks
    and the minor are taken over ``Fraction``s."""
    exps = sorted(f.terms)
    diffs = [[a - b for a, b in zip(e, exps[0])] for e in exps[1:]]
    cols: List[int] = []
    for c in range(f.arity):
        if fraction_rank([[r[j] for j in cols + [c]] for r in diffs]) > \
                len(cols):
            cols.append(c)
    return len(cols) == len(diffs) and \
        abs(fraction_det([[r[c] for c in cols] for r in diffs])) == 1


def is_flat_lift(f: TropicalPolynomial) -> bool:
    """Heights affine in the exponent over a support that is not affinely
    independent: the lift's upper hull is one plane."""
    m, k, lifted = _ranks(f)
    return k < m - 1 and lifted == k
