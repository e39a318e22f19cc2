"""``divides`` reads its quotient off the slopes of two full closures.

The differential test holds it to the old factor-list matching in
``divides_reference.py``: no old quotient is lost, and where both answer
they agree on every value and on every tag the product forces.  A tag of
q at e is forced when flipping it changes ``red_mul(q, g)``.  The grid
test checks by brute force that every None on a degree <= 2 grid is a
proof that no quotient exists.
"""
import random
from collections import Counter
from itertools import product as iter_product

from divides_reference import reference_divides
from tropc import (TropicalPolynomial, divides, full_closure, ghost,
                   red_mul, tangible)
from util import rand_poly


def flip(q, e):
    c = q.terms[e]
    return TropicalPolynomial(1, {**q.terms, e: (
        ghost if c.is_tangible() else tangible)(c.value)})


def forced(q, g, e):
    return red_mul(flip(q, e), g) != red_mul(q, g)


def key(q):
    return frozenset(q.terms.items())


def grid(values):
    """Every nonempty univariate polynomial of degree <= 2 whose
    coefficients are tangible or ghost values from ``values``."""
    coeffs = [None] + [t(v) for v in values for t in (tangible, ghost)]
    for cs in iter_product(coeffs, repeat=3):
        terms = {(i,): c for i, c in enumerate(cs) if c is not None}
        if terms:
            yield TropicalPolynomial(1, terms)


class TestAgainstOldDivides:
    def test_random(self):
        rng = random.Random(61)
        seen = Counter()
        for i in range(4000):
            g = rand_poly(rng, 1, 3, 3)
            # every other f is a product, so a quotient exists
            f = rand_poly(rng, 1, 3, 3) * g if i % 2 else \
                rand_poly(rng, 1, 5, 4)
            new, old = divides(f, g), reference_divides(f, g)
            if new is None:
                assert old is None, (f, g)
                seen["none"] += 1
                continue
            assert red_mul(new, g) == full_closure(f)
            # the documented rule: a tag that is not forced is ghost
            assert all(forced(new, g, e)
                       for e, c in new.terms.items() if c.is_tangible())
            if old is None:
                seen["new"] += 1
                continue
            assert new.terms.keys() == old.terms.keys()
            for e, c in old.terms.items():
                assert new.terms[e].value == c.value
                assert new.terms[e] == c or not forced(old, g, e), (f, g, e)
            seen["same" if new == old else "free tags"] += 1
        assert seen["none"] >= 1000 and seen["same"] >= 1000
        assert seen["new"] >= 100 and seen["free tags"] >= 20


class TestNoneIsAProof:
    def test_degree_two_grid(self):
        """f and g range over the coefficients 0 and 1.  A vertex of a
        product splits into vertices of its factors, so every vertex value
        of a quotient is a difference of f's and g's coefficients, -1, 0
        or 1, and the closures of the candidate grid cover every quotient
        there is."""
        polys = list(grid((0, 1)))
        candidates = {key(full_closure(q)): full_closure(q)
                      for q in grid((-1, 0, 1))}.values()
        nones = 0
        for g in polys:
            reachable = {key(red_mul(q, g)) for q in candidates}
            for f in polys:
                q = divides(f, g)
                if q is None:
                    nones += 1
                    assert key(full_closure(f)) not in reachable, (f, g)
                else:
                    assert key(full_closure(f)) in reachable
        assert len(polys) == 124 and nones >= 1000
