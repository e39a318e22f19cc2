"""Every certificate raises InternalInconsistency when its check fails.

Each test breaks one check with monkeypatch and checks only through
``pytest.raises``, so it keeps its meaning under ``python -O``, which strips
``assert`` statements; CI runs this file that way too, so no certificate can
rely on ``assert``.
"""
from fractions import Fraction

import pytest

import tropc.essential
import tropc.univariate
from tropc import (Factorization, InternalInconsistency, common_root,
                   divides, factor_full, factor_tangible_full, find_root,
                   parse_poly, red_mul)

P = parse_poly


def test_factorization(monkeypatch):
    # the factors multiply back to something other than the closure
    monkeypatch.setattr(Factorization, "_product", lambda self: P("x + 9"))
    with pytest.raises(InternalInconsistency):
        factor_full(P("x^2 + 1v*x + 0"))
    with pytest.raises(InternalInconsistency):
        factor_tangible_full(P("x^2 + 3*x + 1"))


def test_divides(monkeypatch):
    # the forced quotient times g no longer gives f back
    f = red_mul(P("x + 0"), P("x + 1"))
    monkeypatch.setattr(tropc.essential, "red_mul", lambda q, g: P("x + 9"))
    with pytest.raises(InternalInconsistency):
        divides(f, P("x + 0"))


def test_find_root(monkeypatch):
    # x = 5 is past the root 0, where x alone dominates
    monkeypatch.setattr(tropc.univariate, "_threshold",
                        lambda f: Fraction(5))
    with pytest.raises(InternalInconsistency):
        find_root(P("x + 0"))
    with pytest.raises(InternalInconsistency):
        find_root(P("x + y + 0"))


def test_common_root(monkeypatch):
    # at the ghost point -5 the tangible constant 0 alone dominates
    monkeypatch.setattr(tropc.univariate, "_threshold",
                        lambda f: Fraction(-5))
    with pytest.raises(InternalInconsistency):
        common_root([P("x + 0"), P("x + 1v")])
