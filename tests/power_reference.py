"""Reference power for the differential test: the square-and-multiply
``TropicalPolynomial.__pow__`` that raised polynomials before powers were
multiplied out one factor at a time.

The body below is kept as it was, written as a function of the polynomial
in place of a method: ``reference_pow(f, k)`` stands for ``f ** k``.
"""
from __future__ import annotations

from tropc.core import tangible
from tropc.polynomial import TropicalPolynomial, constant


def reference_pow(self: TropicalPolynomial, k: int) -> TropicalPolynomial:
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return constant(tangible(0), self._arity)
    base = self
    while not k & 1:
        base = base * base
        k >>= 1
    result = base
    while k > 1:
        base = base * base
        k >>= 1
        if k & 1:
            result = result * base
    if result is self:  # f ** 1 is a copy, as every other power
        return self._from_rows(self._arity, self._den, self._rows)
    return result
