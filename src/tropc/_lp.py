"""Exact linear programming over the rationals.

A small two-phase tableau simplex with Bland's rule.  It is on no
production path: the hull facts of ``tropc.essential`` come from its
beneath-beyond kernel, and this simplex backs the independent reference
hull path (``tests/lp_reference.py``) that the differential test compares
against.  Problem sizes are tiny, so clarity wins over speed.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class _Unbounded(Exception):
    pass


def _pivot(rows: List[List[Fraction]], basis: List[int], r: int, c: int):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            factor = row[c]
            rows[i] = [v - factor * w for v, w in zip(row, rows[r])]
    basis[r] = c


def _optimize(rows: List[List[Fraction]], basis: List[int],
              cost: Sequence[Fraction], allowed: int) -> Fraction:
    """Maximize cost over the current basic feasible tableau.

    ``allowed`` restricts entering variables to columns < allowed.
    Returns the optimal objective value; raises _Unbounded otherwise.
    """
    m = len(rows)
    while True:
        # reduced costs recomputed from scratch; problems are tiny
        y = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(allowed):
            if j in basis:
                continue
            rc = cost[j] - sum(y[i] * rows[i][j] for i in range(m))
            if rc > 0:
                entering = j
                break  # Bland: smallest index
        if entering < 0:
            return sum(y[i] * rows[i][-1] for i in range(m))
        leaving = -1
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if leaving < 0 or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise _Unbounded
        _pivot(rows, basis, leaving, entering)


def lp_max(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
           c: Sequence[Fraction]) -> Optional[Fraction]:
    """Maximize c.x subject to A x = b, x >= 0, all data rational.

    Returns the optimal value, or None when infeasible.  Raises
    _Unbounded for unbounded problems (callers here never produce one).
    """
    m = len(A)
    n = len(c)
    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [ONE if j == i else ZERO for j in range(m)]
        rows.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    total = n + m

    phase1 = [ZERO] * n + [-ONE] * m
    z = _optimize(rows, basis, phase1, total)
    if z < 0:
        return None

    # drive leftover artificials out of the basis, dropping redundant rows
    i = 0
    while i < len(rows):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                del rows[i]
                del basis[i]
                continue
            _pivot(rows, basis, i, col)
        i += 1

    phase2 = [Fraction(v) for v in c] + [ZERO] * m
    return _optimize(rows, basis, phase2, n)


def lp_feasible(A, b) -> bool:
    """Does A x = b, x >= 0 have a solution?"""
    n = len(A[0]) if A else 0
    return lp_max(A, b, [ZERO] * n) is not None
