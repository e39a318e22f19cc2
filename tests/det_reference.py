"""Frozen determinants for the fraction-free elimination in
``tropc.essential._det``: the cofactor (Laplace) expansion it replaced,
and ``Fraction`` Gaussian elimination, with the rank it gives."""
from fractions import Fraction
from typing import List, Sequence


def laplace_det(m: List[List[int]]) -> int:
    """Determinant of a square integer matrix, along the first row."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if len(m) < 2:
        return m[0][0] if m else 1
    return sum((-1) ** j * a * laplace_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, a in enumerate(m[0]) if a)


def _eliminate(m: Sequence[Sequence[int]]):
    """Row echelon form over ``Fraction``: the pivots in order and the
    number of row swaps."""
    rows = [[Fraction(a) for a in r] for r in m]
    pivots, swaps, top = [], 0, 0
    for c in range(len(rows[0]) if rows else 0):
        j = next((j for j in range(top, len(rows)) if rows[j][c]), None)
        if j is None:
            continue
        if j != top:
            rows[top], rows[j] = rows[j], rows[top]
            swaps += 1
        p = rows[top][c]
        for r in rows[top + 1:]:
            t = r[c] / p
            if t:
                for i in range(c, len(r)):
                    r[i] -= t * rows[top][i]
        pivots.append(p)
        top += 1
    return pivots, swaps


def fraction_det(m: Sequence[Sequence[int]]) -> int:
    pivots, swaps = _eliminate(m)
    if len(pivots) < len(m):
        return 0
    det = Fraction((-1) ** swaps)
    for p in pivots:
        det *= p
    if det.denominator != 1:
        raise ValueError("an integer matrix has an integer determinant")
    return int(det)


def fraction_rank(m: Sequence[Sequence[int]]) -> int:
    return len(_eliminate(m)[0])
