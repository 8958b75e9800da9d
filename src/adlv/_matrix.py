"""Small exact linear algebra helpers over int / Fraction.

Everything here works on tuples of tuples (rows).  No floats anywhere;
inverses and ranks go through Fraction so results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in a])


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_inv(a: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan over Fraction.  Raises on singular input."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free row elimination."""
    rows = [list(map(Fraction, r)) for r in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / p
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank
