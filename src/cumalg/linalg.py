"""Exact linear algebra over the rationals, sized for basis-level problems."""
from __future__ import annotations

from fractions import Fraction

from .algebra import exact


def _echelon(rows, width):
    """Row-reduce in place; returns pivot column list."""
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = exact(Fraction(1, rows[r][col]))
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(matrix) -> int:
    """Rank of a list-of-rows rational matrix."""
    if not matrix:
        return 0
    rows = [[exact(x) for x in row] for row in matrix]
    return len(_echelon(rows, len(rows[0])))
