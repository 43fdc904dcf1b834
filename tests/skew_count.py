"""Skew standard-tableau counts by the determinant formula, for the tests.

``count_syt`` is the reference that ``ribbon.count_tableaux`` and
``ribbon.enumerate_tableaux`` are held to: it shares no code with either.
"""

import math
from fractions import Fraction

from cvforms.ribbon import SkewPartition


def count_syt(sp: SkewPartition) -> int:
    """Number of standard fillings, by the determinant formula.

    ``n! det(1 / (lam_i - mu_j - i + j)!)`` over exact rationals; negative
    arguments contribute zero.
    """
    lam = sp.lam
    mu = sp.mu + (0,) * (len(sp.lam) - len(sp.mu))
    r = len(lam)
    n = sp.size

    def cell(i: int, j: int) -> Fraction:
        arg = lam[i] - mu[j] - i + j
        return Fraction(0) if arg < 0 else Fraction(1, math.factorial(arg))

    matrix = [[cell(i, j) for j in range(r)] for i in range(r)]

    def det(rows: tuple[int, ...], col: int) -> Fraction:
        if not rows:
            return Fraction(1)
        acc = Fraction(0)
        for idx, i in enumerate(rows):
            if matrix[i][col]:
                sub = det(rows[:idx] + rows[idx + 1:], col + 1)
                acc += (-1) ** idx * matrix[i][col] * sub
        return acc

    value = math.factorial(n) * det(tuple(range(r)), 0)
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"count_syt produced non-integral {value} for {sp}")
    return int(value)
