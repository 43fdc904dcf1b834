"""A ``Polynomial`` from ``Fraction`` terms, the tests' independent reference.

The package builds every value from integer numerators it computed
itself; the tests build theirs from coefficients written out by hand
or summed in ``Fraction`` arithmetic, and wrap them here.
"""

from fractions import Fraction
from math import lcm

from cvforms.poly import Polynomial


def from_fractions(nvars: int, terms) -> Polynomial:
    """The polynomial with these ``{exponents: coefficient}`` terms.

    Coefficients are anything ``Fraction`` takes; zero ones drop out, and
    the numerators are held over the lcm of the reduced denominators.
    """
    clean = {tuple(exps): Fraction(c) for exps, c in terms.items()}
    denom = lcm(*(c.denominator for c in clean.values()))
    return Polynomial(nvars, {e: c.numerator * (denom // c.denominator) for e, c in clean.items() if c}, denom)
