"""Garsia-Stanton descent monomials, written out for the tests.

``descent_monomial(w)`` is what ``basis.chars_suite`` holds each
characteristic monomial to, computed here from the permutation alone,
with no ribbon; ``decode`` is its inverse, the reason that a passing
check proves the monomials distinct.  No program path calls either.
"""


def descent_monomial(w) -> tuple[int, ...]:
    """Exponents in the backward variables: value ``w_k`` sits in variable
    ``N - w_k`` (0-based) and gets the number of falls of w at k and after."""
    n = len(w)
    exps = [0] * n
    for k, v in enumerate(w):
        exps[n - v] = sum(w[j] > w[j + 1] for j in range(k, n - 1))
    return tuple(exps)


def decode(exps) -> tuple[int, ...]:
    """The permutation of a descent monomial: the values v sorted by
    ``(-exponent of variable N - v, v)``."""
    n = len(exps)
    return tuple(sorted(range(1, n + 1), key=lambda v: (-exps[n - v], v)))


def major_index(w) -> int:
    """Sum of the 1-based positions at which w falls."""
    return sum(j + 1 for j in range(len(w) - 1) if w[j] > w[j + 1])
