"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables (rendered t1, t2, ...) is stored as a
mapping from exponent tuples to nonzero integer numerators over one
positive common denominator, as the package's kernels compute them; its
one constructor takes them unchecked.  The denominator is not reduced to
lowest terms; equality compares values, not representations.  There is
no arithmetic on polynomials: ``sum_of`` adds numerator maps and
``symmetrized_derivative`` differentiates them.  ``fractions.Fraction``
appears only at the edge: ``terms``, ``canonical_text`` and
``to_json_dict`` build reduced Fractions on demand.  Instances are never
mutated after construction, so they can be shared freely.  The package's
other value classes, ``cvform.CvForm`` and the ``cvform.Record``
subclasses, keep the same convention: none is frozen, and none is
mutated after construction.

The canonical term order is graded: total degree descending, ties broken
lexicographically on the exponent tuple, descending, with t1 > t2 > ... > tN.
Two polynomials are equal exactly when their canonical renderings coincide.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from types import MappingProxyType

Exponents = tuple[int, ...]


def _term_key(exps: Exponents) -> tuple:
    return (-sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Immutable sparse polynomial over the rationals.

    ``Polynomial(nvars, numerators, denom)`` wraps integer numerators over
    ``denom`` that the package computed itself.  Trusted: ``numerators``
    maps ``nvars``-slot tuples of non-negative exponents to nonzero ints and
    ``denom`` is a positive int; the dict is neither checked nor copied.
    The zero polynomial keeps its variable count so dimension checks stay
    meaningful: ``Polynomial(4, {}, 1) != Polynomial(3, {}, 1)``.
    """

    __slots__ = ("nvars", "_numerators", "_denom")

    def __init__(self, nvars: int, numerators: dict[Exponents, int], denom: int):
        self.nvars = nvars
        self._numerators = numerators
        self._denom = denom

    def numerators(self) -> tuple[dict[Exponents, int], int]:
        """``(numerators, denom)`` as the constructor takes them.

        The dict is the polynomial's own, not a copy; callers must not mutate it.
        """
        return self._numerators, self._denom

    @property
    def terms(self) -> MappingProxyType:
        """Read-only view of the reduced ``Fraction`` coefficients, built on each access."""
        d = self._denom
        return MappingProxyType({e: Fraction(c, d) for e, c in self._numerators.items()})

    def __bool__(self) -> bool:
        return bool(self._numerators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._numerators, other._numerators
        if self.nvars != other.nvars or a.keys() != b.keys():
            return False
        # a/da == b/db term by term, cross-multiplied
        da, db = self._denom, other._denom
        return all(c * db == b[e] * da for e, c in a.items())

    def symmetrized_derivative(self, k: int) -> "Polynomial":
        """Apply the power-sum operator sum_i d^k/dt_i^k.

        One pass over the numerators: t_i^e becomes ``e!/(e-k)!`` times
        t_i^(e-k), so the result stays integer over the same denominator.
        """
        if k < 1:
            raise ValueError("symmetrized derivative order must be at least 1")
        acc: dict[Exponents, int] = {}
        for exps, c in self._numerators.items():
            for i, e in enumerate(exps):
                if e >= k:
                    key = exps[:i] + (e - k,) + exps[i + 1:]
                    acc[key] = acc.get(key, 0) + c * perm(e, k)
        return Polynomial(self.nvars, {e: c for e, c in acc.items() if c}, self._denom)

    def canonical_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms sorted by the canonical graded order."""
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]))

    def canonical_text(self) -> str:
        """Deterministic text rendering, e.g. ``1/2*t2^2 - t2*t4``."""
        if not self._numerators:
            return "0"
        pieces = []
        for exps, coeff in self.canonical_terms():
            mono = "*".join(f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(exps) if e)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        text = " ".join(pieces)
        # the first term drops its plus sign and the space after its sign
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json_dict(self) -> dict:
        """JSON-ready form; numerators and denominators as strings."""
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
                for exps, c in self.canonical_terms()
            ],
        }

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.canonical_text()!r})"


def sum_of(nvars: int, parts) -> Polynomial:
    """Sum of ``(numerators, denom)`` pairs, in one pass over the lcm of their denominators.

    Each ``numerators`` is a mapping of ``nvars``-slot exponent tuples to
    ints over its positive ``denom``, such as a ``Polynomial``'s own or a
    ``laplace._FormRow`` view; only its ``items()`` are read, so a view
    is summed with no copy.
    """
    parts = list(parts)
    denom = lcm(*(d for _, d in parts))
    acc: dict[Exponents, int] = {}
    get = acc.get
    for numerators, d in parts:
        scale = denom // d
        for e, c in numerators.items():
            acc[e] = get(e, 0) + c * scale
    return Polynomial(nvars, {e: c for e, c in acc.items() if c}, denom)
