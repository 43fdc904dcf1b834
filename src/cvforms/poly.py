"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables (rendered t1, t2, ...) is stored as a
mapping from exponent tuples to nonzero integer numerators over one
positive common denominator.  The denominator is not reduced to lowest
terms; equality and hashing compare values, not representations.
``fractions.Fraction`` appears only at the edges: the public constructor
takes Fraction-like coefficients, and ``terms``, ``canonical_text`` and
``to_json_dict`` build reduced Fractions on demand.  All operations return
new objects; instances are never mutated after construction, so they can
be shared freely.  The package's other value classes, ``cvform.CvForm``
and the ``cvform.Record`` subclasses, keep the same convention: none is
frozen, and none is mutated after construction.

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

    The zero polynomial keeps its variable count so dimension checks stay
    meaningful: ``Polynomial(4) != Polynomial(3)``.
    """

    __slots__ = ("nvars", "_numerators", "_denom")

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != nvars:
                raise ValueError(f"exponent tuple {key} does not have {nvars} slots")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            clean[key] = Fraction(coeff)
        # a zero coefficient has denominator 1, so dropping it later leaves the lcm alone
        denom = lcm(*(c.denominator for c in clean.values()))
        self.nvars = nvars
        self._numerators = {e: c.numerator * (denom // c.denominator) for e, c in clean.items() if c}
        self._denom = denom

    @classmethod
    def from_numerators(cls, nvars: int, numerators: dict[Exponents, int], denom: int) -> "Polynomial":
        """Wrap integer numerators over ``denom`` that the package computed itself.

        Trusted: ``numerators`` maps ``nvars``-slot tuples of non-negative
        exponents to nonzero ints and ``denom`` is a positive int; the dict
        is neither checked nor copied.  Outside input goes through ``__init__``.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._numerators = numerators
        poly._denom = denom
        return poly

    def numerators(self) -> tuple[dict[Exponents, int], int]:
        """``(numerators, denom)`` as ``from_numerators`` takes them.

        The dict is the polynomial's own, not a copy; callers must not mutate it.
        """
        return self._numerators, self._denom

    @classmethod
    def monomial(cls, nvars: int, exps: Exponents, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): Fraction(coeff)})

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

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError(f"mixing {self.nvars}- and {other.nvars}-variable polynomials")
        return sum_of(self.nvars, (self.numerators(), other.numerators()))

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_numerators(self.nvars, {e: -c for e, c in self._numerators.items()}, self._denom)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

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
        return Polynomial.from_numerators(self.nvars, {e: c for e, c in acc.items() if c}, self._denom)

    def first_monomial(self) -> Exponents | None:
        """Exponents of the first term in canonical order, None for zero."""
        return min(self._numerators, key=_term_key, default=None)

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
    return Polynomial.from_numerators(nvars, {e: c for e, c in acc.items() if c}, denom)
