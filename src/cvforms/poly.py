"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables (rendered t1, t2, ...) is stored as a
mapping from exponent tuples to nonzero ``fractions.Fraction`` coefficients.
All operations return new objects; instances are never mutated after
construction, so they can be shared freely.

The canonical term order is graded: total degree descending, ties broken
lexicographically on the exponent tuple, descending, with t1 > t2 > ... > tN.
Two polynomials are equal exactly when their canonical renderings coincide.
"""

from __future__ import annotations

from fractions import Fraction

Exponents = tuple[int, ...]


def _term_key(exps: Exponents) -> tuple:
    return (-sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Immutable sparse polynomial over the rationals.

    The zero polynomial keeps its variable count so dimension checks stay
    meaningful: ``Polynomial.zero(4) != Polynomial.zero(3)``.
    """

    __slots__ = ("nvars", "terms")

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
            c = Fraction(coeff)
            if c:
                clean[key] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap a result the package computed itself.

        ``terms`` must already map ``nvars``-slot tuples of non-negative
        exponents to ``Fraction`` values; only zero values are dropped.
        Input from outside goes through ``Polynomial(nvars, terms)``.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The monomial t_{index+1} (``index`` is 0-based)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponents, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixing {self.nvars}- and {other.nvars}-variable polynomials")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return Polynomial._trusted(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out: dict[Exponents, Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    out[key] = out.get(key, Fraction(0)) + ca * cb
            return Polynomial._trusted(self.nvars, out)
        if isinstance(other, (int, Fraction)):
            return Polynomial._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def total_degree(self) -> int:
        """Largest monomial degree, 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def differentiate(self, var: int, order: int = 1) -> "Polynomial":
        """Exact partial derivative d^order / d t_{var+1}^order.

        Falling-factorial coefficients keep everything in integer
        multiples, so no precision is lost.
        """
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range for {self.nvars} variables")
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        if order == 0:
            return self
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e < order:
                continue
            fall = 1
            for i in range(order):
                fall *= e - i
            key = exps[:var] + (e - order,) + exps[var + 1:]
            out[key] = coeff * fall
        return Polynomial._trusted(self.nvars, out)

    def symmetrized_derivative(self, k: int) -> "Polynomial":
        """Apply the power-sum operator sum_i d^k/dt_i^k."""
        if k < 1:
            raise ValueError("symmetrized derivative order must be at least 1")
        acc: dict[Exponents, Fraction] = {}
        for var in range(self.nvars):
            for exps, coeff in self.differentiate(var, k).terms.items():
                acc[exps] = acc.get(exps, Fraction(0)) + coeff
        return Polynomial._trusted(self.nvars, acc)

    def canonical_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms sorted by the canonical graded order."""
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]))

    def canonical_text(self) -> str:
        """Deterministic text rendering, e.g. ``1/2*t2^2 - t2*t4``."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.canonical_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"t{i + 1}")
                elif e > 1:
                    factors.append(f"t{i + 1}^{e}")
            mono = "*".join(factors)
            mag = -coeff if coeff < 0 else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def to_json_dict(self) -> dict:
        """JSON-ready form; numerators and denominators as strings."""
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
                for exps, c in self.canonical_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        terms = {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in data["terms"]
        }
        return cls(data["nvars"], terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.canonical_text()!r})"
