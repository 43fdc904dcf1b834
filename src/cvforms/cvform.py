"""Confluent Vandermonde forms.

A form ``[n1 ... nN]`` with ``0 <= ni <= N-1`` denotes the determinant whose
column j holds the descending factorial-normalized powers
``t_j^(nj-i+1)/(nj-i+1)!`` for rows ``i = 1..N`` (entries with a negative
exponent are zero).  Equivalently it is a mixed partial derivative of the
normalized Vandermonde determinant ``[N-1 ... N-1]``, where entry ``ni``
means variable ``t_i`` was differentiated ``N-1-ni`` times.

This module covers the entry-level combinatorics of forms: degree, zero
removal, and type and class vectors.
Polynomial evaluation lives in :mod:`cvforms.laplace`.
"""

from __future__ import annotations

import re
from operator import attrgetter


def permutation_sign(perm) -> int:
    """Sign of a sequence of distinct comparables, by inversion count."""
    p = tuple(perm)
    inversions = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def vector_tokens(text: str, brackets=("[]",)) -> list[str]:
    """The comma- or space-separated tokens of a vector literal.

    Each bracket pair in ``brackets``, in turn, is stripped when it
    encloses the whole text.
    """
    body = text.strip()
    for pair in brackets:
        if body.startswith(pair[0]) and body.endswith(pair[1]):
            body = body[1:-1]
    return [p for p in re.split(r"[,\s]+", body.strip()) if p]


def vector_text(values) -> str:
    """``(v1 v2 ...)``, the way listings print a vector."""
    return "(" + " ".join(str(v) for v in values) + ")"


def valid_class(entries) -> bool:
    """True when ``entries`` is a class vector.

    Class vectors are nonincreasing, fall in unit steps, and end at 0.
    """
    c = tuple(entries)
    if not c or c[-1] != 0:
        return False
    return all(hi - lo in (0, 1) for hi, lo in zip(c, c[1:]))


class Record:
    """Base of the package's plain value classes: equality, hash and repr by field.

    A subclass names its compared fields in ``_fields`` and every attribute
    in ``__slots__``, and assigns them in its own ``__init__``.  Two records
    are equal when they are of the same class and their fields are equal;
    any other class gives NotImplemented.  The hash is that of the field
    tuple, and ``repr`` reads ``Name(field=value, ...)``.  Records are not
    frozen: like ``CvForm`` and ``poly.Polynomial`` they are never mutated
    after construction, which keeps the hash of a record fixed.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields, read in C, since ``verify N orders`` compares N!^2
        # tableaux: an attrgetter returns their tuple, or the bare value of
        # a single field, which compares as its 1-tuple does
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        key = self._key
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class CvForm:
    """An entry vector ``[n1 ... nN]`` with ``0 <= ni <= N-1``.

    The constructor checks the range, for outside input; ``trusted``
    wraps entries that the package computed in range.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        ent = tuple(map(int, entries))
        if not ent:
            raise ValueError("a form needs at least one entry")
        n = len(ent)
        if min(ent) < 0 or max(ent) > n - 1:
            # name the first offending entry, as a per-entry check would
            for e in ent:
                if not 0 <= e <= n - 1:
                    raise ValueError(f"entry {e} outside 0..{n - 1} for {n} variables")
        self.entries = ent

    @classmethod
    def trusted(cls, entries: tuple[int, ...]) -> "CvForm":
        """Wrap entries that the package computed itself.

        Trusted: ``entries`` is a nonempty tuple of ints in 0..N-1, N being
        its length; it is neither checked nor copied.  Outside input goes
        through ``__init__``.
        """
        form = object.__new__(cls)
        form.entries = entries
        return form

    @property
    def N(self) -> int:
        return len(self.entries)

    @classmethod
    def parse(cls, text: str) -> "CvForm":
        """Accepts ``[2 2 3 3]``, ``2,2,3,3`` or ``2 2 3 3``."""
        parts = vector_tokens(text)
        if not parts:
            raise ValueError(f"cannot parse form from {text!r}")
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"cannot parse form from {text!r}: {exc}") from None

    def __str__(self) -> str:
        return "[" + " ".join(str(e) for e in self.entries) + "]"

    def __repr__(self) -> str:
        return f"CvForm({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CvForm):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def degree(self) -> int:
        """Polynomial degree: sum of entries minus N(N-1)/2."""
        n = self.N
        return sum(self.entries) - n * (n - 1) // 2

    def remove_zeros(self) -> tuple[int, "CvForm | None"]:
        """Apply the zero-removal rule until a terminal case, in closed form.

        A zero entry is a column (1, 0, ..., 0); expanding the determinant
        along it shows ``[.. 0 ..] = (-1)^(N-1) [.. N-1 ..]`` with every
        other entry decremented.  One step thus maps every value v to
        v - 1 mod N, so the rule is a rotation that stops at the smallest
        value r that the entries do not take exactly once.

        Returns ``(sign, form)`` with a zero-free ``form``: r not taken
        gives ``(-1)^((N-1)r)`` and the entries ``(e - r) mod N``.  Or a
        scalar terminal as ``(value, None)``: r taken twice gives 0 (two
        equal columns), and all-distinct entries give the sign of the
        permutation sorting them (triangular determinant up to column
        order).

        A zero-free form is ``(1, self)``, decided by the zero test alone:
        its N entries take at most the N-1 values 1..N-1, so one repeats
        and the form is no scalar.
        """
        ent = self.entries
        if 0 not in ent:
            return 1, self
        n = len(ent)
        r = next((v for v in range(n) if ent.count(v) != 1), None)
        if r is None:
            # the entries are a permutation of 0..N-1, with the sign of its inverse
            return permutation_sign(ent), None
        if ent.count(r):
            return 0, None
        return (-1) ** ((n - 1) * r), CvForm.trusted(tuple((e - r) % n for e in ent))

    def type_of(self) -> tuple[int, ...]:
        """Componentwise ``ni - si + 1`` against the standard permutation s,
        the 1-based ranks of the entries with ties resolved left to right.

        One stable sort ranks the entries, ties left to right, and each entry
        loses its 0-based rank; ``laplace.characteristic_exponents`` reads it.
        """
        ent = self.entries
        typ = list(ent)
        for rank, i in enumerate(sorted(range(len(ent)), key=ent.__getitem__)):
            typ[i] -= rank
        return tuple(typ)

    def is_regular(self) -> bool:
        """True when the sorted entries rise in steps of at most one."""
        srt = sorted(self.entries)
        return all(b - a <= 1 for a, b in zip(srt, srt[1:]))

    def class_of(self) -> tuple[int, ...]:
        """Type entries sorted nonincreasing; defined for regular forms."""
        if not self.is_regular():
            raise ValueError(f"{self} is not regular, it has no class")
        return tuple(sorted(self.type_of(), reverse=True))
