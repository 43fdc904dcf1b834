"""Ribbons, skew partitions and standard tableaux.

A class vector ``k1 >= ... >= kN = 0`` (unit steps) draws a ribbon: box i
sits at row ``ki``, column ``ni = ki + i - 1``, English convention with row
0 on top, so the walk runs from the bottom-left box to the top-right box
at ``(0, N-1)``.  Standard fillings of the ribbon are exactly the
permutations that rise along horizontal steps and fall along vertical
ones.  Reading box coordinates backwards from entry N yields confluent
Vandermonde forms, one per tableau.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from collections.abc import Iterator
from operator import add, gt

from .cvform import CvForm, Record, valid_class


class Ribbon(Record):
    """A connected skew shape with no 2x2 square, as a box walk."""

    _fields = ("boxes",)
    __slots__ = ("boxes", "_falls")

    def __init__(self, boxes: tuple[tuple[int, int], ...]):
        n = len(boxes)
        if n == 0:
            raise ValueError("a ribbon needs at least one box")
        if boxes[-1] != (0, n - 1):
            raise ValueError(f"last box must be (0, {n - 1}), got {boxes[-1]}")
        falls = []
        for (k1, c1), (k2, c2) in zip(boxes, boxes[1:]):
            if k2 == k1 and c2 == c1 + 1:
                falls.append(False)
            elif k2 == k1 - 1 and c2 == c1:
                falls.append(True)
            else:
                raise ValueError(f"illegal step {(k1, c1)} -> {(k2, c2)}")
        self.boxes = boxes
        # kept beside the field, not compared: every tableau validation and the
        # basis layer's filing of permutations read the fall word
        self._falls = tuple(falls)

    @property
    def size(self) -> int:
        return len(self.boxes)

    @property
    def height(self) -> int:
        """Number of rows occupied, the top row coordinate plus one."""
        return self.boxes[0][0] + 1

    def falls(self) -> tuple[bool, ...]:
        """True where the walk steps up a column, so a standard filling falls."""
        return self._falls

    def class_entries(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.boxes)


def class_to_ribbon(class_entries) -> Ribbon:
    """Ribbon of a class vector; box i at (k_i, k_i + i - 1)."""
    c = tuple(class_entries)
    if not valid_class(c):
        raise ValueError(f"{c} is not a valid class vector")
    return Ribbon(tuple((k, k + i) for i, k in enumerate(c)))


def ribbon_index(r: Ribbon) -> int:
    """Sum of the row coordinates; the degree of the attached forms."""
    return sum(k for k, _ in r.boxes)


class SkewPartition(Record):
    """A pair lam/mu of partitions, mu inside lam."""

    __slots__ = _fields = ("lam", "mu")

    def __init__(self, lam: tuple[int, ...], mu: tuple[int, ...]):
        if any(a < b for a, b in zip(lam, lam[1:])) or any(a < b for a, b in zip(mu, mu[1:])):
            raise ValueError("partition rows must be nonincreasing")
        if len(mu) > len(lam):
            raise ValueError("inner shape has more rows than outer shape")
        padded = mu + (0,) * (len(lam) - len(mu))
        if any(m > l for l, m in zip(lam, padded)):
            raise ValueError("inner shape does not fit inside outer shape")
        self.lam = lam
        self.mu = mu

    @property
    def size(self) -> int:
        return sum(self.lam) - sum(self.mu)

    def __str__(self) -> str:
        inner = "".join(str(m) for m in self.mu)
        return "(" + "".join(str(l) for l in self.lam) + ")/(" + inner + ")"


def to_skew_partition(r: Ribbon) -> SkewPartition:
    """Left-justified skew shape whose rows match the ribbon's rows."""
    shift = min(c for _, c in r.boxes)
    top = r.boxes[0][0]
    lam, mu = [], []
    for row in range(top + 1):
        cols = [c for k, c in r.boxes if k == row]
        lam.append(max(cols) + 1 - shift)
        mu.append(min(cols) - shift)
    while mu and mu[-1] == 0:
        mu.pop()
    return SkewPartition(tuple(lam), tuple(mu))


class SkewTableau(Record):
    """A standard filling of a ribbon, stored along the box walk."""

    __slots__ = _fields = ("ribbon", "filling")

    def __init__(self, ribbon: Ribbon, filling: tuple[int, ...]):
        self.ribbon = ribbon
        self.filling = filling
        w = filling
        n = len(ribbon.boxes)
        # the predicate of the loop below, in C: a permutation of 1..N that
        # falls exactly at the column steps; only a rejected filling runs
        # the loop, which names the fault
        if tuple(map(gt, w, w[1:])) == ribbon._falls and sorted(w) == list(range(1, n + 1)):
            return
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"filling {w} is not a permutation of 1..{n}")
        for (a, b), fall in zip(zip(w, w[1:]), ribbon.falls()):
            if not fall and not a < b:
                raise ValueError(f"filling {w} does not rise along a row step")
            if fall and not a > b:
                raise ValueError(f"filling {w} does not fall along a column step")

    def box_of(self, value: int) -> tuple[int, int]:
        return self.ribbon.boxes[self.filling.index(value)]

    def to_json_dict(self) -> dict:
        return {"boxes": [list(b) for b in self.ribbon.boxes], "filling": list(self.filling)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SkewTableau":
        """Inverse of ``to_json_dict``; malformed data raises ValueError.

        That includes a ``true`` or ``1.0`` entry and a box that is not a
        ``[row, column]`` pair.
        """
        try:
            boxes = tuple(tuple(b) for b in data["boxes"])
            filling = tuple(data["filling"])
            for x in itertools.chain(filling, *boxes):
                if type(x) is not int:
                    raise ValueError(f"tableau JSON entries must be integers, not {type(x).__name__}")
            for b in boxes:
                if len(b) != 2:
                    raise ValueError(f"tableau JSON box {list(b)} is not a [row, column] pair")
            return cls(Ribbon(boxes), filling)
        except KeyError as exc:
            raise ValueError(f"tableau JSON lacks the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed tableau JSON: {exc}") from None


def _completions(falls: tuple[bool, ...]) -> list[list[int]]:
    """Completion counts: row p, entry j counts the ways to complete a
    word of length p + 1 whose last value exceeds exactly j of the still
    unused values.  Filled backwards from the last box, each row is one
    prefix sum over the next.
    """
    completions = [[1]]
    for fall in reversed(falls):
        below = list(itertools.accumulate(completions[0], initial=0))
        completions.insert(0, below if fall else [below[-1] - b for b in below])
    return completions


def count_tableaux(r: Ribbon) -> int:
    """Number of standard fillings, in O(N^2) from the completion counts."""
    return sum(_completions(r.falls())[0])


def enumerate_tableaux(r: Ribbon) -> list[SkewTableau]:
    """All standard fillings, lexicographic on the filling word.

    The words grow level by level: after a row step by an unused value
    above the last one, after a column step by one below it.  Growing the
    words of a level in order, candidates ascending, keeps the order.  A
    value enters only if the word can still be completed, so no dead end
    is ever built.
    """
    n = r.size
    falls = r.falls()
    completions = _completions(falls)
    values = tuple(range(1, n + 1))
    level = [((v,), values[:v - 1] + values[v:]) for v in values if completions[0][v - 1]]
    for p, fall in enumerate(falls, start=1):
        fits = completions[p]
        grown = []
        for word, unused in level:
            cut = bisect(unused, word[-1])
            for i in range(cut) if fall else range(cut, len(unused)):
                if fits[i]:
                    grown.append((word + (unused[i],), unused[:i] + unused[i + 1:]))
        level = grown
    return [SkewTableau(r, word) for word, _ in level]


def backward_order(n: int) -> tuple[int, ...]:
    """The default reading order N, N-1, ..., 1."""
    return tuple(range(n, 0, -1))


def tableau_to_cvform(t: SkewTableau, reading_order=None) -> CvForm:
    """Read column coordinates in the order the values are visited.

    With the backward default, entry j of the form is the column of the
    box holding value N-j+1; the rightmost column is N-1 by construction.
    """
    n = t.ribbon.size
    order = tuple(reading_order) if reading_order is not None else backward_order(n)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"reading order {order} is not a permutation of 1..{n}")
    return CvForm(t.box_of(v)[1] for v in order)


def tableau_to_type(t: SkewTableau) -> tuple[int, ...]:
    """Row coordinates read backwards; the type of the backward form."""
    n = t.ribbon.size
    return tuple(t.box_of(v)[0] for v in backward_order(n))


def tableau_from_cvform(form: CvForm) -> SkewTableau:
    """Inverse of the backward reading, when the form is standard.

    The class of the form fixes the ribbon; values are replayed from N
    down to 1, each dropping into the lowest free box of its column.  The
    walk steps only right or up, so it lists each column bottom first.
    Raises when the form is not regular or the filling is not standard.
    """
    r = class_to_ribbon(form.class_of())
    n = form.N
    by_col: dict[int, list[int]] = {}
    for idx, (k, c) in enumerate(r.boxes):
        by_col.setdefault(c, []).append(idx)
    slots = [0] * n
    for j, col in enumerate(form.entries):
        stack = by_col.get(col)
        if not stack:
            raise ValueError(f"{form} does not read any standard tableau")
        slots[stack.pop(0)] = n - j
    return SkewTableau(r, tuple(slots))


def flip(t: SkewTableau) -> SkewTableau:
    """Reflect across the skew diagonal and complement the values.

    Box (k, c) goes to (N-1-c, N-1-k), which keeps the walk's box order
    and its anchor (0, N-1), so row and column steps trade places along
    the walk; value v becomes N-v+1, which keeps the filling standard.
    Applying flip twice gives the original tableau back.
    """
    n = t.ribbon.size
    boxes = tuple((n - 1 - c, n - 1 - k) for k, c in t.ribbon.boxes)
    return SkewTableau(Ribbon(boxes), tuple(n + 1 - v for v in t.filling))


def enumerate_ribbons(n: int) -> Iterator[Ribbon]:
    """All 2^(N-1) ribbons on N boxes, classes descending lexicographic.

    An iterator: one ribbon is built at a time, with no recursion.  A
    class counts, at each box, the column steps after it, so the first
    entry is the number of column steps and, among equal numbers, a row
    step earlier in the walk leaves a larger class.  So the classes come
    by descending number of column steps, and within one number by the
    row-step positions in lexicographic order.
    """
    if n < 1:
        raise ValueError("need at least one box")
    return (class_to_ribbon(c) for c in _classes(n))


def _classes(n: int):
    # the classes of enumerate_ribbons, in its order: the step word holds 1
    # at a column step, and class entry i sums the word from step i on
    for columns in range(n - 1, -1, -1):
        for rows in itertools.combinations(range(n - 1), n - 1 - columns):
            word = [1] * (n - 1)
            for j in rows:
                word[j] = 0
            yield tuple(itertools.accumulate(reversed(word), initial=0))[::-1]


def ribbons_of_degree(n: int, d: int) -> list[Ribbon]:
    """Ribbons of index d, classes descending lexicographic.

    The classes of ``enumerate_ribbons`` whose entries sum to d, in its
    order, which is already descending.  Their count is the coefficient
    of q^d in ``ribbon_generating_function``.
    """
    top = n * (n - 1) // 2
    if not 0 <= d <= top:
        raise ValueError(f"degree {d} outside 0..{top} for {n} boxes")
    return [class_to_ribbon(c) for c in _classes(n) if sum(c) == d]


def ribbon_generating_function(n: int) -> list[list[int]]:
    """Coefficients of prod_{k=1..N-1} (1 + q^k t), one list per power of t.

    ``rows[l][d]`` counts the ribbons on N boxes with index d on l+1 rows;
    row l ends at the largest such d.  Each factor adds row l, shifted by
    k, into row l+1, top row first, in one C-level ``map`` per row.
    """
    if n < 1:
        raise ValueError("need at least one box")
    rows = [[1]]
    for k in range(1, n):
        rows.append([])
        for l in range(k - 1, -1, -1):
            low, high = rows[l], rows[l + 1]
            # row l + 1 now ends at index len(low) - 1 + k, never earlier
            high += [0] * (len(low) + k - len(high))
            high[k:] = map(add, high[k:], low)
    return rows


def _render(r: Ribbon, label) -> str:
    # ASCII grid of r, English convention (row 0 printed first): the box
    # at reading position idx shows label(idx), every other cell a dot
    width = r.boxes[-1][1] + 1
    pos = {box: idx for idx, box in enumerate(r.boxes)}
    cell = len(str(r.size))
    lines = []
    for row in range(r.boxes[0][0] + 1):
        cells = []
        for col in range(width):
            idx = pos.get((row, col))
            cells.append((label(idx) if idx is not None else ".").rjust(cell))
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)


def render_ribbon(r: Ribbon) -> str:
    """ASCII diagram, English convention (row 0 printed first)."""
    return _render(r, lambda idx: "#")


def render_tableau(t: SkewTableau) -> str:
    """ASCII diagram with the filling values in place."""
    return _render(t.ribbon, lambda idx: str(t.filling[idx]))
