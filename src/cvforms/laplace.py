"""Block Laplace expansion of confluent Vandermonde forms.

Sorting the entries of a zero-free form groups equal entries into column
blocks.  Expanding the determinant along those blocks writes the form as a
signed sum of products of minors, one minor per block; each minor is an
alternant with strictly decreasing row powers, so a term is recorded as a
"row-block" such as ``|2 1|2 0|2 0|``.

The paper's decoding table has one descending run ``a, a-1, ..., 0`` per
distinct entry ``a`` under the N column positions, and the sorted entries
hold it: a value and its multiplicity per run.  Picking, row by row, a set
of unused column positions (as many as the value's multiplicity) yields
exactly the non-vanishing row-blocks; the powers are the run cells at the
picked columns, and the sign is the sign of the picked-position
permutation.  Everything here is exact; no floating point is involved.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import KeysView, Mapping
from functools import lru_cache
from operator import itemgetter, le, neg

from .cvform import CvForm, Record, permutation_sign
from .poly import Polynomial


class RowBlock(Record):
    """One signed term of a block expansion.

    ``blocks`` holds the strictly decreasing powers of each minor,
    ``var_partition`` the variable labels each minor acts on (shared by
    all terms of one expansion), and ``total_sign`` the product of the
    intrinsic shuffle sign with the column-sort and zero-removal signs.
    """

    __slots__ = _fields = ("blocks", "var_partition", "total_sign")

    def __init__(
        self, blocks: tuple[tuple[int, ...], ...], var_partition: tuple[tuple[int, ...], ...], total_sign: int
    ):
        self.blocks = blocks
        self.var_partition = var_partition
        self.total_sign = total_sign

    def entries(self) -> tuple[int, ...]:
        return tuple(p for blk in self.blocks for p in blk)

    def bars(self) -> str:
        return "|" + "|".join(" ".join(str(p) for p in blk) for blk in self.blocks) + "|"

    def __str__(self) -> str:
        return ("-" if self.total_sign < 0 else "+") + self.bars()


def _order_key(entries: tuple[int, ...], size: int) -> tuple:
    # sort key of the row-block order: the counts of the values 0..size-1,
    # negated, then the flattened entries themselves
    counts = [0] * size
    for v in entries:
        counts[v] += 1
    return tuple(-c for c in counts), entries


def _constant_rowblock(form: CvForm, sign: int) -> RowBlock:
    # All-distinct entries: the expansion collapses to |0|0|...|0| on
    # singleton blocks taken in sorted entry order.
    order = sorted(range(form.N), key=lambda i: (form.entries[i], i))
    groups = tuple((i + 1,) for i in order)
    return RowBlock(tuple((0,) for _ in range(form.N)), groups, sign)


def _walk(entries: tuple[int, ...]) -> list[tuple]:
    """Admissible terms of one sorted zero-free form, read off its entries.

    A run of m entries ``a`` picks m columns of the table's run under ``a``.
    Each term is ``(powers, odd, denom)``: the strictly decreasing powers
    of every block's minor, the parity of the picked-column permutation
    and ``prod p!`` over all powers.  The parity is counted while the
    columns are picked: a column c picked from the ascending ``available``
    list at index i stands after ``n - c - (len(available) - 1 - i)``
    larger, earlier-picked columns.  Not cached: ``_block_expansion``
    keeps the integer value built from a walk, once per entry multiset.
    The recursion drops its reference to itself when the walk is done, so
    it leaves no reference cycle and its partial lists are freed at return.
    """
    n = len(entries)
    runs = [(a, len(list(run))) for a, run in itertools.groupby(entries)]
    fact = [math.factorial(p) for p in range(n)]
    last = len(runs) - 1
    terms: list[tuple] = []

    def rec(available: list[int], j: int, powers: tuple, parity: int, denom: int) -> None:
        a, m = runs[j]
        size = len(available)
        legal = bisect.bisect_right(available, a + 1)
        for combo in itertools.combinations(range(legal), m):
            flips = parity
            run_denom = denom
            run = []
            for i in combo:
                c = available[i]
                flips += n - c - size + 1 + i
                # ascending column positions give strictly decreasing powers
                run.append(a - c + 1)
                run_denom *= fact[a - c + 1]
            block = powers + (tuple(run),)
            if j == last:
                terms.append((block, flips & 1, run_denom))
            else:
                rest = [c for i, c in enumerate(available) if i not in combo]
                rec(rest, j + 1, block, flips, run_denom)

    rec(list(range(1, n + 1)), 0, (), 0, 1)
    del rec  # rec's closure holds rec itself: a cycle that only the collector would free
    return terms


def _order_sign(order) -> int:
    """Sign of a permutation of ``0..N-1``, in O(N): ``(-1)^(N - cycles)``."""
    n = len(order)
    seen = bytearray(n)
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = 1
                i = order[i]
    return -1 if (n - cycles) & 1 else 1


def _sorted_order(form: CvForm) -> tuple[int, tuple[int, ...] | None, list[int] | None]:
    """Sign, sorted entries and stable order of a form after zero removal.

    The sign is the product of the zero-removal and sort signs, the sorted
    entries key the form's cached expansion, and ``order[k]`` is the
    0-based variable at sorted position k.  A scalar form has neither:
    its value is the sign itself (0 for the zero form).
    """
    sign, reduced = form.remove_zeros()
    if reduced is None:
        return sign, None, None
    ent = reduced.entries
    order = sorted(range(len(ent)), key=ent.__getitem__)
    return sign * _order_sign(order), tuple(map(ent.__getitem__, order)), order


def _cut_at_runs(entries: tuple[int, ...], items) -> tuple[tuple, ...]:
    # ``items``, one per sorted entry, cut into one block per run of equal entries
    rest = iter(items)
    return tuple(tuple(next(rest) for _ in run) for _, run in itertools.groupby(entries))


def expand_rowblocks(form: CvForm) -> tuple[tuple[tuple[int, ...], ...], list[RowBlock]]:
    """Variable groups and signed row-blocks of a form, largest first in row-block order.

    The walk of the module docstring.  Each group carries a common
    Vandermonde factor on its variables and is the ``var_partition`` of
    every row-block.  Zero removal and entry sorting are applied
    internally and their signs folded into each term.  The zero form has
    no groups and no terms.
    """
    sign, key, order = _sorted_order(form)
    if key is None:
        if sign == 0:
            return (), []
        rb = _constant_rowblock(form, sign)
        return rb.var_partition, [rb]
    groups = _cut_at_runs(key, [i + 1 for i in order])
    rowblocks = [RowBlock(powers, groups, -sign if odd else sign) for powers, odd, _ in _walk(key)]
    # powers never exceed N - 1
    rowblocks.sort(key=lambda rb: _order_key(rb.entries(), form.N), reverse=True)
    return groups, rowblocks


def rowblock_value(rb: RowBlock) -> Polynomial:
    """Unsigned polynomial value of one row-block.

    The product of the block alternants divided by the factorials of the
    powers; this already carries the common Vandermonde factors of each
    variable group.  N is the size of ``var_partition``, which must cover
    1..N exactly once.  The blocks act on disjoint variables, so the
    product is one sum over tuples of per-block permutations sigma: each
    block puts ``powers[sigma[c]]`` on its c-th variable, and the term's
    sign is the product of the ``permutation_sign`` of each sigma.  The
    powers of a block must be strictly decreasing, as ``expand_rowblocks``
    makes them, so no two terms share a monomial; a block with a repeated
    power is an alternant with two equal rows, and it raises.
    ``total_sign`` is deliberately not applied.  A slow reference for ``evaluate``,
    independent of the kernel: the signed row-block values sum to it.
    """
    if len(rb.blocks) != len(rb.var_partition):
        raise ValueError("power blocks and variable partition disagree")
    covered = sorted(v for blk in rb.var_partition for v in blk)
    nvars = len(covered)
    if covered != list(range(1, nvars + 1)):
        raise ValueError("variable partition does not cover 1..N exactly once")
    # zip below would silently truncate a mismatched block
    if any(len(powers) != len(variables) for powers, variables in zip(rb.blocks, rb.var_partition)):
        raise ValueError("block size mismatch between powers and variables")
    if any(a <= b for powers in rb.blocks for a, b in zip(powers, powers[1:])):
        raise ValueError("block powers are not strictly decreasing")
    numerators = {}
    for sigmas in itertools.product(*(itertools.permutations(range(len(powers))) for powers in rb.blocks)):
        exps = [0] * nvars
        sign = 1
        for powers, variables, sigma in zip(rb.blocks, rb.var_partition, sigmas):
            for v, s in zip(variables, sigma):
                exps[v - 1] = powers[s]
            sign *= permutation_sign(sigma)
        numerators[tuple(exps)] = sign
    return Polynomial.from_numerators(nvars, numerators, math.prod(map(math.factorial, rb.entries())))


@lru_cache(maxsize=None)
def _signed_permutations(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # every permutation of 0..m-1 with its sign, one table per block size
    return tuple((sigma, _order_sign(sigma)) for sigma in itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def _arrangements(powers: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    # every (powers[sigma[0]], ..., powers[sigma[m-1]]) with sign(sigma)
    at = powers.__getitem__
    return tuple((tuple(map(at, sigma)), sign) for sigma, sign in _signed_permutations(len(powers)))


def _expand_multiset(entries: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], int]:
    """Integer value of one sorted zero-free form, with sign +1 and keys in block order.

    Returns ``(numerators, D)``.  D is the lcm of the terms' ``prod p!``, so a
    term puts ``(-1)^odd * D/prod p! * sign(sigma)`` at each exponent vector
    its alternants produce.  The blocks act on disjoint variables, so those
    vectors are concatenations of one power arrangement per block, from the
    ``_arrangements`` table of each block's powers.  The value depends only on
    the entry multiset, so ``entries`` is the key of every memo of it and all
    that ``_walk`` reads.  Not cached: ``evaluate`` reads it through
    ``_block_expansion``, and the rank proof through a memo of each degree
    slice's own.  Callers must not mutate the dict.
    """
    terms = _walk(entries)
    common = math.lcm(*(d for _, _, d in terms))
    acc: dict[tuple[int, ...], int] = {}
    produced = 0
    for powers, odd, d in terms:
        scale = -(common // d) if odd else common // d
        partial = [(key, scale * s) for key, s in _arrangements(powers[0])]
        for blk in powers[1:]:
            partial = [(head + tail, c * s) for head, c in partial for tail, s in _arrangements(blk)]
        acc.update(partial)
        produced += len(partial)
    # the terms regroup the Leibniz sum of the zero-free form, in which
    # each exponent vector fixes its permutation, so no key comes twice
    if len(acc) != produced:
        raise ArithmeticError(f"two row-block terms of {CvForm(entries)} share a monomial")
    return acc, common


@lru_cache(maxsize=256)
def _block_expansion(entries: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], int]:
    """``_expand_multiset``, the last 256 entry multisets kept.

    A run meets few multisets: the N=6 basis has 32, N=7 63 and N=8 127.
    ``evaluate`` reads them here (``verify 6 oracle --seed 1`` evaluates
    559 forms of 139 multisets that are not constants).  A zero-free
    sorted form takes N entries from 1..N-1, so N=6 has C(10, 6) = 210
    of them: all fit, and a run at N <= 6 builds each expansion once.
    The suites in ``basis`` do not.  In the rank proof a multiset fixes
    the degree and is never met again once its slice is ranked, so
    ``_slice_ranks`` gives each slice a memo of its own, which the
    slice's ``_FormRow`` views alone keep alive; the harmonic suite
    keeps one memo for its run (``_power_sum_memo``).  Callers must not
    mutate the dict.
    """
    return _expand_multiset(entries)


class _FormRow(Mapping):
    """A form's numerators in variable order, as a read-only view with no dict of its own.

    The view reads the block-order ``(numerators, D)`` that ``expand``
    (``sorted entries -> (numerators, D)``) returns for the form's sorted
    zero-free entries; by default the cached one of ``_block_expansion``.
    Views of one multiset given one memoized ``expand`` share one dict;
    ``denom`` is its D, and 1 for a scalar or zero form.
    ``row[col]`` moves a variable-order N-tuple key (any other key is
    absent) to block order with one ``itemgetter``; iteration moves each
    key back and applies the sign as it goes.  A nonzero form's first key
    is its characteristic monomial.  ``items()`` is a single pass.
    """

    __slots__ = ("_numerators", "denom", "_sign", "_nvars", "_to_block", "_to_var")

    def __init__(self, form: CvForm, expand=None):
        self._nvars = nvars = form.N
        sign, key, order = _sorted_order(form)
        self._to_block = self._to_var = None
        if key is None:
            # a scalar form, or the zero form with no key at all
            self._numerators, self.denom, self._sign = ({(0,) * nvars: sign} if sign else {}), 1, 1
            return
        self._numerators, self.denom = (expand or _block_expansion)(key)
        self._sign = sign
        # order[k] is the variable at block position k, and its inverse the
        # block position of each variable; N=1 always reads in place
        if order != list(range(nvars)):
            position = sorted(range(nvars), key=order.__getitem__)
            self._to_block, self._to_var = itemgetter(*order), itemgetter(*position)

    def __getitem__(self, col):
        # a key that is not an N-tuple is absent from either kind of row: the
        # itemgetter would cut a longer key to N slots and fail on a shorter one
        if not isinstance(col, tuple) or len(col) != self._nvars:
            raise KeyError(col)
        if self._to_block is not None:
            col = self._to_block(col)
        value = self._numerators[col]
        return value if self._sign > 0 else -value

    def __iter__(self):
        keys = self._numerators.keys()
        return iter(keys) if self._to_var is None else map(self._to_var, keys)

    def __len__(self) -> int:
        return len(self._numerators)

    def keys(self):
        return _RowKeys(self)

    def items(self):
        values = self._numerators.values()
        return zip(self, values if self._sign > 0 else map(neg, values))


class _RowKeys(KeysView):
    # isdisjoint probes the given columns in C, one cached-dict lookup each.
    # The probe fails on a column that is short, not indexable or unhashable,
    # and can hit on a longer one (the itemgetter cuts it to N slots) or on a
    # list, so a failure or a hit is checked again through the row's lookup.
    __slots__ = ()

    def isdisjoint(self, cols) -> bool:
        row = self._mapping
        cols = tuple(cols)
        try:
            if row._numerators.keys().isdisjoint(cols if row._to_block is None else map(row._to_block, cols)):
                return True
        except (IndexError, TypeError):
            pass
        return not any(map(row.__contains__, cols))


def evaluate(form: CvForm) -> Polynomial:
    """Exact polynomial value of a form via the block expansion.

    Copies the items of the form's ``_FormRow`` into a dict of its own
    and wraps them over the row's D; no other work is done per term.
    """
    row = _FormRow(form)
    return Polynomial.from_numerators(form.N, dict(row.items()), row.denom)


@lru_cache(maxsize=None)
def _mask_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The ascending rows of every bitmask below ``2^n``, indexed by mask."""
    table: list[tuple[int, ...]] = [()]
    for r in range(n):
        table += [rows + (r,) for rows in table]
    return tuple(table)


def naive_oracle(form: CvForm) -> Polynomial:
    """Cofactor-expansion determinant of the defining matrix.

    Independent of the block machinery; used to cross-check ``evaluate``.
    Column j is scaled by ``e_j!``, so cell (r, j) (0-based row r) is the
    integer ``e_j!/(e_j - r)!`` times ``t_j^(e_j - r)`` and the determinant
    is the integer one over ``prod e_j!``.  A minor on columns
    ``col..N-1`` is keyed by the exponents of those columns: a cell times
    a minor prefixes the cell's exponent, and distinct rows give distinct
    prefixes, so no two products share a key.

    Minors are memoized per form by the bitmask of their rows.  Cell
    (r, j) is nonzero exactly when ``r <= e_j``, so a minor has a
    Leibniz term with no zero cell only if its k-th smallest row is at
    most the k-th smallest entry of its columns, for every k (Hall's
    condition for these nested row sets).  A minor that fails this is
    identically zero and is not expanded; a vanishing form costs one
    check.  The memo lives only for the call: ``minor`` drops its
    reference to itself before the value is returned, so no cycle keeps the
    memo alive until the collector finds it.
    """
    n = form.N
    ent = form.entries
    rows_of = _mask_rows(n)
    room = [sorted(ent[col:]) for col in range(n)]
    memo: list[dict[tuple[int, ...], int] | None] = [None] * len(rows_of)
    memo[0] = {(): 1}

    def minor(mask: int, col: int) -> dict[tuple[int, ...], int]:
        got = memo[mask]
        if got is not None:
            return got
        rows = rows_of[mask]
        acc: dict[tuple[int, ...], int] = {}
        if all(map(le, rows, room[col])):
            e = ent[col]
            for idx, r in enumerate(rows):
                if r > e:
                    break
                scale = math.perm(e, r) if idx % 2 == 0 else -math.perm(e, r)
                head = (e - r,)
                for tail, c in minor(mask ^ (1 << r), col + 1).items():
                    acc[head + tail] = scale * c
        memo[mask] = acc
        return acc

    denom = math.prod(math.factorial(e) for e in ent)
    top = minor(len(rows_of) - 1, 0)
    del minor  # minor's closure holds minor itself: a cycle that would keep the memo alive
    return Polynomial.from_numerators(n, top, denom)


@lru_cache(maxsize=None)
def _integer_vandermonde(n: int) -> tuple[int, tuple]:
    """``prod_{i<j} (t_i - t_j)`` as an integer exponent trie, and ``prod_{i<j} (j - i)``.

    The product is multiplied out from its linear factors, on exponent
    vectors packed into one int in base N, t_1 the most significant digit.
    t_i occurs in N-1 of the factors, so no exponent of any partial product
    exceeds N-1 < N: digits never carry, adding ``N^(N-1-i)`` raises the
    exponent of t_i by exactly one, and descending ints are the exponent
    tuples in descending lexicographic order.  The factors are taken by
    their larger index, so after those of t_j the partial product is the
    Vandermonde of t_1..t_j, with j! terms (taken by the smaller index,
    the partial products hold about twice as many terms in all at N=9).

    A trie level is a tuple of ``(exponent, child)`` pairs, exponents
    descending, where the child is the next variable's level, or the
    coefficient after t_N.  Digits are read only while the levels are
    grouped: the keys under one node share the digits above t_i's, so
    t_i's level groups them by their quotient by t_i's place value, and
    that quotient mod N is the exponent of t_i.
    """
    place = [n ** (n - 1 - i) for i in range(n)]
    terms: dict[int, int] = {0: 1}
    denom = 1
    for j in range(n):
        for i in range(j):
            up_i, up_j = place[i], place[j]
            out = {key + up_i: c for key, c in terms.items()}
            for key, c in terms.items():
                key += up_j
                out[key] = out.get(key, 0) - c
            terms = {key: c for key, c in out.items() if c}
            denom *= j - i

    def level(keys: list[int], depth: int) -> tuple:
        if depth == n - 1:
            return tuple((key % n, terms[key]) for key in keys)
        return tuple(
            (prefix % n, level(list(group), depth + 1))
            for prefix, group in itertools.groupby(keys, place[depth].__rfloordiv__)
        )

    trie = level(sorted(terms, reverse=True), 0)
    del level  # level's closure holds level itself: a cycle that only the collector would free
    return denom, trie


@lru_cache(maxsize=None)
def normalized_vandermonde(n: int) -> Polynomial:
    """The form ``[N-1 ... N-1]``: prod_{i<j} (t_i - t_j) / (j - i)."""
    return derivative_oracle(CvForm((n - 1,) * n))


def derivative_oracle(form: CvForm) -> Polynomial:
    """Second oracle: differentiate the normalized Vandermonde.

    Entry ``ni`` records ``N-1-ni`` derivatives in ``t_i``.  All N orders
    are applied in one depth-first walk of the Vandermonde's exponent
    trie: t_i^e becomes ``e!/(e-k)!`` times t_i^(e-k), and a branch is
    dropped at the first variable whose exponent is below its order k.
    The walk recurses down to depth N-2 and closes the last two variables
    there in one nested loop, so a parent of leaves costs no call.  The
    walk drops its reference to itself when it is done, so it leaves no
    reference cycle for the collector to find.
    """
    n = form.N
    denom, trie = _integer_vandermonde(n)
    orders = [n - 1 - e for e in form.entries]
    last = orders[-1]
    out: dict[tuple[int, ...], int] = {}
    perm = math.perm

    def walk(level: tuple, depth: int, head: tuple[int, ...], coeff: int) -> None:
        k = orders[depth]
        if depth < n - 2:
            for e, child in level:
                if e < k:
                    break
                walk(child, depth + 1, head + (e - k,), coeff * perm(e, k))
            return
        for e, child in level:
            if e < k:
                break
            c = coeff * perm(e, k)
            key = head + (e - k,)
            for f, leaf in child:
                if f < last:
                    break
                out[key + (f - last,)] = c * perm(f, last) * leaf

    if n == 1:
        # no depth N-2: the trie's one level holds the leaves
        for e, leaf in trie:
            if e < last:
                break
            out[(e - last,)] = perm(e, last) * leaf
    else:
        walk(trie, 0, (), 1)
    del walk  # walk's closure holds walk itself: a cycle that only the collector would free
    return Polynomial.from_numerators(n, out, denom)


def diagonal_rowblock(form: CvForm) -> RowBlock:
    """Greedy staircase term of a form's expansion.

    Sorts the entries and picks the leftmost admissible columns in every
    block, which is the leading row-block whenever the form is regular.
    Raises for forms whose expansion is empty (vanishing determinants).
    """
    sign, key, order = _sorted_order(form)
    if key is None:
        if sign == 0:
            raise ValueError(f"{form} is the zero form, it has no row-blocks")
        return _constant_rowblock(form, sign)
    groups = _cut_at_runs(key, [i + 1 for i in order])
    blocks: list[tuple[int, ...]] = []
    col = 1
    for group in groups:
        a, m = key[col - 1], len(group)
        if a + 1 < col + m - 1:
            raise ValueError(f"{form} vanishes, the staircase pick is inadmissible")
        blocks.append(tuple(a - c + 1 for c in range(col, col + m)))
        col += m
    return RowBlock(tuple(blocks), groups, sign)


def characteristic_exponents(form: CvForm) -> tuple[int, ...]:
    """Exponents of the diagonal monomial of ``diagonal_rowblock(form)``, in O(N).

    After zero removal the staircase gives each variable its entry minus its
    stable rank, the type of the reduced form (``CvForm.type_of``).  No sort
    sign, variable block or row-block is built; raises where ``diagonal_rowblock`` does.
    Zero removal runs only on a form with a zero entry: a zero-free form
    is its own reduced form (``CvForm.remove_zeros``), as are all but the
    identity among the N! forms of ``verify N chars``.
    """
    reduced = form
    if 0 in form.entries:
        sign, reduced = form.remove_zeros()
        if reduced is None:
            if sign == 0:
                raise ValueError(f"{form} is the zero form, it has no row-blocks")
            return (0,) * form.N
    exps = reduced.type_of()
    if min(exps) < 0:
        raise ValueError(f"{form} vanishes, the staircase pick is inadmissible")
    return exps
