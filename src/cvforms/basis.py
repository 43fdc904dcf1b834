"""Harmonic bases indexed by standard ribbon tableaux.

Every standard tableau on N boxes yields one confluent Vandermonde form;
together they span the space annihilated by the power-sum operators
``sum_i d^k/dt_i^k`` for ``k = 1..N-1``.  This module generates those
bases, counts their graded dimensions, and verifies harmonicity and
linear independence with exact integer arithmetic.  Each suite of
``cvforms verify`` is one ``*_suite`` function here; none of them prints.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations, product, repeat, zip_longest
from math import factorial, lcm
from operator import gt, itemgetter, lt, sub

from .cvform import CvForm, Record, vector_text
from .laplace import (
    _expand_multiset,
    _FormRow,
    _order_key,
    characteristic_exponents,
    derivative_oracle,
    evaluate,
    naive_oracle,
)
from .poly import Polynomial, _term_key, sum_of
from .ribbon import (
    SkewTableau,
    backward_order,
    enumerate_ribbons,
    enumerate_tableaux,
    flip,
    ribbons_of_degree,
    tableau_to_cvform,
)


def q_factorial(n: int) -> list[int]:
    """Coefficient list of ``prod_{i=1..N-1} (1 + q + ... + q^i)``.

    Entry d counts the permutations of N letters with d inversions, which
    is also the number of degree-d forms in the standard basis.  Each
    factor adds i + 1 consecutive coefficients, one difference of prefix
    sums, so the whole product takes O(N^3) additions.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    coeffs = [1]
    for i in range(1, n):
        # entry d is acc[min(d + 1, len)] - acc[max(d - i, 0)], both
        # sides padded out to the new length and subtracted in C
        acc = list(accumulate(coeffs, initial=0))
        coeffs = list(map(sub, acc[1:] + acc[-1:] * i, acc[:1] * (i + 1) + acc[1:-1]))
    return coeffs


class BasisForm(Record):
    """A generated form together with its source tableau."""

    __slots__ = _fields = ("form", "tableau")

    def __init__(self, form: CvForm, tableau: SkewTableau):
        self.form = form
        self.tableau = tableau


class Basis(Record):
    """The forms of one basis or graded slice, in generation order."""

    __slots__ = _fields = ("n", "degree", "reading_order", "forms")

    def __init__(self, n: int, degree: int | None, reading_order: tuple[int, ...], forms: tuple[BasisForm, ...]):
        self.n = n
        self.degree = degree
        self.reading_order = reading_order
        self.forms = forms


def generate_basis(n: int, degree: int | None = None, reading_order=None) -> Basis:
    """All tableau forms for N variables, optionally one graded slice.

    The full basis files the N! permutations by fall word, one bucket per
    ribbon; a slice enumerates the tableaux of its own ribbons only.
    Either way every tableau is a validated ``SkewTableau``.
    ``reading_order`` permutes which value is read first; the default is
    the backward order N, N-1, ..., 1.
    """
    order = tuple(reading_order) if reading_order is not None else backward_order(n)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"reading order {order} is not a permutation of 1..{n}")
    if degree is None:
        ribbons = list(enumerate_ribbons(n))
        # a standard filling is a permutation falling exactly at the column
        # steps, so the N! permutations, in lexicographic order, filed by
        # fall word are every ribbon's tableaux in enumerate_tableaux order
        fillings = {rib.falls(): [] for rib in ribbons}
        for w in permutations(range(1, n + 1)):
            fillings[tuple(map(gt, w, w[1:]))].append(w)
        tableaux = ([SkewTableau(rib, w) for w in fillings[rib.falls()]] for rib in ribbons)
    else:
        # a slice enumerates only its own ribbons, never all N! permutations
        ribbons = ribbons_of_degree(n, degree)
        tableaux = map(enumerate_tableaux, ribbons)
    forms = []
    # the reading of tableau_to_cvform: value v of the filling sits in the
    # column of its box, and one getter takes the values in order
    get = _tuple_getter(order)
    for rib, rib_tableaux in zip(ribbons, tableaux):
        columns = _ribbon_columns(rib, n)
        for t in rib_tableaux:
            forms.append(BasisForm(CvForm.trusted(get(dict(zip(t.filling, columns)))), t))
    return Basis(n, degree, order, tuple(forms))


def _tuple_getter(keys):
    # the items at keys as a tuple, in one C call; an itemgetter of one key
    # returns the bare item, so that key is read by a lambda into a 1-tuple
    keys = tuple(keys)
    return itemgetter(*keys) if len(keys) > 1 else lambda mapping: tuple(mapping[k] for k in keys)


def _ribbon_columns(rib, n: int) -> tuple[int, ...]:
    # the box columns of a ribbon, checked to lie in 0..N-1; a filling only
    # permutes them, so every form read from the ribbon has its entries in range
    columns = tuple(c for _, c in rib.boxes)
    for c in columns:
        if not 0 <= c <= n - 1:
            raise ValueError(f"column {c} outside 0..{n - 1} for {n} boxes")
    return columns


def _lowered_forms(form: CvForm, k: int) -> list[CvForm]:
    # the forms with one entry lowered by k; negative entries drop out
    ent = form.entries
    return [CvForm.trusted(ent[:i] + (e - k,) + ent[i + 1:]) for i, e in enumerate(ent) if e >= k]


def _power_sum_memo():
    """One run's ``images(rep, k) -> (route_one, route_two)``, once per sorted entries and k.

    Each image is its numerators in ``rep``'s variables, or None when it
    is zero.  Route one applies ``Polynomial.symmetrized_derivative`` to
    the ``_FormRow`` view of ``[rep]``, copied into a dict once; route two
    adds the views of the lowered forms (``_lowered_forms``) by
    ``sum_of``.  Every view reads ``expand``, ``_expand_multiset``
    memoized for the run.
    """
    expand = cache(_expand_multiset)

    @cache
    def images(rep, k):
        form = CvForm.trusted(rep)
        row = _FormRow(form, expand)
        derived = Polynomial.from_numerators(form.N, dict(row.items()), row.denom).symmetrized_derivative(k)
        rows = [_FormRow(f, expand) for f in _lowered_forms(form, k)]
        lowered = sum_of(form.N, [(r, r.denom) for r in rows])
        return tuple(image.numerators()[0] if image else None for image in (derived, lowered))

    return images


def verify_harmonicity(form: CvForm, kmax: int | None = None, memo=None) -> dict:
    """Check annihilation by the power sums ``p_k(d) = sum_i d^k/dt_i^k`` along two routes.

    Route one applies ``p_k(d)`` to the value.  Route two uses the
    identity ``d_i [e] = [e - delta_i]``: ``p_k(d)`` maps ``[.. ni ..]``
    to the sum of the forms with one entry lowered by k (negative entries
    drop out).  The routes keep operators of their own, but run on one
    representative, the sorted entries ``rep``.  Permuting columns gives
    ``[pi.e](t) = sgn(pi) [e](t o pi)``; ``p_k(d)`` is symmetric in the
    variables, and lowering commutes with pi (``pi.e - k delta_i = pi.(e
    - k delta_{pi^-1(i)})``).  So each image of the form is a sign times
    that of ``rep`` with the variables renamed, zero exactly when it is.
    ``memo`` (``_power_sum_memo``, shared by a suite run; a call without
    it makes its own) computes both once per ``rep`` and k, and a nonzero
    image is renamed by the inverse of the stable order.  The
    ``_FormRow`` view of ``rep`` applies zero removal as it reads the
    value, so route one needs no zero-free representative.

    ``witness`` is None when every check passes, else the first failed
    check as ``(k, route, exponents)``, the exponents being the route's
    first monomial in the form's variables, in canonical order.
    """
    n = form.N
    if kmax is None:
        kmax = n - 1
    if not 0 <= kmax <= n - 1:
        raise ValueError(f"kmax {kmax} outside 0..{n - 1}")
    images = memo or _power_sum_memo()
    ent = form.entries
    rep = tuple(sorted(ent))
    rename = None
    if rep != ent:
        # position j of rep is the form's variable order[j], so one
        # itemgetter of the inverse order reads a key in the form's variables
        order = sorted(range(n), key=ent.__getitem__)
        rename = itemgetter(*sorted(range(n), key=order.__getitem__))
    checks = []
    witness = None
    for k in range(1, kmax + 1):
        first = {
            route: None if image is None else min(image if rename is None else map(rename, image), key=_term_key)
            for route, image in zip(("polynomial_route", "lowered_forms_route"), images(rep, k))
        }
        checks.append({"k": k, **{route: exps is None for route, exps in first.items()}})
        if witness is None:
            witness = next(((k, route, exps) for route, exps in first.items() if exps is not None), None)
    return {
        "form": str(form),
        "kmax": kmax,
        "checks": checks,
        "ok": witness is None,
        "witness": witness,
    }


class CoefficientMatrix(Record):
    """Rows of exact coefficients over a shared monomial column list."""

    __slots__ = _fields = ("columns", "rows")

    def __init__(self, columns: tuple[tuple[int, ...], ...], rows: tuple[tuple[Fraction, ...], ...]):
        self.columns = columns
        self.rows = rows


def coefficient_matrix(polys) -> CoefficientMatrix:
    """Assemble expanded polynomials over their canonical column union.

    The dense Fraction route to rank rows; ``verify_independence`` takes
    sparse integer ``_FormRow`` views instead.
    """
    polys = list(polys)
    columns = sorted({e for p in polys for e in p.terms}, key=_term_key)
    index = {e: i for i, e in enumerate(columns)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(columns)
        for e, c in p.terms.items():
            row[index[e]] = c
        rows.append(tuple(row))
    return CoefficientMatrix(tuple(columns), tuple(rows))


def _integer_rows(matrix: CoefficientMatrix) -> list[list[int]]:
    # scale each row by the least common multiple of its denominators
    rows = []
    for row in matrix.rows:
        scale = lcm(*(c.denominator for c in row))
        rows.append([int(c * scale) for c in row])
    return rows


def fraction_free_rank(rows: list[list[int]]) -> int:
    """Exact rank by single-step fraction-free elimination.

    Columns are scanned left to right; the pivot is the first row with a
    nonzero entry in the current column.  Updates divide by the previous
    pivot, which is exact because the entries stay minors of the input;
    a nonzero remainder would mean a broken invariant and raises.
    """
    m = [row[:] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    top = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[top], m[pivot_row] = m[pivot_row], m[top]
        pivot = m[top][col]
        for r in range(top + 1, len(m)):
            factor = m[r][col]
            row = m[r]
            lead = m[top]
            for c in range(col + 1, ncols):
                row[c], rem = divmod(pivot * row[c] - factor * lead[c], prev)
                if rem:
                    raise ArithmeticError(f"inexact division by {prev} at column {c}")
            row[col] = 0
        prev = pivot
        rank += 1
        top += 1
        if top == len(m):
            break
    return rank


def _certified_rank(rows) -> int:
    """Exact rank over Q of sparse integer rows (read-only mappings column -> entry).

    Each row pivots at its first nonzero entry, for a ``_FormRow`` its
    characteristic monomial.  If no row, in the given order, meets the
    pivot of an earlier row, the rank is the number of pivots: on those
    columns the rows form a triangular minor with a nonzero integer
    diagonal, and an empty row adds nothing.  Otherwise the rows are
    ranked by exact fraction-free elimination.
    """
    rows = list(rows)
    pivots: set = set()
    for row in rows:
        # the probe looks up each pivot column in the row, or each row
        # column among the pivots, whichever side is shorter
        shorter, longer = (pivots, row.keys()) if len(pivots) < len(row) else (row, pivots)
        if not longer.isdisjoint(shorter):
            columns = sorted({c for r in rows for c in r})
            return fraction_free_rank([[r.get(c, 0) for c in columns] for r in rows])
        col = next((c for c, v in row.items() if v), None)
        if col is not None:
            pivots.add(col)
    return len(pivots)


def _lead_key(row: _FormRow) -> tuple:
    # row-block order key of the row's first column, the characteristic
    # monomial of a nonzero form; the empty row of a vanishing form sorts last
    lead = next(iter(row), None)
    return ((), ()) if lead is None else _order_key(lead, len(lead))


def _slice_ranks(basis: Basis):
    """``(degree, rank, forms)`` of every graded slice, degrees ascending.

    Each distinct form of the slice enters ``_certified_rank`` once, as a
    ``_FormRow`` view; a repeated form adds no rank.  A form of another
    reading order is read backwards first, as ``compare_bases`` reads it:
    that renames the variables of every form alike, which keeps the rank.
    Rows are sorted by their characteristic monomials in row-block order,
    largest first.

    In that order the largest monomial of a nonvanishing form ``[e]`` is
    its characteristic one.  By the Leibniz formula its monomials are the
    ``e - s`` for the permutations s of 0..N-1 with ``s <= e``, and the
    characteristic one takes s as the stable rank of the entries.  Any
    other s has a pair i, j, with i before j in the stable sort of e,
    and ``s_i > s_j``.  Swapping ``s_i`` and ``s_j`` keeps ``s <= e``.
    If ``e_i < e_j``, both new exponents lie strictly between the old
    ones, so the count of the smaller old exponent falls and no count
    below it moves.  If ``e_i == e_j``, the two exponents trade places,
    so the counts agree and the vector grows at i, the earlier index.
    Either way the swap moves strictly up in the order, and the swaps
    end at the stable rank.  A basis has distinct characteristic
    monomials (for the backward basis, every N: ``chars_suite``), so no
    row meets an earlier row's characteristic monomial:
    the slice is triangular in that order, and ``_certified_rank``
    counts its pivots with no elimination.
    """
    by_degree: dict[int, list[CvForm]] = {}
    for bf in basis.forms:
        by_degree.setdefault(bf.form.degree(), []).append(bf.form)
    n, order = basis.n, basis.reading_order
    backward = None if order == backward_order(n) else [order.index(n - j) for j in range(n)]
    for d in sorted(by_degree):
        forms = distinct = by_degree[d]
        if backward:
            distinct = [CvForm.trusted(tuple(f.entries[i] for i in backward)) for f in forms]
        # one memo per slice: a multiset fixes the degree, so the slice's
        # views and the expansions they share are dropped once it is ranked
        expand = cache(_expand_multiset)
        rows = (_FormRow(f, expand) for f in dict.fromkeys(distinct))
        rank = _certified_rank(sorted(rows, key=_lead_key, reverse=True))
        yield d, rank, forms


def verify_independence(basis: Basis) -> tuple[int, bool]:
    """Exact rank of the fully expanded basis.

    Monomials of different total degree never meet, so the coefficient
    matrix is block diagonal over the graded slices and the slice ranks
    add up to the full rank (``_slice_ranks``).  Each form enters as its
    integer numerators, read in place from the slice's memo; the common
    denominator only scales the row.  A slice is ranked by its triangular
    shape, and by fraction-free elimination only if it is not triangular
    (``_certified_rank``).  Returns (rank, rank == number of forms); a
    repeated form caps the rank below that number.
    """
    rank = sum(r for _, r, _ in _slice_ranks(basis))
    return rank, rank == len(basis.forms)


def characteristic_collision(basis: Basis) -> tuple[CvForm, CvForm, tuple[int, ...]] | None:
    """The first two forms that share a diagonal monomial, and that monomial.

    Requires the backward reading order.  Each diagonal monomial is the
    type of the zero-removed form (``characteristic_exponents``), so no
    polynomial expansion is involved.  Returns None when the monomials
    are pairwise distinct.
    """
    if basis.reading_order != backward_order(basis.n):
        raise ValueError("characteristic uniqueness is defined for the backward reading")
    first: dict[tuple[int, ...], CvForm] = {}
    for bf in basis.forms:
        exps = characteristic_exponents(bf.form)
        if exps in first:
            return first[exps], bf.form, exps
        first[exps] = bf.form
    return None


def verify_characteristic_uniqueness(basis: Basis) -> bool:
    """Pairwise distinctness of the leading diagonal monomials."""
    return characteristic_collision(basis) is None


def _relabeling_mismatch(backward: Basis, basis: Basis):
    # (index, form, expected) where basis first differs from backward read in its order; None for no form
    n, order = backward.n, basis.reading_order
    for i, (bf, b) in enumerate(zip_longest(basis.forms, backward.forms)):
        expected = b and tuple(b.form.entries[n - v] for v in order)
        if bf is None or b is None or bf.tableau != b.tableau or bf.form.entries != expected:
            return i, bf and bf.form, expected and CvForm(expected)


def compare_bases(n: int, orders) -> dict:
    """Rank every reading order's basis from one proof on the backward basis.

    Read in order w, a tableau gives at entry i entry ``N - w_i`` of its
    backward form, so each order's basis is the backward one with the
    entries of every form permuted by one s.  ``[e o s]`` is ``sign(s) [e]``
    with the variables renamed by s, a ring automorphism, so the ranks
    agree.  Each form is checked in O(N); a failing order is ranked by its
    own elimination, and the first mismatch is the ``witness``.
    """
    backward = generate_basis(n)
    proven = verify_independence(backward)
    reports, witness = [], None
    for order in orders:
        basis = generate_basis(n, None, order)
        mismatch = _relabeling_mismatch(backward, basis)
        rank, independent = proven if mismatch is None else verify_independence(basis)
        if mismatch is not None and witness is None:
            witness = (basis.reading_order, *mismatch)
        reports.append({"order": list(order), "forms": len(basis.forms), "rank": rank, "independent": independent})
    return {"bases": reports, "witness": witness, "ok": witness is None and all(r["independent"] for r in reports)}


# ---------------------------------------------------------------- verify suites
# Each returns its ``checks``, its verdict ``ok``, the report lines after the
# checks (``listing``) and its witness lines (``stderr``), at most 10 forms each.


def _monomial_text(exps) -> str:
    return Polynomial.monomial(len(exps), exps).canonical_text()


def _oracle_check(form: CvForm) -> tuple[bool, str | None]:
    """Whether the form's value is nonzero, and a witness line if its three values differ."""
    values = (evaluate(form), naive_oracle(form), derivative_oracle(form))
    if values[0] == values[1] == values[2]:
        return bool(values[0]), None
    # the first monomial at which some value differs from the first one
    diffs = (values[0] - values[1], values[0] - values[2])
    exps = min((d.first_monomial() for d in diffs if d), key=_term_key, default=None)
    if exps is None:  # they differ only by stored zero coefficients, so they are equal
        return bool(values[0]), None
    names = ("evaluate", "naive_oracle", "derivative_oracle")
    coeffs = ", ".join(f"{name} {v.terms.get(exps, 0)}" for name, v in zip(names, values))
    return bool(values[0]), f"witness: {form} first differs at {_monomial_text(exps)}: {coeffs}"


def oracle_suite(n: int, samples: int, seed: int) -> dict:
    """``evaluate`` against both oracles on all forms if N <= 4, else on
    ``samples`` seeded ones; the last stderr line counts the nonzero forms.

    Streamed: each form is drawn, checked and counted in turn, and only the
    first 10 mismatches are kept, so memory does not grow with ``samples``."""
    if n <= 4:
        forms = map(CvForm.trusted, product(range(n), repeat=n))
        source = f"exhaustive {n}^{n}"
    else:
        rng = random.Random(seed)
        forms = (CvForm.trusted(tuple(map(rng.randrange, repeat(n, n)))) for _ in range(samples))
        source = f"{samples} seeded samples (seed {seed})"
    checked = nonzero = mismatches = 0
    bad: list[tuple[CvForm, str]] = []
    for form in forms:
        is_nonzero, witness = _oracle_check(form)
        checked += 1
        nonzero += is_nonzero
        if witness is not None:
            mismatches += 1
            if len(bad) < 10:
                bad.append((form, witness))
    checks = {"forms": checked, "mismatches": mismatches, "source": source}
    listing = [f"mismatch: {form}" for form, _ in bad]
    # vanishing forms pass every oracle trivially, so say how many did not
    stderr = [w for _, w in bad] + [f"nonzero forms: {nonzero} of {checked}"]
    return {"checks": checks, "ok": not mismatches, "listing": listing, "stderr": stderr}


def rank_suite(n: int, degree: int | None = None) -> dict:
    """Exact rank of the basis, or of its degree slice, as ``verify_independence``
    sums it; a failure names the first deficient slice on stderr."""
    basis = generate_basis(n, degree)
    rank, stderr = 0, []
    for d, r, forms in _slice_ranks(basis):
        rank += r
        if r < len(forms) and not stderr:
            repeated = next((f for f, k in Counter(forms).items() if k > 1), None)
            tail = "" if repeated is None else f", {repeated} is repeated"
            stderr.append(f"witness: degree {d} rank {r} of {len(forms)} forms{tail}")
    ok = rank == len(basis.forms)
    checks = {"forms": len(basis.forms), "rank": rank, "mode": "full expansion"}
    return {"checks": checks, "ok": ok, "listing": [], "stderr": stderr}


def harmonic_suite(n: int, kmax: int | None = None) -> dict:
    """``verify_harmonicity`` up to power sum kmax (default N-1) on every basis form,
    with one ``_power_sum_memo`` for the run."""
    basis = generate_basis(n)
    memo = _power_sum_memo()
    bad = [rep for bf in basis.forms if not (rep := verify_harmonicity(bf.form, kmax, memo))["ok"]]
    listing = []
    for rep in bad[:10]:
        k, route, exps = rep["witness"]
        listing.append(f"failure: {rep['form']} k={k} {route} first nonzero at {_monomial_text(exps)}")
    checks = {"forms": len(basis.forms), "kmax": n - 1 if kmax is None else kmax, "failures": len(bad)}
    return {"checks": checks, "ok": not bad, "listing": listing, "stderr": []}


def flip_suite(n: int) -> dict:
    """How many basis tableaux ``flip`` maps as it should: an involution that
    complements the degree to N(N-1)/2, stays in the basis and moves the shape."""
    basis = generate_basis(n)
    all_forms = {bf.form for bf in basis.forms}
    top = n * (n - 1) // 2
    involution = complement = member = moved = 0
    for bf in basis.forms:
        ft = flip(bf.tableau)
        flipped = tableau_to_cvform(ft)
        involution += flip(ft) == bf.tableau
        complement += flipped.degree() + bf.form.degree() == top
        member += flipped in all_forms
        moved += ft.ribbon != bf.tableau.ribbon
    total = len(basis.forms)
    # flip swaps every step, so only the stepless one-box ribbon is fixed
    ok = involution == complement == member == total and moved == (total if n > 1 else 0)
    checks = {"tableaux": total, "involution": involution, "complement": complement, "member": member, "moved": moved}
    return {"checks": checks, "ok": ok, "listing": [], "stderr": []}


def chars_suite(n: int) -> dict:
    """Distinct characteristic monomials, by one descent-monomial check per
    form; a collision is named on stderr.

    Fill a ribbon by w, a permutation of 1..N, falling at its column
    steps, and let ``s_k`` count the falls at positions k and after.
    Box k of the ribbon has row ``s_k`` and column ``k + s_k``
    (``class_to_ribbon``), and the backward reading puts value ``w_k`` in
    variable ``N - w_k``, so that variable gets entry ``k + s_k``.  These
    entries do not fall with k and repeat exactly where w falls,
    ``w_k > w_{k+1}``, that is where the variable ``N - w_k`` comes before
    ``N - w_{k+1}``: so the stable rank of variable ``N - w_k`` is k.  If w falls at all, the
    smallest entry ``s_0`` is at least 1 and some entry repeats, so zero
    removal keeps the form and ``characteristic_exponents`` gives variable
    ``N - w_k`` the exponent ``k + s_k - k = s_k``.  If w never falls, the
    entries are 0..N-1 and both sides are zero.  This is the descent
    monomial of w (Garsia-Stanton 1984), of degree ``sum_k s_k``, the
    major index of w.  It decodes back to w: ``s_k`` does not rise with
    k and stays level exactly where w rises, so sorting the values v by
    ``(-exponent of N - v, v)`` lists ``w_1, ..., w_N``.  So when every
    form's characteristic monomial equals the descent monomial of its
    permutation, the N! monomials are pairwise distinct, no set of them
    is kept, and by the lemma of ``_slice_ranks`` the basis has rank N!.

    The suite runs through x = N - w, the variable of each position, with
    the fall word ``x_k < x_{k+1}``.  It names the ribbon, whose columns
    were range-checked once and whose rows are the ``s_k``.  The form is
    read as ``generate_basis`` reads it, value v in the column of its box,
    in one C-level call with no ``SkewTableau`` built: the fall word is
    the ribbon's key, so the filling falls at its column steps by
    construction.  The kernel, called through this module's name, must
    give variable ``x_k`` the exponent ``s_k``.  The check is one-sided:
    at the first form that fails it, the suite builds the basis once and
    ``characteristic_collision`` decides, naming the first colliding pair
    in basis order.
    """
    # one box's one exponent is compared bare, as itemgetter(*x) returns it
    get = _tuple_getter(range(n))
    table = {}
    for rib in enumerate_ribbons(n):
        suffix = rib.class_entries()
        table[rib.falls()] = _ribbon_columns(rib, n), suffix if n > 1 else suffix[0]
    kernel, trusted = characteristic_exponents, CvForm.trusted
    passed = {"checks": {"forms": factorial(n), "distinct": True}, "ok": True, "listing": [], "stderr": []}
    for x in permutations(range(n - 1, -1, -1)):
        columns, suffix = table[tuple(map(lt, x, x[1:]))]
        if itemgetter(*x)(kernel(trusted(get(dict(zip(x, columns)))))) != suffix:
            break
    else:
        return passed
    basis = generate_basis(n)
    collision = characteristic_collision(basis)
    if collision is None:
        return passed
    a, b, exps = collision
    stderr = [f"witness: {a} and {b} share the characteristic monomial {_monomial_text(exps)}"]
    return {"checks": {"forms": len(basis.forms), "distinct": False}, "ok": False, "listing": [], "stderr": stderr}


def orders_suite(n: int) -> dict:
    """``compare_bases`` over all N! reading orders, one listing line each."""
    orders = list(permutations(range(1, n + 1)))
    report = compare_bases(n, orders)
    w = report["witness"]
    stderr = [] if w is None else [f"witness: order={vector_text(w[0])} form {w[1]} is {w[2]}, expected {w[3]}"]
    listing = [f"order={vector_text(r['order'])} forms={r['forms']} rank={r['rank']}" for r in report["bases"]]
    checks = {"orders": len(orders), "bases": report["bases"]}
    return {"checks": checks, "ok": report["ok"], "listing": listing, "stderr": stderr}
