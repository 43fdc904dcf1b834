"""Basis generation, harmonicity, and exact independence."""

import collections
import copy
import itertools
import math
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvforms.basis as basis_module
from cvforms import laplace
from cvforms.basis import (
    Basis,
    BasisForm,
    _certified_rank,
    _integer_rows,
    _lead_key,
    _slice_ranks,
    chars_suite,
    characteristic_collision,
    coefficient_matrix,
    compare_bases,
    flip_suite,
    fraction_free_rank,
    generate_basis,
    harmonic_suite,
    oracle_suite,
    orders_suite,
    q_factorial,
    rank_suite,
    verify_characteristic_uniqueness,
    verify_harmonicity,
    verify_independence,
)
from cvforms.cvform import CvForm, permutation_sign
from cvforms.laplace import _FormRow, evaluate, naive_oracle
from cvforms.poly import Polynomial, sum_of
from cvforms.ribbon import (
    Ribbon,
    SkewTableau,
    backward_order,
    count_tableaux,
    enumerate_ribbons,
    enumerate_tableaux,
    flip,
    ribbons_of_degree,
    tableau_to_cvform,
)

from descent_monomials import decode, descent_monomial, major_index


class TestQFactorial:
    def test_four(self):
        assert q_factorial(4) == [1, 3, 5, 6, 5, 3, 1]

    def test_eight_coefficients(self):
        c = q_factorial(8)
        assert c[16] == 3450
        assert c[12] == 3450

    def test_one(self):
        assert q_factorial(1) == [1]

    def test_structure(self):
        for n in range(1, 9):
            c = q_factorial(n)
            assert len(c) == n * (n - 1) // 2 + 1
            assert sum(c) == math.factorial(n)
            assert c == c[::-1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            q_factorial(0)

    def test_prefix_sums_match_the_triple_loop(self):
        for n in range(1, 41):
            c = q_factorial(n)
            assert c == _q_factorial_by_slots(n)
            assert sum(c) == math.factorial(n)


def _q_factorial_by_slots(n):
    # the product as first written: each factor 1 + q + ... + q^i adds
    # every coefficient into i + 1 slots, O(N^4) in all
    coeffs = [1]
    for i in range(1, n):
        nxt = [0] * (len(coeffs) + i)
        for d, c in enumerate(coeffs):
            for j in range(i + 1):
                nxt[d + j] += c
        coeffs = nxt
    return coeffs


class TestGenerateBasis:
    def test_degree_three_at_four(self):
        basis = generate_basis(4, 3)
        got = [bf.form for bf in basis.forms]
        assert got == [
            CvForm((3, 2, 2, 2)),
            CvForm((2, 3, 2, 2)),
            CvForm((2, 2, 3, 2)),
            CvForm((3, 3, 2, 1)),
            CvForm((3, 2, 3, 1)),
            CvForm((3, 2, 1, 3)),
        ]

    def test_degree_four_at_four(self):
        basis = generate_basis(4, 4)
        forms = {bf.form for bf in basis.forms}
        assert forms == {
            CvForm((3, 3, 2, 2)),
            CvForm((3, 2, 3, 2)),
            CvForm((3, 2, 2, 3)),
            CvForm((2, 3, 3, 2)),
            CvForm((2, 3, 2, 3)),
        }
        assert CvForm((2, 2, 3, 3)) not in forms
        types = {bf.form.type_of() for bf in basis.forms}
        assert len(types) == 5

    def test_full_census(self):
        for n in range(1, 6):
            basis = generate_basis(n)
            forms = [bf.form for bf in basis.forms]
            assert len(forms) == math.factorial(n)
            assert len(set(forms)) == math.factorial(n)
            census = [0] * (n * (n - 1) // 2 + 1)
            for f in forms:
                census[f.degree()] += 1
            assert census == q_factorial(n)

    def test_slices_cover_the_whole(self):
        # the slices enumerate per ribbon, the whole basis files permutations
        for n in range(1, 8):
            whole = collections.Counter(bf.form for bf in generate_basis(n).forms)
            slices = [generate_basis(n, d) for d in range(n * (n - 1) // 2 + 1)]
            sliced = collections.Counter(bf.form for b in slices for bf in b.forms)
            assert sliced == whole

    def test_identity_reading_order(self):
        basis = generate_basis(3, None, (1, 2, 3))
        forms = [bf.form for bf in basis.forms]
        assert len(set(forms)) == 6
        assert basis.reading_order == (1, 2, 3)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            generate_basis(3, None, (1, 1, 2))

    def test_forms_keep_their_tableaux(self):
        for bf in generate_basis(4).forms:
            assert tableau_to_cvform(bf.tableau) == bf.form

    @pytest.mark.parametrize("order", list(itertools.permutations(range(1, 5))))
    def test_reading_equals_tableau_to_cvform_in_every_order(self, order):
        basis = generate_basis(4, None, order)
        assert len(basis.forms) == 24
        for bf in basis.forms:
            assert bf.form == tableau_to_cvform(bf.tableau, order)

    @pytest.mark.parametrize("d", range(11))
    def test_reading_equals_tableau_to_cvform_per_degree(self, d):
        basis = generate_basis(5, d)
        assert len(basis.forms) == q_factorial(5)[d]
        tableaux = [t for rib in ribbons_of_degree(5, d) for t in enumerate_tableaux(rib)]
        assert [bf.tableau for bf in basis.forms] == tableaux
        assert [bf.form for bf in basis.forms] == [tableau_to_cvform(t) for t in tableaux]

    def test_basis_forms_pickle(self):
        forms = generate_basis(3).forms
        assert pickle.loads(pickle.dumps(forms)) == forms


class TestDescentWordFiling:
    """The full basis files permutations by fall word; the reference is the
    per-ribbon enumeration that degree slices still use."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("identity", [False, True])
    def test_equals_per_ribbon_enumeration(self, n, identity):
        order = tuple(range(1, n + 1)) if identity else backward_order(n)
        tableaux = [t for rib in enumerate_ribbons(n) for t in enumerate_tableaux(rib)]
        basis = generate_basis(n, None, order)
        assert [bf.tableau for bf in basis.forms] == tableaux
        assert [bf.form for bf in basis.forms] == [tableau_to_cvform(t, order) for t in tableaux]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_per_ribbon_counts(self, n):
        counts = collections.Counter(bf.tableau.ribbon for bf in generate_basis(n).forms)
        assert [counts[rib] for rib in enumerate_ribbons(n)] == [count_tableaux(rib) for rib in enumerate_ribbons(n)]

    def test_a_slice_enumerates_no_permutations(self, monkeypatch):
        monkeypatch.setattr(basis_module, "permutations", None)
        assert len(generate_basis(12, 2).forms) == q_factorial(12)[2]


def _per_form_images(form: CvForm, kmax: int) -> list:
    """Route one as it ran per form: ``p_k(d)`` applied to the form's own value.

    The slow reference for route one of ``basis._power_sum_memo``, which
    applies ``p_k(d)`` once per sorted entries and k, and for the renaming
    of that image into the form's variables in ``verify_harmonicity``.
    """
    value = evaluate(form)
    return [value.symmetrized_derivative(k).first_monomial() for k in range(1, kmax + 1)]


def _per_form_sums(form: CvForm, kmax: int) -> list:
    """Route two as it ran per form: the form's own lowered forms, summed.

    The slow reference for route two of ``basis._power_sum_memo``, which
    sums the lowered forms of the sorted entries once per run, and for the
    renaming of that image into the form's variables in ``verify_harmonicity``.
    """
    firsts = []
    for k in range(1, kmax + 1):
        rows = [_FormRow(f) for f in basis_module._lowered_forms(form, k)]
        firsts.append(sum_of(form.N, [(row, row.denom) for row in rows]).first_monomial())
    return firsts


def _renamed_firsts(form: CvForm, images, route: str) -> list:
    """For k = 1..N-1, ``route``'s first monomial as ``verify_harmonicity``
    renames it from ``images`` into the form's variables, None where it is zero.

    The memo handed over passes on that route's image at one k only, so a
    witness names exactly that image.
    """
    index = ("polynomial_route", "lowered_forms_route").index(route)
    firsts = []
    for k in range(1, form.N):
        def only(rep, j):
            return tuple(image if (r, j) == (index, k) else None for r, image in enumerate(images(rep, j)))

        witness = verify_harmonicity(form, memo=only)["witness"]
        assert witness is None or witness[:2] == (k, route), (form, witness)
        firsts.append(witness[2] if witness else None)
    return firsts


def _alternating_plant(entries) -> dict:
    # t1^N*t2^(N-1)*...*tN, alternated over the variables of each block of
    # equal sorted entries: antisymmetric there, as a form's value is
    mults = [len(list(run)) for _, run in itertools.groupby(entries)]
    exps = range(len(entries), 0, -1)
    terms, start = {(): 1}, 0
    for m in mults:
        block = exps[start:start + m]
        terms = {
            head + tuple(block[i] for i in p): c * permutation_sign(p)
            for head, c in terms.items()
            for p in itertools.permutations(range(m))
        }
        start += m
    return terms


class TestHarmonicity:
    @staticmethod
    def _renamed_images_match(route, n, monkeypatch) -> int:
        """Plant a monomial in the expansions, check that ``route``'s memoized
        image of the sorted entries, renamed, equals the route's image computed
        on each form itself, and count the forms (route one) or (form, k)
        pairs (route two) where the renaming is exercised.

        Route one: the multiset of the form under test gets t1^N*t2^(N-1)*...*tN
        added to its expansion, a monomial of no value's degree that no p_k(d)
        with k < N kills; the form and its sorted entries read the same one.
        Route two: every multiset gets that monomial alternated, which keeps
        [pi.e](t) = sgn(pi) [e](t o pi), the identity both routes rest on.
        """
        plant = {}

        def planted(entries):
            numerators, denom = laplace._expand_multiset(entries)
            if route == "lowered_forms_route":
                return {**numerators, **_alternating_plant(entries)}, denom
            if entries == plant.get("multiset"):
                numerators = {**numerators, tuple(range(n, 0, -1)): 1}
            return numerators, denom

        monkeypatch.setattr(basis_module, "_expand_multiset", planted)
        monkeypatch.setattr(laplace, "_block_expansion", planted)
        reference = _per_form_images if route == "polynomial_route" else _per_form_sums
        images = basis_module._power_sum_memo()
        seen = 0
        for entries in itertools.product(range(n), repeat=n):
            form = CvForm(entries)
            if route == "polynomial_route":
                # the plant moves with the form, so each form gets a memo of its own
                plant["multiset"] = laplace._sorted_order(form)[1]
                images = basis_module._power_sum_memo()
            firsts = _renamed_firsts(form, images, route)
            assert firsts == reference(form, n - 1), form
            if route == "lowered_forms_route":
                if list(entries) != sorted(entries):
                    seen += sum(first is not None for first in firsts)
            elif firsts and None not in firsts:
                assert verify_harmonicity(form)["witness"] == (1, route, firsts[0]), form
                seen += 1
        return seen

    @pytest.mark.parametrize("n", range(1, 5))
    def test_route_one_renames_the_image_of_a_multiset(self, n, monkeypatch):
        fired = self._renamed_images_match("polynomial_route", n, monkeypatch)
        # every form that zero removal leaves with a representative; N = 1 has no k
        reduced = (CvForm(e).remove_zeros()[1] for e in itertools.product(range(n), repeat=n))
        assert fired == (sum(f is not None for f in reduced) if n > 1 else 0)

    # renamed: the (form, k) pairs with unsorted entries and a nonzero image;
    # at N <= 2 every lowered form is a scalar, which carries no plant
    @pytest.mark.parametrize("n, renamed", [(1, 0), (2, 0), (3, 4), (4, 163)])
    def test_route_two_renames_the_image_of_sorted_entries(self, n, renamed, monkeypatch):
        assert self._renamed_images_match("lowered_forms_route", n, monkeypatch) == renamed

    @pytest.mark.parametrize("n", range(1, 5))
    def test_a_partial_derivative_lowers_one_entry(self, n):
        # d_i [e] = [e - delta_i], the identity route two rests on; an entry
        # below 0 leaves the zero form, as a constant column differentiates to 0
        zeros = 0
        for entries in itertools.product(range(n), repeat=n):
            value = evaluate(CvForm(entries))
            for i, e in enumerate(entries):
                partial = {
                    exps[:i] + (exps[i] - 1,) + exps[i + 1:]: exps[i] * c
                    for exps, c in value._numerators.items()
                    if exps[i]
                }
                derivative = Polynomial.from_numerators(n, partial, value._denom)
                if e:
                    assert derivative == evaluate(CvForm(entries[:i] + (e - 1,) + entries[i + 1:])), (entries, i)
                else:
                    assert derivative == Polynomial(n) and not partial, (entries, i)
                    zeros += 1
        # each of the N slots is 0 in N^(N-1) forms
        assert zeros == n ** n

    def test_all_forms_at_four(self):
        for bf in generate_basis(4).forms:
            report = verify_harmonicity(bf.form)
            assert report["ok"], report

    def test_report_structure(self):
        report = verify_harmonicity(CvForm((2, 2, 3, 3)), kmax=2)
        assert report["form"] == "[2 2 3 3]"
        assert report["kmax"] == 2
        assert [c["k"] for c in report["checks"]] == [1, 2]
        for c in report["checks"]:
            assert c["polynomial_route"] is True
            assert c["lowered_forms_route"] is True
        assert report["witness"] is None

    def test_kmax_range_enforced(self):
        with pytest.raises(ValueError):
            verify_harmonicity(CvForm((2, 2, 3, 3)), kmax=4)

    def test_non_basis_forms_are_harmonic_too(self):
        # any derivative of the top form is annihilated, standard or not
        report = verify_harmonicity(CvForm((2, 2, 3, 3)))
        assert report["ok"]


class TestRankMachinery:
    def test_fraction_free_rank_known_matrices(self):
        assert fraction_free_rank([[1, 0], [0, 1]]) == 2
        assert fraction_free_rank([[1, 2], [2, 4]]) == 1
        assert fraction_free_rank([[0, 0], [0, 0]]) == 0
        assert fraction_free_rank([]) == 0
        assert fraction_free_rank([[2, 3, 5], [4, 6, 10], [1, 1, 1]]) == 2

    def test_rank_is_transpose_invariant_here(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        cols = [list(c) for c in zip(*rows)]
        assert fraction_free_rank(rows) == fraction_free_rank(cols) == 3

    def test_coefficient_matrix_columns(self):
        p = evaluate(CvForm((0, 1, 3, 3)))
        q = evaluate(CvForm((1, 0, 3, 3)))
        matrix = coefficient_matrix([p, q])
        assert matrix.columns == ((0, 0, 1, 0), (0, 0, 0, 1))
        assert matrix.rows[0] == (Fraction(1), Fraction(-1))
        assert matrix.rows[1] == (Fraction(-1), Fraction(1))


def _fraction_rank(rows) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    m = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# 2^61 - 1: entries that a rank computed mod this prime would read as 0 or 1
_P = (1 << 61) - 1


def _spy_fraction_free_rank(monkeypatch) -> list:
    calls = []

    def spy(dense):
        calls.append(dense)
        return fraction_free_rank(dense)

    monkeypatch.setattr(basis_module, "fraction_free_rank", spy)
    return calls


def _slice_rows(n: int, d: int) -> list:
    # the distinct forms of one slice as views, in the triangular order
    forms = dict.fromkeys(bf.form for bf in generate_basis(n, d).forms)
    return sorted(map(_FormRow, forms), key=_lead_key, reverse=True)


def _dense(rows) -> list[list[int]]:
    columns = sorted({c for r in rows for c in r})
    return [[r.get(c, 0) for c in columns] for r in rows]


class TestCertifiedRank:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), min_size=1, max_size=5
            )
        )
    )
    def test_fraction_free_rank_matches_fraction_elimination(self, rows):
        assert fraction_free_rank(rows) == _fraction_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=5))
    def test_certified_rank_matches_fraction_elimination(self, rows):
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        assert _certified_rank(sparse) == _fraction_rank(rows)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(-3, 3) | st.sampled_from([_P, -_P, 2 * _P, 1 + _P]),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_certified_rank_is_exact_on_multiples_of_p(self, rows):
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        before = [dict(r) for r in sparse]
        assert _certified_rank(sparse) == _fraction_rank(rows)
        assert sparse == before

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_certificate_agrees_with_bareiss_on_every_slice(self, n, monkeypatch):
        calls = _spy_fraction_free_rank(monkeypatch)
        for d in range(len(q_factorial(n))):
            rows = _slice_rows(n, d)
            assert _certified_rank(rows) == fraction_free_rank(_dense(rows)) == len(rows), d
        assert calls == []

    @pytest.mark.parametrize(
        "rows, exact",
        [([[1, 1], [1, 1 + _P]], 2), ([[2, 4], [1, 2]], 1), ([[0, 3, 1], [_P, 0, 0], [0, 5, 0]], 3)],
    )
    def test_rows_sharing_a_lead_fall_back_to_exact_rank(self, rows, exact, monkeypatch):
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        calls = _spy_fraction_free_rank(monkeypatch)
        assert _certified_rank(sparse) == exact
        assert calls == [rows]

    def test_multiple_of_p_as_pivot_skips_elimination(self, monkeypatch):
        monkeypatch.setattr(basis_module, "fraction_free_rank", None)
        assert _certified_rank([{0: _P}]) == 1
        assert _certified_rank([{0: _P, 1: 1}, {1: 2, 2: 5}]) == 2

    def test_triangular_rows_skip_elimination(self, monkeypatch):
        monkeypatch.setattr(basis_module, "fraction_free_rank", None)
        assert _certified_rank([{0: 1, 1: 1}, {1: 2}]) == 2
        assert _certified_rank([]) == 0
        # empty rows, a zero entry and a vanishing form add nothing
        empty = _FormRow(CvForm((0, 0, 3, 3)))
        assert len(empty) == 0
        assert _certified_rank([{}, {0: 1, 1: 1}, empty, {2: 0}, {}, {1: 2}, {}]) == 2


class TestTriangularOrder:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_triangular_order_reduces_no_row(self, n, monkeypatch):
        calls = _spy_fraction_free_rank(monkeypatch)
        assert verify_independence(generate_basis(n)) == (math.factorial(n), True)
        assert calls == []

    def test_every_reading_order_is_ranked_read_backwards(self, monkeypatch):
        # leads collide in other reading orders; renamed to the backward reading they do not
        calls = _spy_fraction_free_rank(monkeypatch)
        orders = [*itertools.permutations(range(1, 5)), tuple(range(1, 7)), (2, 4, 6, 1, 3, 5)]
        for order in orders:
            n = len(order)
            assert verify_independence(generate_basis(n, None, order)) == (math.factorial(n), True), order
        assert calls == []

    def test_slice_at_the_largest_size_is_triangular(self, monkeypatch):
        calls = _spy_fraction_free_rank(monkeypatch)
        assert verify_independence(generate_basis(16, 4)) == (2924, True)
        assert calls == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ascending_order_reduces_rows_and_keeps_full_rank(self, n, monkeypatch):
        calls = _spy_fraction_free_rank(monkeypatch)
        for d, count in enumerate(q_factorial(n)):
            rows = _slice_rows(n, d)[::-1]
            assert len(rows) == count
            assert _certified_rank(rows) == fraction_free_rank(_dense(rows)) == count, d
        # ascending from N = 4 on, some row meets the lead of a smaller row before it
        assert (len(calls) > 0) == (n > 3)

    def test_pivot_rows_are_never_written(self):
        # read-only rows: every write raises, on the certificate and on the fallback
        triangular = [{0: 2, 1: 1}, {1: 3, 2: 1}, {2: 5}]
        shared_lead = [{0: 2, 1: 1}, {0: 1, 1: 1, 2: 5}, {0: _P}]
        for rows, rank in [(triangular, 3), (shared_lead, 3)]:
            before = [dict(r) for r in rows]
            assert _certified_rank([MappingProxyType(r) for r in rows]) == rank
            assert rows == before

    def test_repeated_view_falls_back_to_exact_rank(self, monkeypatch):
        calls = _spy_fraction_free_rank(monkeypatch)
        f = CvForm((2, 3, 3, 3))
        assert _certified_rank([_FormRow(f), _FormRow(f)]) == 1
        assert len(calls) == 1 and calls[0][0] == calls[0][1]

    def test_cached_expansions_are_unchanged(self):
        forms = [bf.form for bf in generate_basis(5).forms]
        cached = {laplace._sorted_order(f)[1] for f in forms} - {None}
        before = {key: dict(laplace._block_expansion(key)[0]) for key in cached}
        assert verify_independence(generate_basis(5)) == (120, True)
        for d in range(len(q_factorial(5))):
            _certified_rank(_slice_rows(5, d)[::-1])
        for key, numerators in before.items():
            after = laplace._block_expansion(key)[0]
            assert after == numerators and list(after) == list(numerators), key

    def test_each_slice_expands_its_multisets_once_and_leaves_the_cache(self, monkeypatch):
        calls = []
        expand = laplace._expand_multiset

        def spy(entries):
            calls.append(entries)
            return expand(entries)

        monkeypatch.setattr(basis_module, "_expand_multiset", spy)
        before = laplace._block_expansion.cache_info()
        assert verify_independence(generate_basis(6)) == (720, True)
        assert laplace._block_expansion.cache_info() == before
        # the N=6 basis has 32 entry multisets, each met in one slice only;
        # the degree-0 one is all distinct, a scalar with no expansion
        assert len(calls) == len(set(calls)) == 31

    def test_a_form_finds_its_expansion_by_its_sorted_entries(self, monkeypatch):
        walks = []
        walk = laplace._walk

        def counting(entries):
            walks.append(entries)
            return walk(entries)

        monkeypatch.setattr(laplace, "_walk", counting)
        assert rank_suite(6)["ok"]
        # one walk per expanded multiset, none per form: the N=6 basis has
        # 720 forms, 719 of them not scalar, and 31 multisets to expand
        assert 0 < len(walks) <= 32
        # every ordering of one multiset reads the one cached expansion
        laplace._block_expansion.cache_clear()
        orderings = set(itertools.permutations((1, 1, 3, 3)))
        assert len(orderings) == 6
        for entries in orderings:
            assert evaluate(CvForm(entries)) == naive_oracle(CvForm(entries)), entries
        assert laplace._block_expansion.cache_info().misses == 1

    def test_a_ranked_slice_holds_no_expansion(self, monkeypatch):
        class Numerators(dict):
            __slots__ = ("__weakref__",)

        refs = {}
        expand = laplace._expand_multiset

        def spy(entries):
            numerators, common = expand(entries)
            kept = Numerators(numerators)
            refs.setdefault(degree, []).append(weakref.ref(kept))
            return kept, common

        monkeypatch.setattr(basis_module, "_expand_multiset", spy)
        degree = 0
        for d, rank, forms in _slice_ranks(generate_basis(6)):
            assert rank == len(forms)
            # only the scalar degree-0 slice expands nothing
            assert (d == 0) == (d not in refs)
            assert all(ref() is not None for ref in refs.get(d, ()))
            assert all(ref() is None for e in refs if e < d for ref in refs[e]), d
            degree = d + 1
        assert degree == len(q_factorial(6))

    def test_slice_ranks_follow_the_degrees(self):
        slices = list(_slice_ranks(generate_basis(4)))
        assert [(d, r, len(forms)) for d, r, forms in slices] == [
            (d, c, c) for d, c in enumerate(q_factorial(4))
        ]


class TestIndependence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_rank(self, n):
        basis = generate_basis(n)
        rank, independent = verify_independence(basis)
        assert rank == math.factorial(n)
        assert independent

    def test_graded_slices(self):
        for d, expect in enumerate(q_factorial(4)):
            basis = generate_basis(4, d)
            rank, independent = verify_independence(basis)
            assert rank == expect
            assert independent

    def test_duplicates_detected(self):
        basis = generate_basis(3)
        padded = Basis(3, None, basis.reading_order, basis.forms + (basis.forms[0],))
        rank, independent = verify_independence(padded)
        assert rank == 6
        assert not independent

    def test_dependent_set_caught(self):
        # the degree-five syzygy makes any 4 forms of degree 5 at N=4 dependent
        forms = [CvForm(e) for e in [(2, 3, 3, 3), (3, 2, 3, 3), (3, 3, 2, 3), (3, 3, 3, 2)]]
        matrix = coefficient_matrix([evaluate(f) for f in forms])
        assert fraction_free_rank(_integer_rows(matrix)) == 3
        assert _certified_rank(evaluate(f).numerators()[0] for f in forms) == 3
        for order in [backward_order(4), (1, 2, 3, 4), (2, 4, 1, 3)]:
            basis = Basis(4, 5, order, tuple(BasisForm(f, None) for f in forms))
            assert verify_independence(basis) == (3, False), order


def _handed_forms(n, monkeypatch) -> list[CvForm]:
    # the forms a passing chars_suite(n) hands the kernel, in order
    real, handed = laplace.characteristic_exponents, []
    monkeypatch.setattr(basis_module, "characteristic_exponents", lambda form: handed.append(form) or real(form))
    checks = {"forms": math.factorial(n), "distinct": True}
    assert chars_suite(n) == {"checks": checks, "ok": True, "listing": [], "stderr": []}
    return handed


class TestStreamedCharacteristics:
    """``chars_suite`` streams the N! forms; the basis is the independent slow path."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sees_the_monomials_of_the_basis(self, n, monkeypatch):
        # the basis holds each permutation once, as the filling of its tableau
        forms = sorted(generate_basis(n).forms, key=lambda bf: bf.tableau.filling)
        assert _handed_forms(n, monkeypatch) == [bf.form for bf in forms]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_form_per_permutation(self, n, monkeypatch):
        # each form's monomial decodes to its permutation, in lexicographic order
        decoded = [decode(laplace.characteristic_exponents(f)) for f in _handed_forms(n, monkeypatch)]
        assert decoded == list(itertools.permutations(range(1, n + 1)))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_zero_removal_meets_only_the_identity(self, n, monkeypatch):
        # a permutation that falls gives a zero-free form, its own reduced
        # form, so the kernel skips zero removal on all but one form
        real, reduced = CvForm.remove_zeros, []
        monkeypatch.setattr(CvForm, "remove_zeros", lambda form: reduced.append(form.entries) or real(form))
        checks = {"forms": math.factorial(n), "distinct": True}
        assert chars_suite(n) == {"checks": checks, "ok": True, "listing": [], "stderr": []}
        assert reduced == [tuple(range(n - 1, -1, -1))]

    def test_a_pass_builds_no_tableau_and_no_basis(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("built")

        # the fallback builds the basis, so a pass that builds none never enters it
        for name in ("SkewTableau", "BasisForm", "Basis", "generate_basis", "characteristic_collision"):
            monkeypatch.setattr(basis_module, name, built)
        assert len(_handed_forms(6, monkeypatch)) == 720

    @pytest.mark.parametrize("n", range(1, 9))
    def test_descent_monomial_is_the_characteristic_monomial(self, n):
        for bf in generate_basis(n).forms:
            assert laplace.characteristic_exponents(bf.form) == descent_monomial(bf.tableau.filling), bf

    @pytest.mark.parametrize("n", range(1, 9))
    def test_decoding_inverts_the_descent_monomial(self, n):
        count = 0
        for w in itertools.permutations(range(1, n + 1)):
            assert decode(descent_monomial(w)) == w
            count += 1
        assert count == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_degree_is_the_major_index(self, n):
        for bf in generate_basis(n).forms:
            assert bf.form.degree() == major_index(bf.tableau.filling), bf

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("reversed_on", ["every form", "the last form"])
    def test_distinct_monomials_off_the_certificate_pass_by_the_collision_search(self, n, reversed_on, monkeypatch):
        # reversing exponents keeps them distinct; reversed only on the
        # last permutation's form, [N-1 ... N-1], they still are, since no
        # permutation has the descent monomial (0 1 ... N-1)
        real, calls = laplace.characteristic_exponents, []
        last = (n - 1,) * n

        def planted(form):
            calls.append(form)
            exps = real(form)
            return exps[::-1] if reversed_on == "every form" or form.entries == last else exps

        monkeypatch.setattr(basis_module, "characteristic_exponents", planted)
        real_collision, searches = basis_module.characteristic_collision, []
        monkeypatch.setattr(basis_module, "characteristic_collision", lambda b: searches.append(b) or real_collision(b))
        checks = {"forms": math.factorial(n), "distinct": True}
        assert chars_suite(n) == {"checks": checks, "ok": True, "listing": [], "stderr": []}
        # the certificate stops at its first mismatch, then one search of the basis sees every form
        assert len(searches) == 1
        perms = list(itertools.permutations(range(1, n + 1)))
        first = len(perms) - 1
        if reversed_on == "every form":
            first = next(i for i, w in enumerate(perms) if descent_monomial(w)[::-1] != descent_monomial(w))
        assert len(calls) == first + 1 + len(perms)

    def test_a_pass_keeps_no_monomial(self):
        # a set of the 40 320 monomials' keys alone takes several MB; the
        # certificate keeps only the 128 ribbons' columns and rows
        chars_suite(1)  # imports and first-call caches stay out of the measurement
        tracemalloc.start()
        try:
            assert chars_suite(8)["ok"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_one_box_reads_a_one_tuple(self, monkeypatch):
        # an itemgetter of one index would return the bare entry
        forms = _handed_forms(1, monkeypatch)
        assert forms == [CvForm((0,))]
        assert type(forms[0].entries) is tuple

    def test_one_and_two_boxes_are_pinned(self):
        one = Ribbon(((0, 0),))
        assert generate_basis(1) == Basis(1, None, (1,), (BasisForm(CvForm((0,)), SkewTableau(one, (1,))),))
        column, row = Ribbon(((1, 1), (0, 1))), Ribbon(((0, 0), (0, 1)))
        forms = (BasisForm(CvForm((1, 1)), SkewTableau(column, (2, 1))), BasisForm(CvForm((1, 0)), SkewTableau(row, (1, 2))))
        assert generate_basis(2) == Basis(2, None, (2, 1), forms)

    @pytest.mark.parametrize("column", [-1, 3])
    def test_ribbon_column_out_of_range_is_caught(self, column, monkeypatch):
        # the range is checked once per ribbon, not per form: a ribbon whose
        # column leaves 0..N-1 must stop both readers before any form is built;
        # the stub is the one-row ribbon with its first box moved, unvalidated
        ribbons = list(enumerate_ribbons(3))
        stub = copy.copy(ribbons[-1])
        object.__setattr__(stub, "boxes", ((0, column), (0, 1), (0, 2)))
        ribbons[-1] = stub
        monkeypatch.setattr(basis_module, "enumerate_ribbons", lambda n: iter(ribbons))
        with pytest.raises(ValueError, match=rf"^column {column} outside 0\.\.2 for 3 boxes$"):
            generate_basis(3)
        with pytest.raises(ValueError, match=rf"^column {column} outside 0\.\.2 for 3 boxes$"):
            chars_suite(3)


def _assert_accepted(forms) -> int:
    # every form CvForm.trusted built is one that CvForm accepts unchanged;
    # returns the number of forms checked, so no test passes on none
    count = 0
    for f in forms:
        assert type(f.entries) is tuple and all(type(e) is int for e in f.entries), f
        assert CvForm(f.entries).entries == f.entries
        count += 1
    return count


class TestTrustedForms:
    """The package's own constructions skip the range check of ``CvForm``."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_streamed_forms(self, n, monkeypatch):
        assert _assert_accepted(_handed_forms(n, monkeypatch)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_basis_in_three_reading_orders(self, n):
        evens_first = (*range(2, n + 1, 2), *range(1, n + 1, 2))
        for order in [backward_order(n), tuple(range(1, n + 1)), evens_first]:
            assert _assert_accepted(bf.form for bf in generate_basis(n, None, order).forms) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_basis_slices(self, n):
        for d in range(n * (n - 1) // 2 + 1):
            assert _assert_accepted(bf.form for bf in generate_basis(n, d).forms) == q_factorial(n)[d]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_remove_zeros_rotation(self, n):
        # one variable has no rotation: [0] is a scalar
        reduced = (CvForm(e).remove_zeros()[1] for e in itertools.product(range(n), repeat=n))
        assert _assert_accepted(f for f in reduced if f is not None) > 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lowered_forms(self, n):
        for bf in generate_basis(n).forms:
            for k in range(n + 1):
                lowered = basis_module._lowered_forms(bf.form, k)
                assert _assert_accepted(lowered) == sum(e >= k for e in bf.form.entries)

    def test_backward_reading_of_every_order(self, monkeypatch):
        real, seen = basis_module._FormRow, []

        def spy(form, expand):
            seen.append(form)
            return real(form, expand)

        monkeypatch.setattr(basis_module, "_FormRow", spy)
        backward = collections.Counter(bf.form for bf in generate_basis(4).forms)
        for order in itertools.permutations(range(1, 5)):
            seen.clear()
            assert verify_independence(generate_basis(4, None, order)) == (24, True)
            assert _assert_accepted(seen) == 24
            # read backwards, every order's forms are the backward basis
            assert collections.Counter(seen) == backward, order


class TestCharacteristicUniqueness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_backward_basis(self, n):
        assert verify_characteristic_uniqueness(generate_basis(n))

    def test_requires_backward_order(self):
        basis = generate_basis(3, None, (1, 2, 3))
        with pytest.raises(ValueError):
            verify_characteristic_uniqueness(basis)

    def test_characteristics_are_the_types(self):
        basis = generate_basis(4)
        types = {bf.form.type_of() for bf in basis.forms}
        assert len(types) == 24

    def test_no_collision_in_the_backward_basis(self):
        assert characteristic_collision(generate_basis(5)) is None

    def test_collision_names_the_first_pair(self):
        forms = [CvForm(e) for e in ((2, 2, 1), (2, 1, 2), (2, 2, 1), (2, 1, 2))]
        basis = Basis(3, None, backward_order(3), tuple(BasisForm(f, None) for f in forms))
        assert characteristic_collision(basis) == (forms[0], forms[2], (1, 0, 1))
        assert verify_characteristic_uniqueness(basis) is False

    def test_collision_requires_backward_order(self):
        with pytest.raises(ValueError):
            characteristic_collision(generate_basis(3, None, (1, 2, 3)))


class TestCompareBases:
    def test_three_variables_all_orders(self):
        orders = list(itertools.permutations((1, 2, 3)))
        report = compare_bases(3, orders)
        assert report["ok"]
        assert report["witness"] is None
        assert all(r["rank"] == 6 for r in report["bases"])
        assert set(report) == {"bases", "witness", "ok"}
        assert "overlap" not in report

    def test_orders_disagree_somewhere(self):
        backward, identity = (generate_basis(3, None, o) for o in [(3, 2, 1), (1, 2, 3)])
        assert {bf.form for bf in backward.forms} != {bf.form for bf in identity.forms}

    @pytest.mark.parametrize("n", [4, 5])
    def test_relabeled_rank_equals_own_elimination(self, n):
        orders = list(itertools.permutations(range(1, n + 1)))
        report = compare_bases(n, orders)
        assert report["witness"] is None
        for order, r in zip(orders, report["bases"]):
            own = verify_independence(generate_basis(n, None, order))
            assert (r["rank"], r["independent"]) == own

    def test_one_elimination_when_every_order_relabels(self, monkeypatch):
        calls = []
        real = basis_module.verify_independence
        monkeypatch.setattr(basis_module, "verify_independence", lambda b: calls.append(b) or real(b))
        report = compare_bases(4, list(itertools.permutations(range(1, 5))))
        assert report["ok"]
        assert [b.reading_order for b in calls] == [backward_order(4)]

    @pytest.mark.parametrize(
        "edit, index, form, expected, forms",
        [
            # the last form is lost: the other five are still independent
            (lambda fs: fs[:-1], 5, None, CvForm((0, 1, 2)), 5),
            # the first form is moved to the second form's tableau, keeping its entries
            (lambda fs: (BasisForm(fs[0].form, fs[1].tableau), *fs[1:]), 0, CvForm((2, 2, 2)), CvForm((2, 2, 2)), 6),
        ],
    )
    def test_broken_order_is_a_witness(self, monkeypatch, edit, index, form, expected, forms):
        # both non-backward orders are broken, and the witness names the first;
        # only the witness fails the report, the ranks stay proven by elimination
        real = basis_module.generate_basis

        def broken(n, degree=None, reading_order=None):
            b = real(n, degree, reading_order)
            return b if b.reading_order == (3, 2, 1) else Basis(n, degree, b.reading_order, edit(b.forms))

        monkeypatch.setattr(basis_module, "generate_basis", broken)
        report = compare_bases(3, [(3, 2, 1), (1, 2, 3), (1, 3, 2)])
        assert not report["ok"]
        assert report["witness"] == ((1, 2, 3), index, form, expected)
        ranks = [(r["forms"], r["rank"], r["independent"]) for r in report["bases"]]
        assert ranks == [(6, 6, True), (forms, forms, True), (forms, forms, True)]


class TestFlipWithinBasis:
    def test_flip_permutes_the_basis(self):
        basis = generate_basis(4)
        forms = {bf.form for bf in basis.forms}
        flipped = {tableau_to_cvform(flip(bf.tableau)) for bf in basis.forms}
        assert flipped == forms

    def test_flip_pairs_degrees(self):
        basis = generate_basis(4)
        for bf in basis.forms:
            d = tableau_to_cvform(flip(bf.tableau)).degree()
            assert d == 6 - bf.form.degree()


class TestSuites:
    """Each verify suite called as a library function, with nothing printed."""

    def test_oracle(self, capsys):
        report = oracle_suite(3, samples=1, seed=0)
        checks = {"forms": 27, "mismatches": 0, "source": "exhaustive 3^3"}
        assert report == {"checks": checks, "ok": True, "listing": [], "stderr": ["nonzero forms: 16 of 27"]}
        sampled = oracle_suite(5, samples=6, seed=1)
        assert sampled["checks"]["source"] == "6 seeded samples (seed 1)" and sampled["checks"]["forms"] == 6
        assert capsys.readouterr() == ("", "")

    def test_oracle_suite_checks_the_same_forms(self, monkeypatch):
        # the draw as written before the suite was streamed
        rng = random.Random(1)
        frozen = [CvForm(tuple(rng.randrange(6) for _ in range(6))) for _ in range(1000)]
        seen = []
        check = basis_module._oracle_check
        monkeypatch.setattr(basis_module, "_oracle_check", lambda form: seen.append(form) or check(form))
        assert oracle_suite(6, 1000, 1)["stderr"] == ["nonzero forms: 366 of 1000"]
        assert seen == frozen
        assert all(type(f.entries) is tuple for f in seen)

    def test_oracle_suite_counts_every_mismatch_and_keeps_ten(self, monkeypatch):
        monkeypatch.setattr(basis_module, "_oracle_check", lambda form: (True, f"witness: {form}"))
        report = oracle_suite(5, 25, 2)
        assert report["checks"]["mismatches"] == 25 and not report["ok"]
        assert len(report["listing"]) == 10 and len(report["stderr"]) == 11
        assert report["stderr"][-1] == "nonzero forms: 25 of 25"

    def test_oracle_suite_memory_does_not_grow_with_samples(self):
        # kept forms and results took about 210 bytes a sample, 4 MB over these runs;
        # the untraced first run fills the caches that both measured runs share
        oracle_suite(5, 2000, 7)
        peaks = []
        for samples in (2000, 20000):
            tracemalloc.start()
            try:
                assert oracle_suite(5, samples, 7)["ok"]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 256 * 1024

    def test_oracle_suite_expands_each_multiset_once(self):
        # the oracle6 input meets 139 multisets 559 times; none is evicted and rebuilt
        laplace._block_expansion.cache_clear()
        assert oracle_suite(6, 1000, 1)["ok"]
        info = laplace._block_expansion.cache_info()
        assert info.misses == info.currsize == 139

    def test_harmonic_suite_runs_each_route_once_per_sorted_entries(self, monkeypatch):
        # the 120 forms at N=5 have 16 sorted entry lists and k = 1..4, so 64
        # calls per route; a memo per form would make 480
        calls = collections.Counter()
        derivative, summed = Polynomial.symmetrized_derivative, basis_module.sum_of

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        monkeypatch.setattr(Polynomial, "symmetrized_derivative", counted("derivative", derivative))
        monkeypatch.setattr(basis_module, "sum_of", counted("sum_of", summed))
        assert harmonic_suite(5)["ok"]
        assert len({tuple(sorted(bf.form.entries)) for bf in generate_basis(5).forms}) == 16
        assert calls == {"derivative": 64, "sum_of": 64}

    def test_rank(self):
        checks = {"forms": 6, "rank": 6, "mode": "full expansion"}
        assert rank_suite(3) == {"checks": checks, "ok": True, "listing": [], "stderr": []}
        assert rank_suite(3, 1)["checks"] == {"forms": 2, "rank": 2, "mode": "full expansion"}

    def test_harmonic(self):
        checks = {"forms": 6, "kmax": 2, "failures": 0}
        assert harmonic_suite(3) == {"checks": checks, "ok": True, "listing": [], "stderr": []}
        assert harmonic_suite(3, 1)["checks"]["kmax"] == 1

    def test_harmonic_failure_is_listed(self, monkeypatch):
        real = basis_module._lowered_forms
        monkeypatch.setattr(basis_module, "_lowered_forms", lambda form, k: real(form, k)[:-1])
        report = harmonic_suite(3, 1)
        # the plant drops the last lowered form of each sorted representative
        assert not report["ok"] and report["checks"]["failures"] == 3
        assert report["listing"][0] == "failure: [2 2 2] k=1 lowered_forms_route first nonzero at t1^2"

    def test_flip(self):
        checks = {"tableaux": 6, "involution": 6, "complement": 6, "member": 6, "moved": 6}
        assert flip_suite(3) == {"checks": checks, "ok": True, "listing": [], "stderr": []}

    def test_flip_counts_a_broken_flip(self, monkeypatch):
        # the identity is an involution that keeps every form in the basis, but moves no shape
        monkeypatch.setattr(basis_module, "flip", lambda tableau: tableau)
        report = flip_suite(3)
        assert report["checks"] == {"tableaux": 6, "involution": 6, "complement": 0, "member": 6, "moved": 0}
        assert report["ok"] is False

    def test_chars(self):
        assert chars_suite(3) == {"checks": {"forms": 6, "distinct": True}, "ok": True, "listing": [], "stderr": []}

    def test_orders(self):
        report = orders_suite(3)
        assert report["ok"] and report["stderr"] == [] and report["checks"]["orders"] == 6
        assert report["checks"]["bases"] == compare_bases(3, itertools.permutations(range(1, 4)))["bases"]
        assert report["listing"][:2] == ["order=(1 2 3) forms=6 rank=6", "order=(1 3 2) forms=6 rank=6"]
        assert len(report["listing"]) == 6
