"""Form parsing, zero removal, type and class."""

import ast
import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvforms.cvform import CvForm, permutation_sign, valid_class
from rowblock_slow_path import sort_entries

small_forms = st.integers(2, 6).flatmap(
    lambda n: st.tuples(*([st.integers(0, n - 1)] * n))
).map(CvForm)


class TestPermutationSign:
    def test_identity(self):
        assert permutation_sign((1, 2, 3)) == 1

    def test_single_swap(self):
        assert permutation_sign((2, 1, 3)) == -1

    def test_five_inversions(self):
        assert permutation_sign((4, 2, 3, 1)) == -1

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(1, 7))))
    def test_matches_inversion_parity(self, perm):
        inv = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        assert permutation_sign(tuple(perm)) == (-1) ** inv


class TestParse:
    @pytest.mark.parametrize("text", ["[2 2 3 3]", "2,2,3,3", "2 2 3 3", "[2, 2, 3, 3]"])
    def test_accepted_spellings(self, text):
        assert CvForm.parse(text) == CvForm((2, 2, 3, 3))

    def test_str_round_trip(self):
        f = CvForm((0, 1, 3, 3))
        assert str(f) == "[0 1 3 3]"
        assert CvForm.parse(str(f)) == f

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((), "a form needs at least one entry"),
            ((1, 2, 3, 4), "entry 4 outside 0..3 for 4 variables"),
            ((0, 5, -1, 1), "entry 5 outside 0..3 for 4 variables"),
            ((0, -1, 2), "entry -1 outside 0..2 for 3 variables"),
            ((1,), "entry 1 outside 0..0 for 1 variables"),
        ],
    )
    def test_rejection_messages(self, entries, message):
        with pytest.raises(ValueError) as info:
            CvForm(entries)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", ["x", None, "1.5"])
    def test_non_integer_entries_rejected_like_int(self, bad):
        with pytest.raises((ValueError, TypeError)) as expected:
            int(bad)
        with pytest.raises(expected.type) as info:
            CvForm((0, bad))
        assert str(info.value) == str(expected.value)

    def test_entries_are_ints(self):
        f = CvForm(["1", 0, True])
        assert f.entries == (1, 0, 1) and all(type(e) is int for e in f.entries)
        assert CvForm(iter([2, 2, 1])).entries == (2, 2, 1)

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            CvForm((0, 4, 1, 1))
        with pytest.raises(ValueError):
            CvForm((-1, 0, 1))
        with pytest.raises(ValueError):
            CvForm.parse("[]")


class TestDegree:
    def test_lowest_form(self):
        assert CvForm((0, 1, 2, 3)).degree() == 0

    def test_top_form(self):
        assert CvForm((3, 3, 3, 3)).degree() == 6

    def test_example(self):
        assert CvForm((2, 2, 3, 3)).degree() == 4
        assert CvForm((5, 7, 7, 5, 4, 5, 6, 5)).degree() == 16


def _frozen_remove_zeros(form: CvForm):
    # the zero-removal rule applied one step at a time, leftmost zero first,
    # as written before the closed form
    n = form.N
    entries = list(form.entries)
    sign = 1
    for _ in range(n + 1):
        if len(set(entries)) == n:
            order = sorted(range(n), key=lambda i: entries[i])
            return sign * permutation_sign(tuple(i + 1 for i in order)), None
        zeros = entries.count(0)
        if zeros == 0:
            return sign, CvForm(entries)
        if zeros >= 2:
            return 0, None
        k = entries.index(0)
        entries = [e - 1 for e in entries]
        entries[k] = n - 1
        sign *= (-1) ** (n - 1)
    raise AssertionError("zero removal did not terminate within N steps")


class TestRemoveZeros:
    def test_single_zero_step(self):
        sign, form = CvForm((0, 1, 3, 3)).remove_zeros()
        assert (sign, form) == (1, CvForm((2, 3, 1, 1)))

    def test_double_application(self):
        sign, form = CvForm((0, 2, 2, 3)).remove_zeros()
        assert (sign, form) == (-1, CvForm((3, 1, 1, 2)))

    def test_two_zeros_vanish(self):
        assert CvForm((0, 0, 2, 3)).remove_zeros() == (0, None)

    def test_all_distinct_scalar(self):
        assert CvForm((0, 1, 2, 3)).remove_zeros() == (1, None)
        assert CvForm((1, 0, 2, 3)).remove_zeros() == (-1, None)
        assert CvForm((0, 2, 1, 3)).remove_zeros() == (-1, None)
        # the full reversal on four letters is even
        assert CvForm((3, 2, 1, 0)).remove_zeros() == (1, None)

    def test_zero_free_forms_returned_unchanged(self):
        f = CvForm((2, 2, 3, 3))
        assert f.remove_zeros() == (1, f)
        assert f.remove_zeros()[1] is f

    def test_closed_form_equals_the_frozen_loop(self):
        # every form to N=6
        for n in range(1, 7):
            for entries in itertools.product(range(n), repeat=n):
                f = CvForm(entries)
                assert f.remove_zeros() == _frozen_remove_zeros(f), f

    def test_terminates_everywhere(self):
        # exhaustive over N <= 5: always a terminal, never an entry out of range
        for n in range(2, 6):
            for entries in itertools.product(range(n), repeat=n):
                sign, form = CvForm(entries).remove_zeros()
                if form is None:
                    assert sign in (-1, 0, 1)
                else:
                    assert sign in (-1, 1)
                    assert 0 not in form.entries

    @settings(max_examples=100, deadline=None)
    @given(small_forms)
    def test_terminal_forms_preserve_degree(self, f):
        sign, form = f.remove_zeros()
        if form is not None:
            assert form.degree() == f.degree()


def _pair_count_permutation(entries) -> tuple[int, ...]:
    """The standard permutation by the O(N^2) pair count it once had."""
    return tuple(
        1 + sum(1 for j, ej in enumerate(entries) if ej < ei or (ej == ei and j < i))
        for i, ei in enumerate(entries)
    )


class TestTypeAndClass:
    def test_one_stable_sort_equals_the_pair_count(self):
        for n in range(1, 7):
            for entries in itertools.product(range(n), repeat=n):
                f = CvForm(entries)
                s = _pair_count_permutation(entries)
                assert f.standard_permutation() == s, f
                assert f.type_of() == tuple(e - si + 1 for e, si in zip(entries, s)), f

    def test_only_the_type_ranks_the_entries(self):
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(inspect.getsource(CvForm.standard_permutation).lstrip()))
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "type_of" in names
        assert not names & {"sorted", "sort", "enumerate"}
        assert not hasattr(CvForm, "sort_entries")

    def test_standard_permutation_example(self):
        f = CvForm((4, 5, 5, 3, 3, 2))
        assert f.standard_permutation() == (4, 5, 6, 2, 3, 1)

    def test_type_example(self):
        assert CvForm((4, 5, 5, 3, 3, 2)).type_of() == (1, 1, 0, 2, 1, 2)

    def test_type_golden_pair(self):
        assert CvForm((1, 3, 3, 3)).type_of() == (1, 2, 1, 0)
        assert CvForm((2, 2, 3, 3)).type_of() == (2, 1, 1, 0)

    def test_degree_six_types(self):
        forms = ["2 2 3 3", "2 3 2 3", "2 3 3 2", "3 2 2 3", "3 2 3 2", "3 3 2 2"]
        types = [CvForm.parse(f).type_of() for f in forms]
        assert types == [
            (2, 1, 1, 0),
            (2, 1, 1, 0),
            (2, 1, 0, 1),
            (1, 2, 1, 0),
            (1, 2, 0, 1),
            (1, 0, 2, 1),
        ]
        assert len(set(types)) == 5

    def test_big_type(self):
        f = CvForm((5, 7, 7, 5, 4, 5, 6, 5))
        assert f.type_of() == (4, 1, 0, 3, 4, 2, 1, 1)
        assert f.class_of() == (4, 4, 3, 2, 1, 1, 1, 0)

    def test_regularity(self):
        assert CvForm((2, 2, 3, 3)).is_regular()
        assert not CvForm((1, 3, 3, 3)).is_regular()
        assert not CvForm((0, 1, 3, 3)).is_regular()

    def test_class_requires_regular(self):
        with pytest.raises(ValueError):
            CvForm((1, 3, 3, 3)).class_of()

    def test_exhaustive_invariants(self):
        # type sums to the degree; type entries of non-vanishing forms are
        # >= 0; non-vanishing regular forms have a nonincreasing unit-step
        # class.  A form vanishes identically when some determinant row is
        # forced to zero, i.e. when fewer than j entries reach j - 1.
        for n in range(2, 6):
            for entries in itertools.product(range(n), repeat=n):
                f = CvForm(entries)
                t = f.type_of()
                assert sum(t) == f.degree()
                caps = sorted(e + 1 for e in entries)
                vanishes = any(cap - slot <= 0 for slot, cap in enumerate(caps))
                if not vanishes:
                    assert all(k >= 0 for k in t)
                    if f.is_regular():
                        assert valid_class(f.class_of())

    def test_smoothing_example(self):
        assert CvForm((2, 2, 4, 4, 5, 5)).type_of() == (2, 1, 2, 1, 1, 0)
        assert CvForm((2, 3, 3, 4, 5, 5)).type_of() == (2, 2, 1, 1, 1, 0)


class TestValidClass:
    def test_accepts(self):
        assert valid_class((2, 1, 0, 0))
        assert valid_class((1, 1, 1, 0))
        assert valid_class((0, 0, 0))

    def test_rejects(self):
        assert not valid_class((2, 0, 0, 0))  # step of two
        assert not valid_class((1, 2, 0, 0))  # not sorted
        assert not valid_class((2, 1, 1))  # does not end at zero


class TestSortEntries:
    def test_already_sorted(self):
        f = CvForm((2, 2, 3, 3))
        sf, perm, sign = sort_entries(f)
        assert (sf, perm, sign) == (f, (1, 2, 3, 4), 1)

    def test_stable_with_sign(self):
        sf, perm, sign = sort_entries(CvForm((3, 2, 2, 1)))
        assert sf == CvForm((1, 2, 2, 3))
        assert perm == (4, 2, 3, 1)
        assert sign == -1

    @settings(max_examples=100, deadline=None)
    @given(small_forms)
    def test_permutation_consistency(self, f):
        sf, perm, sign = sort_entries(f)
        assert sorted(perm) == list(range(1, f.N + 1))
        assert sf.entries == tuple(f.entries[p - 1] for p in perm)
        assert sign == permutation_sign(perm)
        assert list(sf.entries) == sorted(f.entries)
