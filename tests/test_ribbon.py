"""Ribbons, skew shapes, standard fillings, and the flip involution."""

import itertools
import math
import pickle

import pytest

from cvforms.basis import q_factorial
from cvforms.cvform import CvForm, valid_class
from cvforms.ribbon import (
    Ribbon,
    SkewPartition,
    SkewTableau,
    backward_order,
    class_to_ribbon,
    count_tableaux,
    enumerate_ribbons,
    enumerate_tableaux,
    flip,
    render_ribbon,
    render_tableau,
    ribbon_from_steps,
    ribbon_generating_function,
    ribbon_index,
    ribbons_of_degree,
    tableau_from_cvform,
    tableau_to_cvform,
    tableau_to_type,
    to_skew_partition,
)
from skew_count import count_syt

GOLDEN_CLASS = (4, 4, 3, 2, 1, 1, 1, 0)
GOLDEN_FILLING = (4, 8, 5, 3, 1, 2, 7, 6)
GOLDEN_FORM = CvForm((5, 7, 7, 5, 4, 5, 6, 5))

D16_CLASSES = [
    (5, 4, 3, 2, 1, 1, 0, 0),
    (4, 4, 3, 2, 2, 1, 0, 0),
    (4, 4, 3, 2, 1, 1, 1, 0),
    (4, 3, 3, 3, 2, 1, 0, 0),
    (4, 3, 3, 2, 2, 1, 1, 0),
    (4, 3, 2, 2, 2, 2, 1, 0),
    (3, 3, 3, 3, 2, 1, 1, 0),
    (3, 3, 3, 2, 2, 2, 1, 0),
]
D16_COUNTS = (105, 589, 315, 315, 1385, 181, 245, 315)

D12_CLASSES = [
    (4, 3, 2, 2, 1, 0, 0, 0),
    (4, 3, 2, 1, 1, 1, 0, 0),
    (3, 3, 3, 2, 1, 0, 0, 0),
    (3, 3, 2, 2, 1, 1, 0, 0),
    (3, 3, 2, 1, 1, 1, 1, 0),
    (3, 2, 2, 2, 2, 1, 0, 0),
    (3, 2, 2, 2, 1, 1, 1, 0),
    (2, 2, 2, 2, 2, 1, 1, 0),
]
D12_COUNTS = tuple(reversed(D16_COUNTS))


class TestRibbonShape:
    def test_boxes_from_class(self):
        r = class_to_ribbon((2, 1, 0, 0))
        # box i sits at row k_i, column k_i + i - 1 (1-based i)
        assert r.boxes == ((2, 2), (1, 2), (0, 2), (0, 3))
        assert r.size == 4
        assert r.height == 3
        assert ribbon_index(r) == 3

    def test_round_trip_all_classes(self):
        for n in range(1, 9):
            for r in enumerate_ribbons(n):
                cls = r.class_entries()
                assert class_to_ribbon(cls) == r
                assert ribbon_index(r) == sum(cls)

    def test_steps_round_trip(self):
        for r in enumerate_ribbons(6):
            assert ribbon_from_steps(r.steps()) == r

    def test_rejects_invalid_class(self):
        with pytest.raises(ValueError):
            class_to_ribbon((2, 0, 0, 0))
        with pytest.raises(ValueError):
            class_to_ribbon((1, 1, 1))

    def test_last_box_anchor(self):
        for r in enumerate_ribbons(5):
            assert r.boxes[-1] == (0, 4)

    def test_count_is_power_of_two(self):
        for n in range(1, 9):
            assert len(list(enumerate_ribbons(n))) == 2 ** (n - 1)

    def test_every_class_once_descending(self):
        for n in range(1, 11):
            classes = [r.class_entries() for r in enumerate_ribbons(n)]
            assert len(classes) == 2 ** (n - 1)
            assert classes == sorted(set(classes), reverse=True)
            assert all(valid_class(c) for c in classes)

    def test_enumeration_is_lazy_and_iterative(self):
        # 2^1099 ribbons, far past the recursion limit: only two are built
        ribbons = enumerate_ribbons(1100)
        assert next(ribbons).class_entries() == tuple(range(1099, -1, -1))
        assert next(ribbons).class_entries() == (1098,) + tuple(range(1098, -1, -1))

    def test_rejects_no_boxes_before_iterating(self):
        with pytest.raises(ValueError, match="need at least one box"):
            enumerate_ribbons(0)


class TestSkewPartition:
    def test_golden_shape(self):
        sp = to_skew_partition(class_to_ribbon(GOLDEN_CLASS))
        assert sp.lam == (4, 4, 2, 2, 2)
        assert sp.mu == (3, 1, 1, 1)
        assert str(sp) == "(44222)/(3111)"
        assert sp.size == 8

    def test_straight_shape(self):
        sp = to_skew_partition(class_to_ribbon((2, 1, 0, 0)))
        assert str(sp) == "(211)/()"

    def test_validation(self):
        with pytest.raises(ValueError):
            SkewPartition((2, 3), ())  # not weakly decreasing
        with pytest.raises(ValueError):
            SkewPartition((2, 2), (3,))  # inner exceeds outer

    def test_size_matches_ribbon(self):
        for r in enumerate_ribbons(7):
            assert to_skew_partition(r).size == 7


class TestCountSyt:
    def test_hook_shapes(self):
        # single row or column has a unique filling
        assert count_syt(SkewPartition((4,), ())) == 1
        assert count_syt(SkewPartition((1, 1, 1, 1), ())) == 1

    def test_small_shapes(self):
        assert count_syt(SkewPartition((2, 1), ())) == 2
        assert count_syt(SkewPartition((2, 2), ())) == 2
        assert count_syt(SkewPartition((3, 3), ())) == 5

    def test_golden(self):
        sp = to_skew_partition(class_to_ribbon(GOLDEN_CLASS))
        assert count_syt(sp) == 315

    def test_matches_enumeration(self):
        for n in range(1, 6):
            for r in enumerate_ribbons(n):
                assert len(enumerate_tableaux(r)) == count_syt(to_skew_partition(r))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_completion_count_matches_determinant(self, n):
        for r in enumerate_ribbons(n):
            assert count_tableaux(r) == count_syt(to_skew_partition(r))


class TestTableaux:
    def test_enumeration_order_small(self):
        r = class_to_ribbon((2, 1, 0, 0))
        fillings = [t.filling for t in enumerate_tableaux(r)]
        assert fillings == [(3, 2, 1, 4), (4, 2, 1, 3), (4, 3, 1, 2)]

    def test_forms_of_small_class(self):
        r = class_to_ribbon((2, 1, 0, 0))
        forms = [tableau_to_cvform(t) for t in enumerate_tableaux(r)]
        assert forms == [CvForm((3, 2, 2, 2)), CvForm((2, 3, 2, 2)), CvForm((2, 2, 3, 2))]

    def test_rejects_non_standard_filling(self):
        r = class_to_ribbon((2, 1, 0, 0))  # steps U U R: fall, fall, rise
        cases = [
            (r, (1, 1, 2, 3), "filling (1, 1, 2, 3) is not a permutation of 1..4"),
            # falls where the ribbon does, yet holds 5
            (r, (4, 3, 1, 5), "filling (4, 3, 1, 5) is not a permutation of 1..4"),
            (r, (3, 2, 1), "filling (3, 2, 1) is not a permutation of 1..4"),
            (r, (3, 2, 1, 4, 5), "filling (3, 2, 1, 4, 5) is not a permutation of 1..4"),
            (class_to_ribbon((0,)), (), "filling () is not a permutation of 1..1"),
            (r, (4, 3, 2, 1), "filling (4, 3, 2, 1) does not rise along a row step"),
            (r, (4, 1, 2, 3), "filling (4, 1, 2, 3) does not fall along a column step"),
        ]
        for ribbon, filling, message in cases:
            with pytest.raises(ValueError) as excinfo:
                SkewTableau(ribbon, filling)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("n", range(1, 6))
    def test_accepts_exactly_the_filtered_permutations(self, n):
        groups = brute_force_fillings(n)
        for r in enumerate_ribbons(n):
            for perm in itertools.permutations(range(1, n + 1)):
                try:
                    SkewTableau(r, perm)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (perm in groups[r.steps()])

    def test_json_round_trip(self):
        t = SkewTableau(class_to_ribbon(GOLDEN_CLASS), GOLDEN_FILLING)
        assert SkewTableau.from_json_dict(t.to_json_dict()) == t

    def test_pickle_round_trip(self):
        t = SkewTableau(class_to_ribbon(GOLDEN_CLASS), GOLDEN_FILLING)
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t)
        assert back.ribbon.steps() == t.ribbon.steps()


def brute_force_fillings(n: int) -> dict[tuple[str, ...], list[tuple[int, ...]]]:
    """Permutations of 1..n in lexicographic order, grouped by step word."""
    groups: dict[tuple[str, ...], list[tuple[int, ...]]] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        word = tuple("R" if a < b else "U" for a, b in zip(perm, perm[1:]))
        groups.setdefault(word, []).append(perm)
    return groups


class TestLevelwiseEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_filtered_permutations(self, n):
        groups = brute_force_fillings(n)
        for r in enumerate_ribbons(n):
            fillings = [t.filling for t in enumerate_tableaux(r)]
            assert fillings == groups[r.steps()]
            assert len(fillings) == count_syt(to_skew_partition(r))

    def test_cached_steps_follow_the_boxes(self):
        for n in range(1, 7):
            for r in enumerate_ribbons(n):
                rebuilt = tuple(
                    "R" if k2 == k1 else "U" for (k1, _), (k2, _) in zip(r.boxes, r.boxes[1:])
                )
                assert r.steps() == rebuilt
                assert r.falls() == tuple(s == "U" for s in rebuilt)
                assert Ribbon(r.boxes) == r and hash(Ribbon(r.boxes)) == hash(r)

    def test_small_step_words(self):
        # R R U: prefixes such as (1 4) cannot rise again and are never built
        r = class_to_ribbon((1, 1, 1, 0))
        assert [t.filling for t in enumerate_tableaux(r)] == [(1, 2, 4, 3), (1, 3, 4, 2), (2, 3, 4, 1)]
        # U R R: the second value must be 1
        r = class_to_ribbon((1, 0, 0, 0))
        assert [t.filling for t in enumerate_tableaux(r)] == [(2, 1, 3, 4), (3, 1, 2, 4), (4, 1, 2, 3)]


class TestInjection:
    def test_golden_tableau_to_form(self):
        t = SkewTableau(class_to_ribbon(GOLDEN_CLASS), GOLDEN_FILLING)
        assert tableau_to_cvform(t) == GOLDEN_FORM
        assert tableau_to_type(t) == (4, 1, 0, 3, 4, 2, 1, 1)

    def test_backward_order(self):
        assert backward_order(4) == (4, 3, 2, 1)

    def test_inverse_golden(self):
        t = tableau_from_cvform(GOLDEN_FORM)
        assert t.filling == GOLDEN_FILLING
        assert t.ribbon.class_entries() == GOLDEN_CLASS

    def test_round_trip_everywhere(self):
        for n in range(1, 6):
            for r in enumerate_ribbons(n):
                for t in enumerate_tableaux(r):
                    form = tableau_to_cvform(t)
                    assert form.degree() == ribbon_index(r)
                    assert tableau_from_cvform(form) == t
                    assert form.class_of() == r.class_entries()

    def test_walk_lists_each_column_bottom_first(self):
        # tableau_from_cvform stacks each column in walk order, unsorted
        for n in range(1, 13):
            for r in enumerate_ribbons(n):
                rows: dict[int, list[int]] = {}
                for k, c in r.boxes:
                    rows.setdefault(c, []).append(k)
                assert all(col == sorted(col, reverse=True) for col in rows.values()), r

    def test_types_are_distinct_per_class(self):
        for r in enumerate_ribbons(5):
            types = {tableau_to_type(t) for t in enumerate_tableaux(r)}
            assert len(types) == count_syt(to_skew_partition(r))

    def test_top_form_is_the_column_ribbon(self):
        t = tableau_from_cvform(CvForm((3, 3, 3, 3)))
        assert t.filling == (4, 3, 2, 1)
        assert t.ribbon.class_entries() == (3, 2, 1, 0)

    def test_non_standard_form_rejected(self):
        # [2 2 3 3] duplicates the type of [2 3 2 3] and is not standard
        with pytest.raises(ValueError):
            tableau_from_cvform(CvForm((2, 2, 3, 3)))
        with pytest.raises(ValueError):
            tableau_from_cvform(CvForm((1, 3, 3, 3)))


class TestFlip:
    def test_golden_pair(self):
        t = SkewTableau(class_to_ribbon(GOLDEN_CLASS), GOLDEN_FILLING)
        ft = flip(t)
        assert tableau_to_cvform(ft) == CvForm((6, 6, 5, 3, 4, 7, 6, 3))
        assert ft.ribbon.class_entries() == (3, 2, 2, 2, 2, 1, 0, 0)
        assert str(to_skew_partition(ft.ribbon)) == "(5441)/(33)"

    def test_degrees_complement(self):
        t = SkewTableau(class_to_ribbon(GOLDEN_CLASS), GOLDEN_FILLING)
        d1 = tableau_to_cvform(t).degree()
        d2 = tableau_to_cvform(flip(t)).degree()
        assert (d1, d2) == (16, 12)
        assert d1 + d2 == 8 * 7 // 2

    def test_involution(self):
        for n in range(1, 6):
            top = n * (n - 1) // 2
            for r in enumerate_ribbons(n):
                for t in enumerate_tableaux(r):
                    ft = flip(t)
                    assert flip(ft) == t
                    assert ribbon_index(ft.ribbon) + ribbon_index(r) == top

    def test_steps_swap_in_place(self):
        r = class_to_ribbon((2, 1, 0, 0))
        t = enumerate_tableaux(r)[0]
        swapped = tuple("U" if s == "R" else "R" for s in r.steps())
        assert flip(t).ribbon.steps() == swapped


class TestDegreeListing:
    def test_d16_classes_in_display_order(self):
        got = [r.class_entries() for r in ribbons_of_degree(8, 16)]
        assert got == D16_CLASSES
        counts = tuple(count_syt(to_skew_partition(r)) for r in ribbons_of_degree(8, 16))
        assert counts == D16_COUNTS
        assert sum(counts) == 3450

    def test_d12_classes_in_display_order(self):
        got = [r.class_entries() for r in ribbons_of_degree(8, 12)]
        assert got == D12_CLASSES
        counts = tuple(count_syt(to_skew_partition(r)) for r in ribbons_of_degree(8, 12))
        assert counts == D12_COUNTS

    def test_listing_partitions_all_ribbons(self):
        for n in range(1, 13):
            split = []
            for d in range(n * (n - 1) // 2 + 1):
                listing = ribbons_of_degree(n, d)
                classes = [r.class_entries() for r in listing]
                assert all(a > b for a, b in zip(classes, classes[1:])), (n, d)
                split.extend(listing)
            assert sorted(r.boxes for r in split) == sorted(
                r.boxes for r in enumerate_ribbons(n)
            )
        # below one box, a degree in range lists nothing
        assert ribbons_of_degree(0, 0) == ribbons_of_degree(-1, 1) == ribbons_of_degree(-2, 3) == []


class TestCounting:
    def test_total_is_factorial(self):
        for n in range(1, 9):
            total = sum(count_syt(to_skew_partition(r)) for r in enumerate_ribbons(n))
            assert total == math.factorial(n)

    def test_degree_census_is_mahonian(self):
        for n in range(1, 8):
            mahon = q_factorial(n)
            census = [0] * len(mahon)
            for r in enumerate_ribbons(n):
                census[ribbon_index(r)] += count_syt(to_skew_partition(r))
            assert census == mahon

    def test_generating_function_diagonal_sums(self):
        # summing the (d, l) table over l gives the number of ribbons per d
        for n in range(1, 13):
            per_degree: dict[int, int] = {}
            for (d, _l), c in ribbon_generating_function(n).items():
                per_degree[d] = per_degree.get(d, 0) + c
            assert sorted(per_degree) == list(range(n * (n - 1) // 2 + 1))
            for d, c in per_degree.items():
                assert c == len(ribbons_of_degree(n, d)), (n, d)
            assert sum(per_degree.values()) == 2 ** (n - 1)

    def test_generating_function_matches_heights(self):
        gf = ribbon_generating_function(8)
        q16 = {l: c for (d, l), c in gf.items() if d == 16}
        assert q16 == {5: 1, 4: 5, 3: 2}
        q12 = {l: c for (d, l), c in gf.items() if d == 12}
        assert q12 == {4: 2, 3: 5, 2: 1}

    def test_height_bounds(self):
        # with l one less than the height, the index d of an N-box ribbon
        # satisfies l(l+1)/2 <= d <= l(l+1)/2 + l(N-l-1), both bounds tight
        for n in range(2, 9):
            reached_low = set()
            reached_high = set()
            for r in enumerate_ribbons(n):
                l = r.height - 1
                d = ribbon_index(r)
                low = l * (l + 1) // 2
                high = low + l * (n - l - 1)
                assert low <= d <= high
                if d == low:
                    reached_low.add(l)
                if d == high:
                    reached_high.add(l)
            assert reached_low == set(range(n))
            assert reached_high == set(range(n))


class TestRendering:
    def test_ribbon_diagram(self):
        r = class_to_ribbon(GOLDEN_CLASS)
        assert render_ribbon(r).splitlines() == [
            ". . . . . . . #",
            ". . . . . # # #",
            ". . . . . # . .",
            ". . . . . # . .",
            ". . . . # # . .",
        ]

    def test_tableau_diagram(self):
        t = SkewTableau(class_to_ribbon(GOLDEN_CLASS), GOLDEN_FILLING)
        assert render_tableau(t).splitlines() == [
            ". . . . . . . 6",
            ". . . . . 1 2 7",
            ". . . . . 3 . .",
            ". . . . . 5 . .",
            ". . . . 4 8 . .",
        ]

    def test_single_box(self):
        r = class_to_ribbon((0,))
        assert render_ribbon(r) == "#"
