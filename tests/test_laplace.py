"""Block expansion, row-blocks, and the determinant oracles."""

import ast
import collections
import gc
import inspect
import itertools
import math
import operator
import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvforms import laplace
from cvforms.basis import generate_basis
from cvforms.cvform import CvForm, permutation_sign
from cvforms.laplace import (
    RowBlock,
    _FormRow,
    _order_key,
    characteristic_exponents,
    derivative_oracle,
    diagonal_rowblock,
    evaluate,
    expand_rowblocks,
    naive_oracle,
    normalized_vandermonde,
    rowblock_value,
)
from cvforms.poly import Polynomial
from fraction_poly import from_fractions
from rowblock_slow_path import characteristic_monomial, decoding_table, leading_rowblock, sort_entries


def leibniz_det(form: CvForm) -> Polynomial:
    """Permutation-sum determinant, independent of every package route."""
    n = form.N
    acc: dict[tuple[int, ...], Fraction] = {}
    for rows in itertools.permutations(range(n)):
        coeff = Fraction(permutation_sign(rows))
        exps = [0] * n
        dead = False
        for col, row in enumerate(rows):
            e = form.entries[col] - row
            if e < 0:
                dead = True
                break
            exps[col] = e
            coeff /= math.factorial(e)
        if dead:
            continue
        key = tuple(exps)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return from_fractions(n, acc)


class TestDecodingTable:
    """The table's rows are the runs of the sorted entries and its column
    groups the variables under them; the frozen reference keeps the checks
    of its input."""

    def test_small(self):
        assert decoding_table(CvForm((2, 2, 3, 3))) == ((2, 3), ((1, 2), (3, 4)))
        assert laplace._cut_at_runs((2, 2, 3, 3), (1, 2, 3, 4)) == ((1, 2), (3, 4))

    def test_six_variables(self):
        assert decoding_table(CvForm((2, 2, 4, 4, 5, 5))) == ((2, 4, 5), ((1, 2), (3, 4), (5, 6)))
        assert laplace._cut_at_runs((2, 2, 4, 4, 5, 5), range(1, 7)) == ((1, 2), (3, 4), (5, 6))

    def test_relabeled_columns(self):
        blocks = ((4,), (2, 3), (1,))
        assert decoding_table(CvForm((1, 2, 2, 3)), variables=(4, 2, 3, 1))[1] == blocks
        assert laplace._cut_at_runs((1, 2, 2, 3), (4, 2, 3, 1)) == blocks

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            decoding_table(CvForm((3, 2, 2, 3)))

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            decoding_table(CvForm((0, 1, 2, 3)))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            decoding_table(CvForm((2, 2, 3, 3)), variables=(1, 1, 2, 3))


FULL_SIX = [
    "+|2 1|2 1|1 0|",
    "-|2 1|2 0|2 0|",
    "+|2 1|1 0|3 0|",
    "-|2 0|3 1|1 0|",
    "+|1 0|4 1|1 0|",
    "+|2 0|3 0|2 0|",
    "-|2 0|1 0|4 0|",
    "-|1 0|4 0|2 0|",
    "+|1 0|1 0|5 0|",
]


class TestExpansion:
    def test_four_variable_golden(self):
        groups, terms = expand_rowblocks(CvForm((2, 2, 3, 3)))
        assert groups == ((1, 2), (3, 4))
        assert [str(t) for t in terms] == ["+|2 1|1 0|", "-|2 0|2 0|", "+|1 0|3 0|"]

    def test_pair_golden(self):
        _, terms = expand_rowblocks(CvForm((1, 3, 3, 3)))
        assert [str(t) for t in terms] == ["+|1|2 1 0|", "-|0|3 1 0|"]

    def test_six_variable_golden(self):
        groups, terms = expand_rowblocks(CvForm((2, 2, 4, 4, 5, 5)))
        assert groups == ((1, 2), (3, 4), (5, 6))
        assert [str(t) for t in terms] == FULL_SIX

    def test_zero_form_is_empty(self):
        groups, terms = expand_rowblocks(CvForm((0, 0, 2, 3)))
        assert groups == ()
        assert terms == []

    def test_constant_form(self):
        groups, terms = expand_rowblocks(CvForm((1, 0, 2, 3)))
        assert len(terms) == 1
        assert terms[0].total_sign == -1
        assert terms[0].entries() == (0, 0, 0, 0)
        assert terms[0].var_partition == groups
        assert rowblock_value(terms[0]) == Polynomial(4, {(0, 0, 0, 0): 1}, 1)
        assert evaluate(CvForm((1, 0, 2, 3))) == Polynomial(4, {(0, 0, 0, 0): -1}, 1)

    def test_powers_strictly_decreasing(self):
        for entries in itertools.product(range(4), repeat=4):
            _, terms = expand_rowblocks(CvForm(entries))
            for rb in terms:
                for blk in rb.blocks:
                    assert all(a > b for a, b in zip(blk, blk[1:]))
                assert rb.total_sign in (-1, 1)

    def test_unsorted_input_folds_sort_sign(self):
        # sorting columns relabels variables and contributes its sign:
        # [3 2 2 1] sorts to [1 2 2 3] by the odd permutation (4 2 3 1)
        f = CvForm((3, 2, 2, 1))
        sf, perm, sign = sort_entries(f)
        relabeled = {}
        for exps, coeff in evaluate(sf).terms.items():
            new = [0] * f.N
            for slot, e in enumerate(exps):
                new[perm[slot] - 1] = e
            relabeled[tuple(new)] = sign * coeff
        assert evaluate(f) == from_fractions(f.N, relabeled)
        # in general [e o s] = sign(s) [e] with t_s(i) renamed t_i, for every
        # permutation s of every 4^4 form; the reading orders rest on this
        for e in itertools.product(range(4), repeat=4):
            value = evaluate(CvForm(e))
            for s in itertools.permutations(range(4)):
                sign = permutation_sign(s)
                renamed = {tuple(a[j] for j in s): sign * c for a, c in value.terms.items()}
                assert evaluate(CvForm(e[j] for j in s)) == from_fractions(4, renamed)


def _frozen_rowblock_value(rb: RowBlock) -> Polynomial:
    # the block alternants multiplied out one after another, in Fractions,
    # as rowblock_value did before it expanded the product itself
    nvars = sum(map(len, rb.var_partition))
    value = {(0,) * nvars: Fraction(1)}
    for powers, variables in zip(rb.blocks, rb.var_partition):
        denom = math.prod(math.factorial(p) for p in powers)
        alternant = {}
        for sigma in itertools.permutations(range(len(powers))):
            exps = [0] * nvars
            for c, v in enumerate(variables):
                exps[v - 1] = powers[sigma[c]]
            alternant[tuple(exps)] = Fraction(permutation_sign(sigma), denom)
        product = {}
        for ea, ca in value.items():
            for eb, cb in alternant.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                product[key] = product.get(key, 0) + ca * cb
        value = {e: c for e, c in product.items() if c}
    return from_fractions(nvars, value)


class TestRowBlockValue:
    def test_single_vandermonde_block(self):
        _, terms = expand_rowblocks(CvForm((1, 1)))
        (rb,) = terms
        assert str(rb) == "+|1 0|"
        assert rowblock_value(rb).canonical_text() == "t1 - t2"

    def test_value_is_unsigned(self):
        # every form to N=5, the zero forms (no term) and scalar ones included
        for f in _all_forms(5):
            groups, terms = expand_rowblocks(f)
            total = {}
            for rb in terms:
                assert rb.var_partition == groups
                for exps, c in rowblock_value(rb).terms.items():
                    total[exps] = total.get(exps, 0) + rb.total_sign * c
            assert from_fractions(f.N, total) == evaluate(f), f

    def test_equals_the_frozen_alternant_product(self):
        # every distinct row-block of every form to N=5
        seen = set()
        for f in _all_forms(5):
            for rb in expand_rowblocks(f)[1]:
                key = (rb.blocks, rb.var_partition)
                if key not in seen:
                    seen.add(key)
                    assert rowblock_value(rb) == _frozen_rowblock_value(rb), rb
        assert len(seen) == 2798

    def test_blocks_must_match_the_partition(self):
        with pytest.raises(ValueError, match="disagree"):
            rowblock_value(RowBlock(((1, 0), (0,)), ((1, 2, 3),), 1))
        # the partition covers 1..3, but one block has fewer or more powers than variables
        for blocks in (((0,), (0,)), ((1, 0), (1, 0))):
            with pytest.raises(ValueError, match="block size mismatch"):
                rowblock_value(RowBlock(blocks, ((1,), (2, 3)), 1))
        # a repeated power is an alternant with two equal rows, 0 and not -t1*t2
        for blocks, partition in ((((1, 1),), ((1, 2),)), (((0, 1),), ((1, 2),)), (((2, 1), (0, 0)), ((1, 2), (3, 4)))):
            with pytest.raises(ValueError, match="not strictly decreasing"):
                rowblock_value(RowBlock(blocks, partition, 1))

    def test_partition_must_cover(self):
        # N is read off the partition: one that skips t3, one that repeats t2
        for partition in (((1, 2), (4,)), ((1, 2), (2,))):
            rb = RowBlock(((1, 0), (0,)), partition, 1)
            with pytest.raises(ValueError, match="does not cover"):
                rowblock_value(rb)


class TestEvaluate:
    def test_linear_difference(self):
        assert evaluate(CvForm((0, 1, 3, 3))).canonical_text() == "t3 - t4"

    def test_quadratic_value(self):
        assert (
            evaluate(CvForm((3, 2, 2, 1))).canonical_text()
            == "1/2*t2^2 - t2*t4 - 1/2*t3^2 + t3*t4"
        )

    def test_lowest_form_is_one(self):
        assert evaluate(CvForm((0, 1, 2, 3))) == Polynomial(4, {(0, 0, 0, 0): 1}, 1)

    def test_top_form_is_normalized_vandermonde(self):
        got = evaluate(CvForm((2, 2, 2)))
        # (t1 - t2)(t1 - t3)(t2 - t3), six terms, divided by (j - i) over i < j: 1 * 2 * 1
        prod = {(2, 1, 0): 1, (2, 0, 1): -1, (1, 2, 0): -1, (1, 0, 2): 1, (0, 2, 1): 1, (0, 1, 2): -1}
        assert got == from_fractions(3, {e: Fraction(c, 2) for e, c in prod.items()})

    def test_degree_matches(self):
        for entries in itertools.product(range(4), repeat=4):
            f = CvForm(entries)
            v = evaluate(f)
            if v:
                homogeneous = {sum(e) for e in v.terms}
                assert homogeneous == {f.degree()}


class TestOracleAgreement:
    def test_exhaustive_three(self):
        for entries in itertools.product(range(3), repeat=3):
            f = CvForm(entries)
            v = evaluate(f)
            assert v == naive_oracle(f)
            assert v == derivative_oracle(f)
            assert v == leibniz_det(f)

    def test_sampled_four(self):
        rng = random.Random(7)
        seen = {tuple(rng.randrange(4) for _ in range(4)) for _ in range(40)}
        for entries in seen:
            f = CvForm(entries)
            v = evaluate(f)
            assert v == naive_oracle(f)
            assert v == derivative_oracle(f)
            assert v == leibniz_det(f)

    def test_sampled_five(self):
        rng = random.Random(11)
        for _ in range(12):
            f = CvForm(tuple(rng.randrange(5) for _ in range(5)))
            assert evaluate(f) == naive_oracle(f) == leibniz_det(f)


def _laplace_names(func, seen=None) -> set[str]:
    """Every identifier in ``func``'s source and, transitively, in the
    source of each ``laplace`` function it names."""
    seen = set() if seen is None else seen
    tree = ast.parse(inspect.getsource(inspect.unwrap(func)).lstrip())
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is None or name in seen:
            continue
        seen.add(name)
        target = getattr(laplace, name, None)
        if callable(target) and getattr(inspect.unwrap(target), "__module__", None) == laplace.__name__:
            _laplace_names(target, seen)
    return seen


class TestOraclesAgainstLeibniz:
    """Both oracles against the permutation sum, which shares no code with them."""

    @staticmethod
    def check(entries):
        f = CvForm(entries)
        expect = leibniz_det(f)
        assert naive_oracle(f) == expect
        assert derivative_oracle(f) == expect

    def test_exhaustive_four(self):
        for entries in itertools.product(range(4), repeat=4):
            self.check(entries)

    def test_seeded_five(self):
        rng = random.Random(5)
        for _ in range(60):
            self.check(tuple(rng.randrange(5) for _ in range(5)))

    @pytest.mark.parametrize("entries", [(0, 1, 2, 3, 4, 5), (5, 5, 5, 5, 5, 5)])
    def test_six(self, entries):
        self.check(entries)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_normalized_vandermonde(self, n):
        assert normalized_vandermonde(n) == leibniz_det(CvForm((n - 1,) * n))

    @pytest.mark.parametrize(
        "entries", [(0, 0, 3, 3), (1, 1, 1, 3), (0, 2, 0, 3, 4), (3, 3, 3, 3, 0)]
    )
    def test_vanishing_forms_store_no_terms(self, entries):
        f = CvForm(entries)
        assert not leibniz_det(f)
        for value in (naive_oracle(f), derivative_oracle(f), evaluate(f)):
            assert not value
            assert value.terms == {}

    @pytest.mark.parametrize("oracle", [naive_oracle, derivative_oracle])
    def test_oracles_avoid_the_block_expansion(self, oracle):
        names = _laplace_names(oracle)
        assert not names & {"expand_rowblocks", "_walk", "_block_expansion", "_FormRow", "evaluate"}
        assert not names & {"_sorted_order", "_cut_at_runs", "remove_zeros", "characteristic_exponents"}
        # the walk does find the enumerator where it is used
        assert {"_walk", "_block_expansion", "_FormRow"} <= _laplace_names(evaluate)
        assert {"_walk", "_cut_at_runs"} <= _laplace_names(expand_rowblocks)
        assert {"_sorted_order", "remove_zeros"} <= _laplace_names(evaluate)
        # a form's value is found by its sorted entries, with no variable blocks of its own
        assert "_cut_at_runs" not in _laplace_names(evaluate)

    def test_oracles_share_no_helper(self):
        naive = _laplace_names(naive_oracle)
        derivative = _laplace_names(derivative_oracle)
        assert not naive & {"_integer_vandermonde", "derivative_oracle"}
        helpers = {name for name in naive if callable(getattr(laplace, name, None)) and name.startswith("_")}
        assert "_mask_rows" in helpers
        assert not derivative & helpers
        # the derivative route decides vanishing forms by its own walk
        assert "le" in naive
        assert "le" not in derivative

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_small(self, n):
        for entries in itertools.product(range(n), repeat=n):
            self.check(entries)

    @staticmethod
    def structurally_zero(rows, entries) -> bool:
        """No assignment of rows to columns puts every row at or below its column's entry."""
        return not any(all(map(operator.le, p, entries)) for p in itertools.permutations(rows))

    @pytest.mark.parametrize(
        "entries", [(4, 0, 1, 2, 3), (4, 4, 0, 1, 2), (5, 0, 1, 2, 3, 4), (5, 2, 0, 1, 3, 5)]
    )
    def test_nonzero_forms_with_zero_suffix_minors(self, entries):
        # column 0 may take row 0, which leaves a minor on rows 1..N-1 and
        # columns 1..N-1 with no nonzero Leibniz term
        n = len(entries)
        assert self.structurally_zero(range(1, n), entries[1:])
        assert leibniz_det(CvForm(entries))
        self.check(entries)

    def test_oracles_agree_up_to_five(self):
        for n in range(1, 6):
            for entries in itertools.product(range(n), repeat=n):
                f = CvForm(entries)
                assert naive_oracle(f) == derivative_oracle(f)

    def test_oracles_agree_on_the_oracle6_samples(self):
        # the forms of `verify 6 oracle --samples 1000 --seed 1`
        rng = random.Random(1)
        forms = [CvForm(tuple(rng.randrange(6) for _ in range(6))) for _ in range(1000)]
        nonzero = 0
        for f in forms:
            value = naive_oracle(f)
            assert value == derivative_oracle(f)
            nonzero += bool(value)
        assert nonzero == 366

    def test_no_route_stores_a_zero_coefficient(self):
        # equality compares key sets, so a stored zero would read as a mismatch
        rng = random.Random(1)
        samples = [CvForm(tuple(rng.randrange(6) for _ in range(6))) for _ in range(1000)]
        for f in itertools.chain(_all_forms(5), samples):
            for route in (evaluate, naive_oracle, derivative_oracle):
                assert all(route(f).terms.values()), (route.__name__, f)

    def test_vanishing_form_costs_one_check(self, monkeypatch):
        read: list[int] = []
        table = laplace._mask_rows

        class Recorded:
            def __init__(self, n):
                self.rows = table(n)

            def __len__(self):
                return len(self.rows)

            def __getitem__(self, mask):
                read.append(mask)
                return self.rows[mask]

        monkeypatch.setattr(laplace, "_mask_rows", Recorded)
        vanishing = 0
        for n in range(1, 5):
            for entries in itertools.product(range(n), repeat=n):
                read.clear()
                if not naive_oracle(CvForm(entries)):
                    vanishing += 1
                    assert read == [2**n - 1], entries
                else:
                    assert read[0] == 2**n - 1
        assert vanishing == 0 + 1 + 11 + 131


def _frozen_integer_vandermonde(n: int):
    """The Vandermonde trie as built on exponent tuples, before the keys were packed."""
    terms = {(0,) * n: 1}
    denom = 1
    for i in range(n):
        for j in range(i + 1, n):
            out = {}
            for key, c in terms.items():
                up_i = key[:i] + (key[i] + 1,) + key[i + 1:]
                up_j = key[:j] + (key[j] + 1,) + key[j + 1:]
                out[up_i] = out.get(up_i, 0) + c
                out[up_j] = out.get(up_j, 0) - c
            terms = {key: c for key, c in out.items() if c}
            denom *= j - i

    def level(items, depth):
        if depth == n:
            return items[0][1]
        return tuple(
            (e, level(list(group), depth + 1))
            for e, group in itertools.groupby(items, key=lambda kc: kc[0][depth])
        )

    return denom, level(sorted(terms.items(), reverse=True), 0)


def _frozen_derivative_walk(form: CvForm, trie: tuple) -> tuple[dict, int]:
    """``derivative_oracle``'s numerators by the walk as it was before it looked
    ahead, which enters every branch that clears its own order; also the number
    of times the walk was entered."""
    n = form.N
    orders = [n - 1 - e for e in form.entries]
    last = orders[-1]
    out = {}
    entries = 0

    def walk(level, depth, head, coeff):
        nonlocal entries
        entries += 1
        k = orders[depth]
        if depth < n - 2:
            for e, child in level:
                if e < k:
                    break
                walk(child, depth + 1, head + (e - k,), coeff * math.perm(e, k))
            return
        for e, child in level:
            if e < k:
                break
            c = coeff * math.perm(e, k)
            key = head + (e - k,)
            for f, leaf in child:
                if f < last:
                    break
                out[key + (f - last,)] = c * math.perm(f, last) * leaf

    if n == 1:
        for e, leaf in trie:
            if e < last:
                break
            out[(e - last,)] = math.perm(e, last) * leaf
    else:
        walk(trie, 0, (), 1)
    return out, entries


def _oracle6_forms() -> list[CvForm]:
    """The forms of `verify 6 oracle --samples 1000 --seed 1`."""
    rng = random.Random(1)
    return [CvForm(tuple(rng.randrange(6) for _ in range(6))) for _ in range(1000)]


class TestOracleLayer:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_packed_product_builds_the_frozen_trie(self, n):
        # every level, leaf and the denominator
        assert laplace._integer_vandermonde.__wrapped__(n) == _frozen_integer_vandermonde(n)

    def test_lookahead_walk_equals_the_frozen_walk(self):
        # same keys in the same order, same numerators, same denominator
        tries = {n: _frozen_integer_vandermonde(n) for n in range(1, 7)}
        for f in itertools.chain(_all_forms(5), _oracle6_forms()):
            denom, trie = tries[f.N]
            numerators, got_denom = derivative_oracle(f).numerators()
            assert list(numerators.items()) == list(_frozen_derivative_walk(f, trie)[0].items()), f
            assert got_denom == denom, f

    def test_lookahead_walk_enters_only_live_branches(self):
        # on the oracle6 forms the frozen walk is entered 68 360 times, 24 436
        # of them for the 634 forms that vanish; the lookahead skips every
        # child whose free exponents cannot meet the two largest orders after it
        forms = _oracle6_forms()
        trie = _frozen_integer_vandermonde(6)[1]
        assert sum(_frozen_derivative_walk(f, trie)[1] for f in forms) == 68360
        consts = derivative_oracle.__code__.co_consts
        walk = next(c for c in consts if isinstance(c, types.CodeType) and c.co_name == "walk")
        entries = 0

        def spy(frame, event, arg):
            nonlocal entries
            if event == "call" and frame.f_code is walk:
                entries += 1

        laplace._integer_vandermonde(6)
        sys.setprofile(spy)
        try:
            for f in forms:
                derivative_oracle(f)
        finally:
            sys.setprofile(None)
        assert entries == 24368

    def test_oracle_calls_leave_no_cyclic_garbage(self):
        # a recursive closure that keeps itself alive holds its call's memo
        # until the collector runs; every call must free it on return
        forms = [CvForm(e) for e in [(4, 4, 4, 4, 4), (4, 0, 1, 2, 3), (5, 5, 5, 5, 5, 5), (5, 2, 0, 1, 3, 5)]]
        assert all(naive_oracle(f) for f in forms)
        gc.collect()
        gc.disable()
        try:
            for f in forms:
                naive_oracle(f)
                derivative_oracle(f)
            laplace._walk((1, 1, 3, 3, 4))
            laplace._integer_vandermonde.__wrapped__(5)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIntegerKernel:
    def test_exhaustive_four_against_both_oracles(self):
        for entries in itertools.product(range(4), repeat=4):
            f = CvForm(entries)
            numerators, denom = evaluate(f).numerators()
            assert all(isinstance(c, int) and c for c in numerators.values())
            value = from_fractions(4, {e: Fraction(c, denom) for e, c in numerators.items()})
            assert value == naive_oracle(f) == derivative_oracle(f)

    def test_denominator_is_lcm_of_rowblock_factorials(self):
        # [2 2 3 3] has row-blocks +|2 1|1 0|, -|2 0|2 0| and +|1 0|3 0|
        numerators, denom = evaluate(CvForm((2, 2, 3, 3))).numerators()
        assert denom == math.lcm(2, 4, 6)
        # t1*t3^3 comes only from +|1 0|3 0|, worth 1/(1!0!3!0!) = 2/12
        assert numerators[(1, 0, 3, 0)] == 2

    def test_zero_form(self):
        assert evaluate(CvForm((0, 0, 3, 3))).numerators() == ({}, 1)

    def test_every_reading_at_four_against_naive_oracle(self):
        # the readings of one ribbon share an entry multiset and differ in
        # position and sign
        for order in itertools.permutations(range(1, 5)):
            for bf in generate_basis(4, None, order).forms:
                numerators, denom = evaluate(bf.form).numerators()
                value = Polynomial(4, numerators, denom)
                assert value == naive_oracle(bf.form), (order, bf.form)

    @pytest.mark.parametrize("entries", [(1, 2, 2, 3), (2, 2, 3, 3)])
    def test_every_permutation_of_one_multiset_against_naive_oracle(self, entries):
        for perm in sorted(set(itertools.permutations(entries))):
            f = CvForm(perm)
            numerators, denom = evaluate(f).numerators()
            assert Polynomial(4, numerators, denom) == naive_oracle(f), f

    def test_returned_numerators_are_the_callers_own(self):
        # sorted, sorted by an even and sorted by an odd permutation
        forms = [CvForm(e) for e in ((2, 2, 3, 3), (3, 3, 2, 2), (2, 3, 2, 3))]
        expect = [naive_oracle(f) for f in forms]
        for f in forms:
            numerators, _ = evaluate(f).numerators()
            for key in list(numerators):
                numerators[key] *= 7
            numerators[(9, 9, 9, 9)] = 1
            for g, value in zip(forms, expect):
                assert Polynomial(4, *evaluate(g).numerators()) == value, (f, g)

    def test_exhaustive_five_against_naive_oracle(self):
        for entries in itertools.product(range(5), repeat=5):
            f = CvForm(entries)
            numerators, denom = evaluate(f).numerators()
            assert Polynomial(5, numerators, denom) == naive_oracle(f), f

    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_value_as_the_sorted_rowblock_kernel(self, n):
        for entries in itertools.product(range(n), repeat=n):
            f = CvForm(entries)
            assert evaluate(f).numerators() == _frozen_integer_value(f), f

    def test_same_value_as_the_sorted_rowblock_kernel_on_the_six_basis(self):
        for bf in generate_basis(6).forms:
            assert evaluate(bf.form).numerators() == _frozen_integer_value(bf.form), bf.form


def _all_forms(max_n: int):
    for n in range(1, max_n + 1):
        for entries in itertools.product(range(n), repeat=n):
            yield CvForm(entries)


class TestFormRow:
    def test_equals_the_integer_value_on_every_form_to_four(self):
        kinds = collections.Counter()
        for f in _all_forms(4):
            expect, _ = evaluate(f).numerators()
            row = _FormRow(f)
            assert dict(row) == dict(row.items()) == expect, f
            assert row == expect and expect == row, f
            assert list(row) == list(expect) and list(row.items()) == list(expect.items()), f
            assert len(row) == len(expect), f
            for col, value in expect.items():
                assert col in row and row[col] == value and row.get(col) == value, (f, col)
            # an exponent vector no form of degree d holds: its degree is d + 1
            missing = (f.degree() + 1,) + (0,) * (f.N - 1)
            assert missing not in row and row.get(missing) is None and row.get(missing, 7) == 7, f
            with pytest.raises(KeyError):
                row[missing]
            kinds["zero" if not expect else "scalar" if len(expect) == 1 and f.degree() == 0 else "other"] += 1
        # the zero form, scalar forms and N=1 are all among them
        assert kinds["zero"] and kinds["scalar"] and kinds["other"]
        assert dict(_FormRow(CvForm((0,)))) == {(0,): 1}
        assert dict(_FormRow(CvForm((0, 0, 3, 3)))) == {}

    def test_keys_probe_matches_a_set(self):
        rng = random.Random(5)
        for f in _all_forms(4):
            row = _FormRow(f)
            cols = set(row)
            pool = list(cols) + [tuple(rng.randrange(4) for _ in range(f.N)) for _ in range(6)]
            for _ in range(4):
                probe = rng.sample(pool, rng.randrange(len(pool) + 1))
                assert row.keys().isdisjoint(probe) == cols.isdisjoint(probe), (f, probe)
                assert set(row.keys()) == cols

    def test_a_key_of_another_length_is_absent(self):
        # the stable order moves [3 3 2 2]'s keys; a longer key must not be cut to N slots
        row = _FormRow(CvForm((3, 3, 2, 2)))
        lead = next(iter(row))
        for key in (lead + (0,), (1, 0, 2, 1, 0), lead[:2], (1, 0), ()):
            assert key not in row and row.get(key, "d") == "d", key
            with pytest.raises(KeyError):
                row[key]
            assert row.keys().isdisjoint([key]), key
        assert lead in row and not row.keys().isdisjoint([(1, 0), lead, lead + (0,)])
        for f in (CvForm((1, 2, 2, 3)), CvForm((2, 0, 1)), CvForm((0, 0, 3, 3))):
            # rows read in place, the scalar and the zero form alike
            row = _FormRow(f)
            assert (1, 0, 2, 1, 0) not in row and row.get((1, 0), "d") == "d", f
            assert row.keys().isdisjoint([(1, 0), (1, 0, 2, 1, 0)]), f

    def test_a_key_that_is_not_a_tuple_is_absent(self):
        # a reordered row and rows read in place (the scalar and the zero form too) alike
        for f in (CvForm((3, 3, 2, 2)), CvForm((1, 2, 2, 3)), CvForm((2, 0, 1)), CvForm((0, 0, 3, 3))):
            row = _FormRow(f)
            lead = next(iter(row), (0,) * f.N)
            for key in (5, None, "abcd", list(lead), [[0]] * f.N):
                assert key not in row and row.get(key, "d") == "d", (f, key)
                with pytest.raises(KeyError):
                    row[key]
                assert row.keys().isdisjoint([key]), (f, key)
            assert row.keys().isdisjoint([5, list(lead), (1, 0)]), f
            if row:
                assert lead in row and not row.keys().isdisjoint([5, list(lead), lead]), f

    def test_view_is_read_only_and_shares_the_cached_dict(self):
        f = CvForm((3, 3, 2, 2))
        row = _FormRow(f)
        with pytest.raises(TypeError):
            row[next(iter(row))] = 0
        assert row._numerators is laplace._block_expansion((2, 2, 3, 3))[0]

    def test_first_column_is_the_characteristic_monomial(self):
        # the triangular order of the rank proof sorts rows by it
        for f in _all_forms(5):
            row = _FormRow(f)
            if not row:
                with pytest.raises(ValueError):
                    characteristic_exponents(f)
                continue
            lead = next(iter(row))
            assert lead == characteristic_exponents(f), f
            # and no monomial of the form lies above it in row-block order
            assert max(_order_key(col, f.N) for col in row) == _order_key(lead, f.N), f


def _frozen_expand_rowblocks(form: CvForm):
    """The row-block expansion as written before the enumerator was shared:
    one RowBlock per term, each sign from ``permutation_sign``, then sorted."""
    sign0, reduced = form.remove_zeros()
    n = form.N
    if reduced is None:
        if sign0 == 0:
            return (), []
        order = sorted(range(n), key=lambda i: (form.entries[i], i))
        groups = tuple((i + 1,) for i in order)
        return groups, [RowBlock(((0,),) * n, groups, sign0)]
    sorted_form, perm, sort_sign = sort_entries(reduced)
    values, groups = decoding_table(sorted_form, perm)
    mults = tuple(map(len, groups))
    terms = []

    def rec(available, picked, powers, j):
        if j == len(values):
            terms.append(RowBlock(tuple(powers), groups, permutation_sign(picked) * sign0 * sort_sign))
            return
        a = values[j]
        legal = [c for c in available if c <= a + 1]
        for combo in itertools.combinations(legal, mults[j]):
            rest = [c for c in available if c not in combo]
            rec(rest, picked + list(combo), powers + [tuple(a - c + 1 for c in combo)], j + 1)

    rec(list(range(1, n + 1)), [], [], 0)
    terms.sort(key=lambda rb: laplace._order_key(rb.entries(), n), reverse=True)
    return groups, terms


def _frozen_integer_value(form: CvForm):
    """The integer kernel as written before it read the enumerator directly:
    signed arrangements of each row-block, summed, over the lcm of the
    row-blocks' ``prod p!``."""
    groups, terms = _frozen_expand_rowblocks(form)
    n = form.N
    denoms = [math.prod(math.factorial(p) for p in rb.entries()) for rb in terms]
    common = math.lcm(*denoms)
    acc = {}
    for rb, d in zip(terms, denoms):
        partial = [((), rb.total_sign * (common // d))]
        for powers in rb.blocks:
            table = [
                (tuple(powers[i] for i in sigma), permutation_sign(sigma))
                for sigma in itertools.permutations(range(len(powers)))
            ]
            partial = [(head + tail, c * s) for head, c in partial for tail, s in table]
        for key, c in partial:
            acc[key] = acc.get(key, 0) + c
    variables = [v for blk in groups for v in blk]
    out = {}
    for key, c in acc.items():
        if c:
            exps = [0] * n
            for v, p in zip(variables, key):
                exps[v - 1] = p
            out[tuple(exps)] = c
    return out, common


class TestRowBlockEnumerator:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_expansion_matches_the_frozen_walk(self, n):
        for entries in itertools.product(range(n), repeat=n):
            f = CvForm(entries)
            assert expand_rowblocks(f) == _frozen_expand_rowblocks(f), f

    def test_expansion_matches_the_frozen_walk_on_the_six_basis(self):
        for bf in generate_basis(6).forms:
            assert expand_rowblocks(bf.form) == _frozen_expand_rowblocks(bf.form), bf.form

    def test_terms_carry_the_factorial_denominator(self):
        # the walk of [2 2 3 3]: (powers, parity of the picked columns, prod p!)
        assert sorted(laplace._walk((2, 2, 3, 3))) == [
            (((1, 0), (3, 0)), 0, 6),
            (((2, 0), (2, 0)), 1, 4),
            (((2, 1), (1, 0)), 0, 2),
        ]

    def test_zero_and_constant_forms(self):
        assert expand_rowblocks(CvForm((0, 0, 3, 3))) == ((), [])
        # [2 0 1] is triangular up to the column order 2, 3, 1
        groups = ((2,), (3,), (1,))
        assert expand_rowblocks(CvForm((2, 0, 1))) == (groups, [RowBlock(((0,), (0,), (0,)), groups, 1)])


def _blocks_from_entries(entries, shape):
    out = []
    pos = 0
    for size in shape:
        out.append(tuple(entries[pos : pos + size]))
        pos += size
    return tuple(out)


class TestRowBlockOrder:
    # the order compares _order_key of the flattened entries, at any size above the largest entry
    def test_comparison_is_sign_of_difference(self):
        _, terms = expand_rowblocks(CvForm((2, 2, 4, 4, 5, 5)))
        keys = [_order_key(rb.entries(), 6) for rb in terms]
        for i, a in enumerate(keys):
            for j, b in enumerate(keys):
                expect = 0 if i == j else (1 if i < j else -1)
                assert (a > b) - (a < b) == expect

    def test_fewer_small_values_wins(self):
        a = RowBlock(((2, 1), (1, 0)), ((1, 2), (3, 4)), 1)
        b = RowBlock(((2, 0), (2, 0)), ((1, 2), (3, 4)), 1)
        # a has one zero, b has two: a is greater
        assert _order_key(a.entries(), 4) > _order_key(b.entries(), 4)

    def test_lex_tie_break(self):
        a = RowBlock(((3, 1), (2, 0)), ((1, 2), (3, 4)), 1)
        b = RowBlock(((3, 2), (1, 0)), ((1, 2), (3, 4)), 1)
        # same multiset of entries, compare flattened sequences
        assert _order_key(b.entries(), 4) > _order_key(a.entries(), 4)


class TestLeadingRowBlock:
    def test_golden(self):
        rb = leading_rowblock((2, 1, 1, 0))
        assert str(rb) == "+|2 1|1 0|"
        assert rb.var_partition == ((1, 2), (3, 4))

    def test_splits_between_equal_adjacent_entries(self):
        rb = leading_rowblock((2, 2, 1, 1, 1, 0))
        assert rb.blocks == ((2,), (2, 1), (1,), (1, 0))
        assert rb.var_partition == ((1,), (2, 3), (4,), (5, 6))
        assert rb.total_sign == 1

    def test_leading_is_maximum_exhaustive(self):
        # over all sorted regular zero-free forms at N <= 5
        for n in range(2, 6):
            for entries in itertools.combinations_with_replacement(range(1, n), n):
                f = CvForm(entries)
                if not f.is_regular():
                    continue
                _, terms = expand_rowblocks(f)
                if not terms:
                    continue
                lead = leading_rowblock(f.class_of())
                assert terms[0].blocks == lead.blocks
                assert all(
                    _order_key(lead.entries(), n) > _order_key(rb.entries(), n)
                    for rb in terms
                    if rb.blocks != lead.blocks
                )

    def test_leading_matches_six_variable_table(self):
        assert str(leading_rowblock((2, 2, 1, 1, 1, 0))) == "+|2|2 1|1|1 0|"


class TestDiagonalRowBlock:
    def test_matches_leading_for_sorted_regular(self):
        f = CvForm((2, 2, 3, 3))
        assert diagonal_rowblock(f).blocks == leading_rowblock(f.class_of()).blocks

    def test_vanishing_pick_rejected(self):
        with pytest.raises(ValueError):
            diagonal_rowblock(CvForm((0, 0, 2, 3)))

    def test_characteristic_monomial_is_type(self):
        # for sorted regular forms the diagonal exponents read off the type
        for entries in itertools.combinations_with_replacement(range(1, 4), 4):
            f = CvForm(entries)
            if not f.is_regular():
                continue
            _, terms = expand_rowblocks(f)
            if not terms:
                continue
            assert characteristic_monomial(diagonal_rowblock(f)) == f.type_of()

    def test_six_variable_example(self):
        f = CvForm((2, 2, 4, 4, 5, 5))
        assert characteristic_monomial(diagonal_rowblock(f)) == (2, 1, 2, 1, 1, 0)


def _outcome(route, form):
    try:
        return route(form)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _slow_characteristic(form):
    return characteristic_monomial(diagonal_rowblock(form))


class TestCharacteristicKernel:
    def test_exhaustive_against_the_row_block_path(self):
        raised = 0
        for n in range(1, 6):
            for entries in itertools.product(range(n), repeat=n):
                f = CvForm(entries)
                slow = _outcome(_slow_characteristic, f)
                assert _outcome(characteristic_exponents, f) == slow, f
                raised += isinstance(slow, str)
        assert raised > 0  # the raising branches were reached

    def test_seven_variable_basis(self):
        for bf in generate_basis(7).forms:
            assert characteristic_exponents(bf.form) == _slow_characteristic(bf.form)

    def test_the_kernel_reads_the_type_and_ranks_nothing(self):
        # one implementation of the type vector: CvForm.type_of ranks the entries
        names = _laplace_names(characteristic_exponents)
        assert {"remove_zeros", "type_of"} <= names
        assert not names & {"sorted", "sort", "enumerate", "standard_permutation"}
        tree = ast.parse(inspect.getsource(characteristic_exponents))
        assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension)) for node in ast.walk(tree))

    def test_ties_take_their_stable_rank(self):
        assert characteristic_exponents(CvForm((2, 2, 4, 4, 5, 5))) == (2, 1, 2, 1, 1, 0)
        assert characteristic_exponents(CvForm((3, 1, 1, 3))) == (1, 1, 0, 0)

    def test_reduced_and_constant_forms(self):
        # [0 1 3 3] reduces to [2 3 1 1]; an all-distinct form is a constant
        assert characteristic_exponents(CvForm((0, 1, 3, 3))) == (0, 0, 1, 0)
        assert characteristic_exponents(CvForm((1, 0, 2, 3))) == (0, 0, 0, 0)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((0, 0, 2, 3), "[0 0 2 3] is the zero form, it has no row-blocks"),
            # one zero, but zero removal turns [0 1 1 3] into [3 0 0 2]
            ((0, 1, 1, 3), "[0 1 1 3] is the zero form, it has no row-blocks"),
            ((1, 1, 1, 3), "[1 1 1 3] vanishes, the staircase pick is inadmissible"),
        ],
    )
    def test_raises_like_the_row_block_path(self, entries, message):
        for route in (characteristic_exponents, _slow_characteristic):
            with pytest.raises(ValueError) as info:
                route(CvForm(entries))
            assert str(info.value) == message


class TestLeibnizSupport:
    def test_characteristic_monomial_is_the_largest_of_the_support(self):
        # the monomials of [e] are the e - s with s a permutation, s <= e;
        # the row-block order maximum is the characteristic monomial
        nonvanishing = collections.Counter()
        for f in _all_forms(5):
            n, ent = f.N, f.entries
            support = [
                tuple(e - s for e, s in zip(ent, sigma))
                for sigma in itertools.permutations(range(n))
                if all(s <= e for s, e in zip(sigma, ent))
            ]
            if not support:
                with pytest.raises(ValueError):
                    characteristic_exponents(f)
                continue
            nonvanishing[n] += 1
            assert max(support, key=lambda a: _order_key(a, n)) == characteristic_exponents(f), f
        # (N+1)^(N-1) nonvanishing forms, the parking functions
        assert [nonvanishing[n] for n in range(1, 6)] == [1, 3, 16, 125, 1296]


def _chained_table(form: CvForm):
    """The validated chain that ``_sorted_order`` and ``_cut_at_runs``
    replace: a second form from ``sort_entries`` and every check of the
    frozen ``decoding_table``."""
    sign, reduced = form.remove_zeros()
    if reduced is None:
        return sign, None
    sorted_form, perm, sort_sign = sort_entries(reduced)
    return sign * sort_sign, decoding_table(sorted_form, perm)


class TestSortedTable:
    def test_one_pass_equals_the_validated_chain(self):
        signs = collections.Counter()
        for f in _all_forms(5):
            sign, key, order = laplace._sorted_order(f)
            chained_sign, table = _chained_table(f)
            assert sign == chained_sign and (key is None) == (table is None), f
            if table is not None:
                values, blocks = table
                # the sorted entries repeat each distinct value once per variable of its block
                assert key == tuple(v for v, blk in zip(values, blocks) for _ in blk), f
                assert laplace._cut_at_runs(key, [i + 1 for i in order]) == blocks, f
            signs[sign, table is None] += 1
        # both signs with a table, both scalars and the zero form
        assert set(signs) == {(1, False), (-1, False), (1, True), (-1, True), (0, True)}

    def test_one_sign_table_per_block_size(self):
        for m in range(1, 8):
            table = laplace._signed_permutations(m)
            assert [sigma for sigma, _ in table] == list(itertools.permutations(range(m)))
            for sigma, sign in table:
                assert sign == permutation_sign(sigma), sigma

