"""Acceptance checks, one test per criterion.

Each test prints a single ``[criterion NN] name: PASS/FAIL (t)`` line
(run pytest with ``-s`` to see them on success) and enforces the stated
runtime budget.  All comparisons are exact; nothing is sampled except
the seeded oracle draws of criterion 4.
"""

import itertools
import math
import random
import time

from cvforms.basis import generate_basis, q_factorial, verify_harmonicity, verify_independence
from cvforms.cvform import CvForm
from cvforms.laplace import derivative_oracle, evaluate, expand_rowblocks, naive_oracle
from cvforms.poly import Polynomial
from cvforms.ribbon import (
    backward_order,
    class_to_ribbon,
    enumerate_ribbons,
    enumerate_tableaux,
    flip,
    ribbon_generating_function,
    ribbon_index,
    ribbons_of_degree,
    tableau_from_cvform,
    tableau_to_cvform,
    tableau_to_type,
    to_skew_partition,
)
from skew_count import count_syt


def report(num: int, name: str, ok: bool, started: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - started
    in_budget = budget is None or elapsed < budget
    verdict = "PASS" if ok and in_budget else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} failed its checks"
    assert in_budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_mahonian_table():
    t0 = time.perf_counter()
    ok = q_factorial(4) == [1, 3, 5, 6, 5, 3, 1]
    eight = q_factorial(8)
    ok = ok and eight[16] == 3450 and eight[12] == 3450
    report(1, "mahonian-table", ok, t0, 1.0)


def test_criterion_02_class_decomposition():
    t0 = time.perf_counter()
    d16 = ribbons_of_degree(8, 16)
    ok = [r.class_entries() for r in d16] == [
        (5, 4, 3, 2, 1, 1, 0, 0),
        (4, 4, 3, 2, 2, 1, 0, 0),
        (4, 4, 3, 2, 1, 1, 1, 0),
        (4, 3, 3, 3, 2, 1, 0, 0),
        (4, 3, 3, 2, 2, 1, 1, 0),
        (4, 3, 2, 2, 2, 2, 1, 0),
        (3, 3, 3, 3, 2, 1, 1, 0),
        (3, 3, 3, 2, 2, 2, 1, 0),
    ]
    counts = tuple(count_syt(to_skew_partition(r)) for r in d16)
    ok = ok and counts == (105, 589, 315, 315, 1385, 181, 245, 315)
    ok = ok and sum(counts) == 3450
    d12 = ribbons_of_degree(8, 12)
    ok = ok and [r.class_entries() for r in d12] == [
        (4, 3, 2, 2, 1, 0, 0, 0),
        (4, 3, 2, 1, 1, 1, 0, 0),
        (3, 3, 3, 2, 1, 0, 0, 0),
        (3, 3, 2, 2, 1, 1, 0, 0),
        (3, 3, 2, 1, 1, 1, 1, 0),
        (3, 2, 2, 2, 2, 1, 0, 0),
        (3, 2, 2, 2, 1, 1, 1, 0),
        (2, 2, 2, 2, 2, 1, 1, 0),
    ]
    report(2, "class-decomposition", ok, t0, 5.0)


def test_criterion_03_worked_evaluations():
    t0 = time.perf_counter()
    ok = evaluate(CvForm((0, 1, 3, 3))).canonical_text() == "t3 - t4"
    ok = ok and (
        evaluate(CvForm((3, 2, 2, 1))).canonical_text()
        == "1/2*t2^2 - t2*t4 - 1/2*t3^2 + t3*t4"
    )
    _, terms = expand_rowblocks(CvForm((2, 2, 4, 4, 5, 5)))
    ok = ok and [str(t) for t in terms] == [
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
    report(3, "worked-evaluations", ok, t0, None)


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for entries in itertools.product(range(4), repeat=4):
        f = CvForm(entries)
        ok = ok and evaluate(f) == naive_oracle(f) == derivative_oracle(f)
    rng = random.Random(1729)
    for n in (5, 6):
        for _ in range(200):
            f = CvForm(tuple(rng.randrange(n) for _ in range(n)))
            ok = ok and evaluate(f) == naive_oracle(f) == derivative_oracle(f)
    report(4, "oracle-equivalence", ok, t0, 60.0)


def test_criterion_05_syzygies():
    t0 = time.perf_counter()

    def sum_of(entry_lists):
        acc = Polynomial(4)
        for e in entry_lists:
            acc = acc + evaluate(CvForm(e))
        return acc

    nabla_top = sum_of([(2, 3, 3, 3), (3, 2, 3, 3), (3, 3, 2, 3), (3, 3, 3, 2)])
    four_term = sum_of([(1, 3, 3, 3), (3, 1, 3, 3), (3, 3, 1, 3), (3, 3, 3, 1)])
    six_term = sum_of(
        [(2, 2, 3, 3), (2, 3, 2, 3), (2, 3, 3, 2), (3, 2, 2, 3), (3, 2, 3, 2), (3, 3, 2, 2)]
    )
    ok = not (nabla_top or four_term or six_term)
    report(5, "syzygies", ok, t0, 1.0)


def test_criterion_06_basis_correctness():
    t0 = time.perf_counter()
    six = {bf.form for bf in generate_basis(4, 3).forms}
    ok = six == {
        CvForm((3, 2, 2, 2)),
        CvForm((2, 3, 2, 2)),
        CvForm((2, 2, 3, 2)),
        CvForm((3, 3, 2, 1)),
        CvForm((3, 2, 3, 1)),
        CvForm((3, 2, 1, 3)),
    }
    five = generate_basis(4, 4).forms
    ok = ok and len(five) == 5
    ok = ok and len({bf.form.type_of() for bf in five}) == 5
    for n in range(1, 7):
        forms = [bf.form for bf in generate_basis(n).forms]
        ok = ok and len(forms) == math.factorial(n) == len(set(forms))
        census = [0] * (n * (n - 1) // 2 + 1)
        for f in forms:
            census[f.degree()] += 1
        ok = ok and census == q_factorial(n)
    report(6, "basis-correctness", ok, t0, 30.0)


def test_criterion_07_independence():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 6):
        rank, independent = verify_independence(generate_basis(n))
        ok = ok and independent and rank == math.factorial(n)
        for d, expect in enumerate(q_factorial(n)):
            slice_rank, slice_ok = verify_independence(generate_basis(n, d))
            ok = ok and slice_ok and slice_rank == expect
    small_elapsed = time.perf_counter() - t0
    ok = ok and small_elapsed < 30.0
    rank6, independent6 = verify_independence(generate_basis(6))
    ok = ok and independent6 and rank6 == 720
    report(7, "independence", ok, t0, 600.0)


def test_criterion_08_harmonicity():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 6):
        for bf in generate_basis(n).forms:
            rep = verify_harmonicity(bf.form)
            ok = ok and rep["ok"]
            ok = ok and all(
                c["polynomial_route"] and c["lowered_forms_route"] for c in rep["checks"]
            )
    report(8, "harmonicity", ok, t0, 120.0)


def test_criterion_09_flip_golden_pair():
    t0 = time.perf_counter()
    from cvforms.ribbon import SkewTableau

    t = SkewTableau(class_to_ribbon((4, 4, 3, 2, 1, 1, 1, 0)), (4, 8, 5, 3, 1, 2, 7, 6))
    form = tableau_to_cvform(t)
    ok = form == CvForm((5, 7, 7, 5, 4, 5, 6, 5))
    ok = ok and tableau_to_type(t) == (4, 1, 0, 3, 4, 2, 1, 1)
    flipped = tableau_to_cvform(flip(t))
    ok = ok and flipped == CvForm((6, 6, 5, 3, 4, 7, 6, 3))
    ok = ok and form.degree() == 16 and flipped.degree() == 12
    ok = ok and form.degree() + flipped.degree() == 28
    ok = ok and tableau_from_cvform(form) == t
    report(9, "flip-golden-pair", ok, t0, None)


def test_criterion_10_counting_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        ribbons = list(enumerate_ribbons(n))
        ok = ok and len(ribbons) == 2 ** (n - 1)
        total = sum(count_syt(to_skew_partition(r)) for r in ribbons)
        ok = ok and total == math.factorial(n)
        for r in ribbons:
            l = r.height - 1
            d = ribbon_index(r)
            low = l * (l + 1) // 2
            ok = ok and low <= d <= low + l * (n - l - 1)
    rows = ribbon_generating_function(8)
    q16 = {l: row[16] for l, row in enumerate(rows) if len(row) > 16 and row[16]}
    q12 = {l: row[12] for l, row in enumerate(rows) if len(row) > 12 and row[12]}
    ok = ok and q16 == {5: 1, 4: 5, 3: 2}
    ok = ok and q12 == {4: 2, 3: 5, 2: 1}
    report(10, "counting-identities", ok, t0, 30.0)


def test_criterion_11_characteristic_uniqueness():
    t0 = time.perf_counter()
    from cvforms.laplace import diagonal_rowblock
    from rowblock_slow_path import characteristic_monomial

    ok = True
    for n in range(1, 8):
        basis = generate_basis(n)
        seen = {characteristic_monomial(diagonal_rowblock(bf.form)) for bf in basis.forms}
        ok = ok and len(seen) == math.factorial(n)
    report(11, "characteristic-uniqueness", ok, t0, 30.0)


def test_criterion_12_any_reading_order():
    t0 = time.perf_counter()
    ok = True
    for order in itertools.permutations(range(1, 5)):
        basis = generate_basis(4, None, order)
        rank, independent = verify_independence(basis)
        ok = ok and independent and rank == 24
    report(12, "any-reading-order", ok, t0, 120.0)
