"""Command line behavior: golden text, JSON schemas, exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cvforms import basis, cli, laplace
from cvforms.cvform import CvForm
from cvforms.poly import Polynomial
from cvforms.ribbon import class_to_ribbon, count_tableaux, enumerate_ribbons


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_linear_difference(self, capsys):
        code, out, _ = run(["eval", "[0 1 3 3]"], capsys)
        assert code == 0
        assert out == "t3 - t4\n"

    def test_quadratic_value(self, capsys):
        code, out, _ = run(["eval", "[3 2 2 1]"], capsys)
        assert code == 0
        assert out == "1/2*t2^2 - t2*t4 - 1/2*t3^2 + t3*t4\n"

    def test_trace(self, capsys):
        code, out, _ = run(["eval", "[2 2 3 3]", "--trace"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("1/2*t1^2*t2*t3")
        assert "# +|2 1|1 0|  =  + s[1 1](1)/(2!1!) * s[0](2)/(1!0!)" in lines
        assert "# -|2 0|2 0|  =  - s[1](1)/(2!0!) * s[1](2)/(2!0!)" in lines
        assert "# +|1 0|3 0|  =  + s[0](1)/(1!0!) * s[2](2)/(3!0!)" in lines

    def test_json(self, capsys):
        code, out, _ = run(["eval", "[0 1 3 3]", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "cvforms.eval/1"
        assert data["degree"] == 1
        assert len(data["polynomial"]["terms"]) == 2

    def test_monomial_count(self, capsys):
        code, out, _ = run(["eval", "[2 2 4 4 5 5]", "--format", "json"], capsys)
        assert code == 0
        assert len(json.loads(out)["polynomial"]["terms"]) == 72

    def test_bad_form_exits_two(self, capsys):
        code, out, err = run(["eval", "[9 9]"], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err


EXPECTED_EXPAND = """\
+|2 1|2 1|1 0|
-|2 1|2 0|2 0|
+|2 1|1 0|3 0|
-|2 0|3 1|1 0|
+|1 0|4 1|1 0|
+|2 0|3 0|2 0|
-|2 0|1 0|4 0|
-|1 0|4 0|2 0|
+|1 0|1 0|5 0|
"""


class TestExpand:
    def test_full_golden(self, capsys):
        code, out, _ = run(["expand", "[2 2 4 4 5 5]"], capsys)
        assert code == 0
        assert out == EXPECTED_EXPAND
        assert len(out.splitlines()) == 9

    def test_json(self, capsys):
        code, out, _ = run(["expand", "[2 2 3 3]", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["schema"] == "cvforms.expand/1"
        assert data["vandermonde_blocks"] == [[1, 2], [3, 4]]
        assert [t["sign"] for t in data["terms"]] == [1, -1, 1]

    def test_zero_and_scalar_form_json(self, capsys):
        # the zero form has no groups and no terms; all-distinct entries give
        # one |0|0|0| term on singleton groups in sorted entry order
        scalar_groups = [[2], [3], [1]]
        scalar_term = {"sign": 1, "blocks": [[0], [0], [0]], "var_partition": scalar_groups}
        for form, nvars, groups, terms, text in [
            ("[0 0 3 3]", 4, [], [], ""),
            ("[2 0 1]", 3, scalar_groups, [scalar_term], "+|0|0|0|\n"),
        ]:
            code, out, _ = run(["expand", form, "--format", "json"], capsys)
            assert code == 0
            assert json.loads(out) == {
                "schema": "cvforms.expand/1",
                "form": form,
                "nvars": nvars,
                "vandermonde_blocks": groups,
                "terms": terms,
            }
            assert run(["expand", form], capsys) == (0, text, "")


class TestTypeAndClass:
    def test_type(self, capsys):
        code, out, _ = run(["type", "[5 7 7 5 4 5 6 5]"], capsys)
        assert code == 0
        assert out == "(4 1 0 3 4 2 1 1)\n"

    def test_class(self, capsys):
        code, out, _ = run(["class", "[5 7 7 5 4 5 6 5]"], capsys)
        assert code == 0
        assert out == "(4 4 3 2 1 1 1 0)\n"

    def test_irregular_has_no_class(self, capsys):
        code, _, err = run(["class", "[0 1 3 3]"], capsys)
        assert code == 2
        assert "not regular" in err


class TestRibbon:
    def test_single_class(self, capsys):
        code, out, _ = run(["ribbon", "[4 4 3 2 1 1 1 0]"], capsys)
        assert code == 0
        assert out == (
            "class=(4 4 3 2 1 1 1 0) index=16 height=5 "
            "shape=(44222)/(3111) tableaux=315\n"
        )

    def test_degree_listing(self, capsys):
        code, out, _ = run(["ribbon", "8", "--degree", "16"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("class=(5 4 3 2 1 1 0 0)")

    def test_diagram(self, capsys):
        code, out, _ = run(["ribbon", "[2 1 0 0]", "--diagram"], capsys)
        assert code == 0
        assert ". . #" in out

    def test_degree_with_class_rejected(self, capsys):
        code, _, err = run(["ribbon", "[2 1 0 0]", "--degree", "3"], capsys)
        assert code == 2
        assert "error:" in err

    def test_json(self, capsys):
        code, out, _ = run(["ribbon", "4", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["schema"] == "cvforms.ribbon/1"
        assert len(data["ribbons"]) == 8


class TestTableaux:
    def test_listing(self, capsys):
        code, out, _ = run(["tableaux", "[2 1 0 0]"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "filling=(3 2 1 4) form=[3 2 2 2]",
            "filling=(4 2 1 3) form=[2 3 2 2]",
            "filling=(4 3 1 2) form=[2 2 3 2]",
        ]

    def test_json(self, capsys):
        code, out, _ = run(["tableaux", "[2 1 0 0]", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["schema"] == "cvforms.tableaux/1"
        assert data["count"] == 3


class TestBasis:
    def test_degree_slice(self, capsys):
        code, out, _ = run(["basis", "4", "--degree", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=4 degree=3 order=backward forms=6"
        assert lines[1] == "[3 2 2 2] filling=(3 2 1 4) type=(0 2 1 0) class=(2 1 0 0)"
        assert len(lines) == 7

    def test_count_only(self, capsys):
        code, out, _ = run(["basis", "8", "--degree", "16", "--count-only"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "total=3450"
        assert len(lines) == 9

    def test_custom_order_drops_type_columns(self, capsys):
        code, out, _ = run(["basis", "3", "--order", "1,2,3"], capsys)
        assert code == 0
        assert "type=" not in out

    def test_json(self, capsys):
        code, out, _ = run(["basis", "4", "--degree", "4", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["schema"] == "cvforms.basis/1"
        assert len(data["forms"]) == 5
        assert all("class" in f for f in data["forms"])

    def test_json_at_one_box_is_pinned(self, capsys):
        # the one-value reading yields a 1-tuple of entries, not a bare int
        form = {"entries": [0], "degree": 0, "tableau": {"boxes": [[0, 0]], "filling": [1]}, "type": [0], "class": [0]}
        record = {"schema": "cvforms.basis/1", "n": 1, "degree": None, "reading_order": [1], "forms": [form]}
        assert run(["basis", "1", "--format", "json"], capsys) == (0, json.dumps(record, indent=2) + "\n", "")


class TestCount:
    def test_mahonian(self, capsys):
        code, out, _ = run(["count", "4", "mahonian"], capsys)
        assert code == 0
        assert out == "1 3 5 6 5 3 1\n"

    def test_ribbons(self, capsys):
        code, out, _ = run(["count", "3", "ribbons"], capsys)
        assert code == 0
        assert out == "4\n"

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ribbons_equal_the_enumeration(self, n, capsys):
        code, out, _ = run(["count", str(n), "ribbons"], capsys)
        assert code == 0
        assert out == f"{len(list(enumerate_ribbons(n)))}\n"

    def test_ribbons_need_no_enumeration(self, capsys):
        # 2^59 ribbons could never be built one by one
        code, out, _ = run(["count", "60", "ribbons"], capsys)
        assert code == 0
        assert out == f"{2 ** 59}\n"

    def test_gf_at(self, capsys):
        code, out, _ = run(["count", "8", "gf", "--at", "q^16"], capsys)
        assert code == 0
        assert out == "t^5 + 5t^4 + 2t^3\n"

    def test_gf_at_twelve(self, capsys):
        code, out, _ = run(["count", "8", "gf", "--at", "12"], capsys)
        assert code == 0
        assert out == "2t^4 + 5t^3 + t^2\n"

    def test_gf_listing(self, capsys):
        code, out, _ = run(["count", "4", "gf"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "q^0: 1",
            "q^1: t",
            "q^2: t",
            "q^3: t^2 + t",
            "q^4: t^2",
            "q^5: t^2",
            "q^6: t^3",
        ]

    def test_json(self, capsys):
        code, out, _ = run(["count", "4", "mahonian", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["schema"] == "cvforms.count/1"
        assert data["mahonian"] == [1, 3, 5, 6, 5, 3, 1]

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("what", ["gf", "ribbons"])
    def test_no_boxes_exits_two(self, n, what, capsys):
        code, out, err = run(["count", n, what], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: need at least one box\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [["count", "4", "mahonian", "--at", "q^2"], ["count", "4", "ribbons", "--at", "3"]])
    def test_at_outside_gf_exits_two_before_any_work(self, argv, fmt, capsys, monkeypatch):
        called = []
        monkeypatch.setattr(cli, "q_factorial", called.append)
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert (code, out, called) == (2, "", [])
        assert err == "error: --at applies to the gf table only\n"

    def test_at_on_gf_reads_one_degree(self, capsys):
        assert run(["count", "4", "gf", "--at", "q^2"], capsys) == (0, "t\n", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("at", ["q^x", "x", "q^1.5", "q^"])
    def test_non_integer_at_names_the_flag(self, at, fmt, capsys):
        code, out, err = run(["count", "5", "gf", "--at", at, "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --at takes q^d or d for an integer degree d, got {at!r}\n"

    @pytest.mark.parametrize("at", ["q^100", "q^-1", "-3"])
    def test_at_outside_the_degrees_reads_zero(self, at, capsys):
        assert run(["count", "5", "gf", "--at", at], capsys) == (0, "0\n", "")


class TestVerify:
    def test_oracle_small(self, capsys):
        code, out, _ = run(["verify", "3", "oracle"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "result: PASS"

    def test_rank(self, capsys):
        code, out, _ = run(["verify", "4", "rank"], capsys)
        assert code == 0
        assert "rank: 24" in out

    def test_leading_only_flag_is_gone(self, capsys):
        code, out, err = run(["verify", "4", "rank", "--leading-only"], capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --leading-only" in err

    @pytest.mark.parametrize("suite", ["oracle", "harmonic", "flip", "chars", "orders"])
    def test_degree_outside_rank_suite_exits_two(self, suite, capsys):
        code, out, err = run(["verify", "2", suite, "--degree", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --degree applies to the rank suite only\n"

    def test_rank_degree_slice(self, capsys):
        code, out, _ = run(["verify", "4", "rank", "--degree", "3"], capsys)
        assert code == 0
        assert out.splitlines()[:3] == ["suite: rank n=4 degree=3 (full expansion)", "forms: 6", "rank: 6"]

    def test_harmonic(self, capsys):
        code, out, _ = run(["verify", "3", "harmonic"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "suite: harmonic n=3 kmax=2",
            "forms checked: 6",
            "failures: 0",
            "result: PASS",
        ]

    def test_harmonic_broken_kernel_names_a_witness(self, capsys, monkeypatch):
        real = basis._expand_multiset

        def flipped(entries):
            # the representative [1 2 2] of the multiset {1, 2, 2} is
            # t1*t2 - t1*t3 - 1/2*t2^2 + 1/2*t3^2; flip its t2^2 coefficient
            numerators, denom = real(entries)
            if entries == (1, 2, 2):
                numerators = {**numerators, (0, 2, 0): -numerators[(0, 2, 0)]}
            return numerators, denom

        monkeypatch.setattr(basis, "_expand_multiset", flipped)
        code, out, err = run(["verify", "3", "harmonic"], capsys)
        assert code == 1
        # renamed, the flip adds t1^2 to the value of [2 2 1] (sign +1), -t1^2
        # to [2 1 2] (sign -1) and t2^2 to [1 2 2]: route one sees 2*t1 and
        # -2*t1 on the two basis forms of the multiset, and route two the
        # sum t2^2 on [2 2 2], whose lowered forms at k=1 are those three
        witnesses = [
            "failure: [2 2 2] k=1 lowered_forms_route first nonzero at t2^2",
            "failure: [2 2 1] k=1 polynomial_route first nonzero at t1",
            "failure: [2 1 2] k=1 polynomial_route first nonzero at t1",
        ]
        assert out.splitlines()[-5:] == ["failures: 3", *witnesses, "result: FAIL"]
        assert err == ""
        args = cli.build_parser().parse_args(["verify", "3", "harmonic"])
        assert cli.cmd_verify(args)["_listing"] == witnesses

    def test_harmonic_broken_lowering_names_a_witness(self, capsys, monkeypatch):
        real = basis._lowered_forms
        monkeypatch.setattr(basis, "_lowered_forms", lambda form, k: real(form, k)[:-1])
        code, out, err = run(["verify", "3", "harmonic", "--kmax", "1"], capsys)
        assert code == 1
        # route two sums the lowered forms of the sorted entries, so the plant
        # drops the last one of each representative: [2 2 2] keeps [1 2 2] +
        # [2 1 2] = 1/2*t1^2 - t1*t3 - 1/2*t2^2 + t2*t3, and [1 2 2] keeps
        # [0 2 2] + [1 1 2] = t1 - t3, which [2 2 1] reads as t3 - t2 and
        # [2 1 2] as t2 - t3; [1 1 2] keeps [0 1 2] + [1 0 2] = 0 and loses
        # the zero form [1 1 1], so [2 1 1] and [1 2 1] pass, as does [2 1 0]
        assert out.splitlines() == [
            "suite: harmonic n=3 kmax=1",
            "forms checked: 6",
            "failures: 3",
            "failure: [2 2 2] k=1 lowered_forms_route first nonzero at t1^2",
            "failure: [2 2 1] k=1 lowered_forms_route first nonzero at t2",
            "failure: [2 1 2] k=1 lowered_forms_route first nonzero at t2",
            "result: FAIL",
        ]
        assert err == ""

    def test_flip_suite(self, capsys):
        code, out, _ = run(["verify", "4", "flip"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "suite: flip n=4",
            "tableaux: 24",
            "involution holds: 24",
            "degree complements to 6: 24",
            "flipped form in basis: 24",
            "shape never fixed: 24",
            "result: PASS",
        ]

    def test_flip_suite_one_box(self, capsys):
        # the one-box ribbon has no step to swap, so flip fixes its shape
        code, out, _ = run(["verify", "1", "flip"], capsys)
        assert code == 0
        assert out.splitlines()[-2:] == ["shape never fixed: 0", "result: PASS"]
        code, out, _ = run(["verify", "1", "flip", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["checks"]["moved"] == 0
        assert data["ok"] is True

    @pytest.mark.parametrize("suite", ["oracle", "rank", "harmonic", "flip", "chars", "orders"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_boxes_exits_two(self, n, suite, capsys):
        code, out, err = run(["verify", n, suite], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: need at least one box\n"

    def test_chars(self, capsys):
        code, out, _ = run(["verify", "5", "chars"], capsys)
        assert code == 0
        assert "result: PASS" in out

    def test_failure_exits_one(self, capsys, monkeypatch):
        # a certificate one short on every slice: the first slice is named
        monkeypatch.setattr(basis, "_certified_rank", lambda rows: len(list(rows)) - 1)
        code, out, err = run(["verify", "3", "rank"], capsys)
        assert code == 1
        assert out.splitlines()[-2:] == ["rank: 2", "result: FAIL"]
        assert err == "witness: degree 0 rank 0 of 1 forms\n"

    @pytest.mark.parametrize(
        "n, padded, witness",
        [
            (4, False, "witness: degree 5 rank 3 of 4 forms"),
            (3, True, "witness: degree 1 rank 2 of 3 forms, [2 1 1] is repeated"),
        ],
    )
    def test_rank_failure_names_the_first_deficient_slice(self, n, padded, witness, capsys, monkeypatch):
        if padded:
            full = basis.generate_basis(3)
            forms = full.forms + (full.forms[3],)
        else:
            # the degree-five syzygy makes these four forms dependent
            entries = [(2, 3, 3, 3), (3, 2, 3, 3), (3, 3, 2, 3), (3, 3, 3, 2)]
            forms = tuple(basis.BasisForm(CvForm(e), None) for e in entries)
        bad = basis.Basis(n, None, tuple(range(n, 0, -1)), forms)
        monkeypatch.setattr(basis, "generate_basis", lambda n, degree=None: bad)
        code, out, err = run(["verify", str(n), "rank"], capsys)
        assert code == 1
        assert out.splitlines()[1:] == [f"forms: {len(forms)}", f"rank: {len(forms) - 1}", "result: FAIL"]
        assert err == witness + "\n"
        code, out, err = run(["verify", str(n), "rank", "--format", "json"], capsys)
        assert code == 1
        assert json.loads(out)["checks"] == {"forms": len(forms), "rank": len(forms) - 1, "mode": "full expansion"}
        assert json.loads(out)["ok"] is False
        assert err == witness + "\n"

    def test_json_report(self, capsys):
        code, out, _ = run(["verify", "3", "rank", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["schema"] == "cvforms.verify/1"
        assert data["ok"] is True
        assert data["checks"]["rank"] == 6

    def test_oracle_sampled(self, capsys):
        code, out, _ = run(["verify", "5", "oracle", "--samples", "6"], capsys)
        assert code == 0
        assert "forms checked: 6" in out

    def test_jobs_flag_is_gone(self, capsys):
        code, out, err = run(["verify", "5", "harmonic", "--jobs", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_exits_two(self, jobs, capsys):
        code, out, err = run(["verify", "3", "oracle", "--jobs", jobs], capsys)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --jobs {jobs}" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_two(self, samples, capsys):
        code, out, err = run(["verify", "5", "oracle", "--samples", samples], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --samples must be at least 1, got {samples}\n"

    def test_oracle_mismatch_names_a_witness(self, capsys, monkeypatch):
        real = basis.naive_oracle

        def wrong(form):
            value = real(form)
            if form.entries != (1, 2, 2):
                return value
            # twice the value, built directly
            numerators, denom = value.numerators()
            return Polynomial(form.N, {e: 2 * c for e, c in numerators.items()}, denom)

        monkeypatch.setattr(basis, "naive_oracle", wrong)
        code, out, err = run(["verify", "3", "oracle"], capsys)
        assert code == 1
        assert out.splitlines()[-3:] == ["mismatches: 1", "mismatch: [1 2 2]", "result: FAIL"]
        # [1 2 2] is t1*t2 - t1*t3 - 1/2*t2^2 + 1/2*t3^2, t1*t2 first in canonical order
        assert err == (
            "witness: [1 2 2] first differs at t1*t2: "
            "evaluate 1, naive_oracle 2, derivative_oracle 1\n"
            "nonzero forms: 16 of 27\n"
        )
        # the record carries the witness; cmd_verify itself writes nothing
        record = cli.cmd_verify(cli.build_parser().parse_args(["verify", "3", "oracle"]))
        assert capsys.readouterr() == ("", "")
        assert record["_stderr"] == err.splitlines()
        assert record["_listing"] == ["mismatch: [1 2 2]"]

    def test_stored_zero_coefficient_is_no_mismatch(self, capsys, monkeypatch):
        # an oracle value with a stored zero numerator compares unequal by
        # its key set, yet no monomial differs: the values agree
        real = basis.derivative_oracle

        def padded(form):
            value = real(form)
            numerators = dict(value._numerators)
            numerators[(0,) * form.N] = numerators.get((0,) * form.N, 0)
            return Polynomial(form.N, numerators, value._denom)

        monkeypatch.setattr(basis, "derivative_oracle", padded)
        code, out, err = run(["verify", "3", "oracle"], capsys)
        assert code == 0
        assert out.splitlines()[-2:] == ["mismatches: 0", "result: PASS"]
        assert err == "nonzero forms: 16 of 27\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "3", "oracle"], "nonzero forms: 16 of 27\n"),
            (["verify", "6", "oracle", "--samples", "1000", "--seed", "1"], "nonzero forms: 366 of 1000\n"),
            (["verify", "3", "oracle", "--format", "json"], "nonzero forms: 16 of 27\n"),
        ],
    )
    def test_oracle_counts_nonzero_forms_on_stderr(self, argv, line, capsys):
        # a vanishing form agrees with both oracles trivially; stdout keeps counting every form
        code, out, err = run(argv, capsys)
        assert code == 0
        assert err == line
        assert "nonzero" not in out

    def test_chars_collision_names_a_witness(self, capsys, monkeypatch):
        real = basis.characteristic_exponents

        def colliding(form):
            # [2 1 2] borrows the monomial of [2 2 1], which comes first
            return real(CvForm((2, 2, 1)) if form.entries == (2, 1, 2) else form)

        monkeypatch.setattr(basis, "characteristic_exponents", colliding)
        real_collision, calls = basis.characteristic_collision, []
        monkeypatch.setattr(basis, "characteristic_collision", lambda b: calls.append(b) or real_collision(b))
        code, out, err = run(["verify", "3", "chars"], capsys)
        # the streamed pass gives the verdict; one search of the basis names the witness
        assert code == 1 and len(calls) == 1
        assert out.splitlines() == [
            "suite: chars n=3",
            "forms: 6",
            "characteristic monomials pairwise distinct: False",
            "result: FAIL",
        ]
        assert err == "witness: [2 2 1] and [2 1 2] share the characteristic monomial t1*t3\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_chars_witness_is_in_basis_order(self, fmt, capsys, monkeypatch):
        # [3 3 2 1] fills (1 2 4 3), second in lexicographic order, but comes
        # after [3 3 3 2], which fills (1 4 3 2), in basis (ribbon) order
        real = basis.characteristic_exponents

        def colliding(form):
            return real(CvForm((3, 3, 3, 2)) if form.entries == (3, 3, 2, 1) else form)

        monkeypatch.setattr(basis, "characteristic_exponents", colliding)
        a, b, _ = basis.characteristic_collision(basis.generate_basis(4))
        assert (str(a), str(b)) == ("[3 3 3 2]", "[3 3 2 1]")
        code, out, err = run(["verify", "4", "chars", "--format", fmt], capsys)
        assert code == 1
        if fmt == "text":
            distinct = "characteristic monomials pairwise distinct: False"
            assert out == "\n".join(["suite: chars n=4", "forms: 24", distinct, "result: FAIL"]) + "\n"
        else:
            checks = {"forms": 24, "distinct": False}
            record = {"schema": "cvforms.verify/1", "suite": "chars", "n": 4, "checks": checks, "ok": False}
            assert out == json.dumps(record, indent=2) + "\n"
        assert err == f"witness: {a} and {b} share the characteristic monomial t1^2*t2*t4^2\n"

    def test_chars_pass_writes_no_witness(self, capsys):
        code, _, err = run(["verify", "4", "chars"], capsys)
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("n", [1, 2])
    def test_chars_at_one_and_two_boxes_is_pinned(self, n, capsys):
        # one permutation, and an empty fall word: the edges of the reader
        lines = [f"suite: chars n={n}", f"forms: {n}", "characteristic monomials pairwise distinct: True", "result: PASS"]
        assert run(["verify", str(n), "chars"], capsys) == (0, "\n".join(lines) + "\n", "")

    @pytest.mark.parametrize(
        "suite, lines, checks, err",
        [
            (
                "oracle",
                ["suite: oracle n=3 (exhaustive 3^3)", "forms checked: 27", "mismatches: 0"],
                {"forms": 27, "mismatches": 0, "source": "exhaustive 3^3"},
                "nonzero forms: 16 of 27\n",
            ),
            (
                "flip",
                [
                    "suite: flip n=3",
                    "tableaux: 6",
                    "involution holds: 6",
                    "degree complements to 3: 6",
                    "flipped form in basis: 6",
                    "shape never fixed: 6",
                ],
                {"tableaux": 6, "involution": 6, "complement": 6, "member": 6, "moved": 6},
                "",
            ),
            (
                "chars",
                ["suite: chars n=3", "forms: 6", "characteristic monomials pairwise distinct: True"],
                {"forms": 6, "distinct": True},
                "",
            ),
            (
                "rank",
                ["suite: rank n=3 degree=all (full expansion)", "forms: 6", "rank: 6"],
                {"forms": 6, "rank": 6, "mode": "full expansion"},
                "",
            ),
        ],
    )
    def test_suite_output_is_pinned(self, suite, lines, checks, err, capsys):
        assert run(["verify", "3", suite], capsys) == (0, "\n".join([*lines, "result: PASS"]) + "\n", err)
        record = {"schema": "cvforms.verify/1", "suite": suite, "n": 3, "checks": checks, "ok": True}
        expected = json.dumps(record, indent=2) + "\n"
        assert run(["verify", "3", suite, "--format", "json"], capsys) == (0, expected, err)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("suite", ["oracle", "rank", "harmonic", "flip", "chars", "orders"])
    def test_only_main_writes(self, suite, fmt, capsys, monkeypatch):
        # every form gets one characteristic monomial, so the chars suite has a witness line too
        real = basis.characteristic_exponents
        monkeypatch.setattr(basis, "characteristic_exponents", lambda form: real(CvForm((2, 2, 1))))
        argv = ["verify", "3", suite, "--format", fmt]
        record = cli.cmd_verify(cli.build_parser().parse_args(argv))
        assert capsys.readouterr() == ("", "")
        assert bool(record["_stderr"]) == (suite in ("oracle", "chars"))
        assert run(argv, capsys)[2] == "".join(line + "\n" for line in record["_stderr"])

    def test_orders_text(self, capsys):
        code, out, err = run(["verify", "3", "orders"], capsys)
        assert code == 0
        assert out == (
            "suite: orders n=3\n"
            "reading orders: 6\n"
            "order=(1 2 3) forms=6 rank=6\n"
            "order=(1 3 2) forms=6 rank=6\n"
            "order=(2 1 3) forms=6 rank=6\n"
            "order=(2 3 1) forms=6 rank=6\n"
            "order=(3 1 2) forms=6 rank=6\n"
            "order=(3 2 1) forms=6 rank=6\n"
            "result: PASS\n"
        )
        assert err == ""

    def test_orders_json(self, capsys):
        code, out, err = run(["verify", "2", "orders", "--format", "json"], capsys)
        assert code == 0
        assert out == (
            "{\n"
            '  "schema": "cvforms.verify/1",\n'
            '  "suite": "orders",\n'
            '  "n": 2,\n'
            '  "checks": {\n'
            '    "orders": 2,\n'
            '    "bases": [\n'
            "      {\n"
            '        "order": [\n'
            "          1,\n"
            "          2\n"
            "        ],\n"
            '        "forms": 2,\n'
            '        "rank": 2,\n'
            '        "independent": true\n'
            "      },\n"
            "      {\n"
            '        "order": [\n'
            "          2,\n"
            "          1\n"
            "        ],\n"
            '        "forms": 2,\n'
            '        "rank": 2,\n'
            '        "independent": true\n'
            "      }\n"
            "    ]\n"
            "  },\n"
            '  "ok": true\n'
            "}\n"
        )
        assert err == ""

    @staticmethod
    def _edit_order_132(monkeypatch, edit):
        # apply edit to the form list of the (1 3 2) basis only
        real = basis.generate_basis

        def edited(n, degree=None, reading_order=None):
            b = real(n, degree, reading_order)
            if b.reading_order != (1, 3, 2):
                return b
            forms = list(b.forms)
            edit(forms)
            return basis.Basis(b.n, b.degree, b.reading_order, tuple(forms))

        monkeypatch.setattr(basis, "generate_basis", edited)

    def test_orders_duplicate_form_names_a_witness(self, capsys, monkeypatch):
        # the (1 3 2) basis reads [2 2 2] [1 2 2] [2 2 1] [1 2 1] [1 1 2] [0 2 1]
        def duplicate(forms):
            forms[5] = basis.BasisForm(forms[1].form, forms[5].tableau)

        self._edit_order_132(monkeypatch, duplicate)
        code, out, err = run(["verify", "3", "orders"], capsys)
        assert code == 1
        # the failing order is ranked by its own elimination: the duplicate adds nothing
        assert "order=(1 3 2) forms=6 rank=5" in out.splitlines()
        assert out.splitlines()[-1] == "result: FAIL"
        assert err == "witness: order=(1 3 2) form 5 is [1 2 2], expected [0 2 1]\n"

    def test_orders_swapped_forms_name_a_witness(self, capsys, monkeypatch):
        # two forms trade tableaux: the form set, and so the rank, is unchanged
        def swap(forms):
            a, b = forms[1], forms[2]
            forms[1], forms[2] = basis.BasisForm(b.form, a.tableau), basis.BasisForm(a.form, b.tableau)

        self._edit_order_132(monkeypatch, swap)
        code, out, err = run(["verify", "3", "orders"], capsys)
        assert code == 1
        assert "order=(1 3 2) forms=6 rank=6" in out.splitlines()
        assert out.splitlines()[-1] == "result: FAIL"
        assert err == "witness: order=(1 3 2) form 1 is [2 2 1], expected [1 2 2]\n"

    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_kmax_below_one_exits_two(self, kmax, capsys):
        code, out, err = run(["verify", "4", "harmonic", "--kmax", kmax], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --kmax must be at least 1, got {kmax}\n"

    @pytest.mark.parametrize("kmax", ["4", "9"])
    def test_kmax_above_n_minus_one_exits_two(self, kmax, capsys):
        code, out, err = run(["verify", "4", "harmonic", "--kmax", kmax], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --kmax must be between 1 and 3, got {kmax}\n"

    def test_no_kmax_applies_at_one_variable(self, capsys):
        code, out, err = run(["verify", "1", "harmonic", "--kmax", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --kmax does not apply at N=1\n"

    def test_kmax_at_n_minus_one_passes(self, capsys):
        code, out, _ = run(["verify", "4", "harmonic", "--kmax", "3"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "suite: harmonic n=4 kmax=3"

    def test_harmonic_default_kmax_for_one_variable(self, capsys):
        code, out, _ = run(["verify", "1", "harmonic"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "suite: harmonic n=1 kmax=0"


class TestFlipCommand:
    def test_form_input(self, capsys):
        code, out, _ = run(["flip", "[5 7 7 5 4 5 6 5]"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "original form: [5 7 7 5 4 5 6 5] degree=16 type=(4 1 0 3 4 2 1 1)"
        )
        assert "flipped form: [6 6 5 3 4 7 6 3] degree=12" in out

    def test_json_round_trip_through_file(self, capsys, tmp_path):
        code, out, _ = run(["flip", "[5 7 7 5 4 5 6 5]", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["schema"] == "cvforms.flip/1"
        path = tmp_path / "tableau.json"
        path.write_text(json.dumps(data["flipped"]["tableau"]))
        code, out, _ = run(["flip", "--file", str(path)], capsys)
        assert code == 0
        assert "flipped form: [5 7 7 5 4 5 6 5] degree=16" in out

    def test_missing_input(self, capsys):
        code, _, err = run(["flip"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("exists", [True, False])
    def test_form_and_file_together_exit_two_before_any_read(self, exists, capsys, tmp_path, monkeypatch):
        # flip used to read the file, ignore the form and exit 0
        path = tmp_path / "tableau.json"
        if exists:
            path.write_text('{"boxes": [[0, 0], [0, 1]], "filling": [1, 2]}')
        opened = []
        monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a))
        expected = (2, "", "error: give a form or tableau JSON, or --file, not both\n")
        assert run(["flip", "[0 1 2 3]", "--file", str(path)], capsys) == expected
        assert opened == []

    def test_non_standard_form(self, capsys):
        code, _, err = run(["flip", "[2 2 3 3]"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"boxes": [[0,0]]}',
            '{"filling": [1]}',
            '{"boxes": 5, "filling": [1]}',
            '{"boxes": [null], "filling": [1]}',
            '{"boxes": [[0,0],[0,1]], "filling": [1, "2"]}',
        ],
    )
    def test_malformed_tableau_json_exits_two(self, text, capsys):
        code, out, err = run(["flip", text], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, kind",
        [
            ('{"boxes": [[0, 0], [0, 1]], "filling": [true, 2]}', "bool"),
            ('{"boxes": [[0, 0], [0, 1]], "filling": [1.0, 2]}', "float"),
            ('{"boxes": [[0, 0], [false, 1]], "filling": [1, 2]}', "bool"),
            ('{"boxes": [[0, 0.0], [0, 1]], "filling": [1, 2]}', "float"),
        ],
    )
    def test_tableau_json_takes_only_integers(self, text, kind, capsys):
        # each of these equals the valid tableau in Python, which flip used to print
        assert run(["flip", text.replace("true", "1").replace("false", "0").replace(".0", "")], capsys)[0] == 0
        assert run(["flip", text], capsys) == (2, "", f"error: tableau JSON entries must be integers, not {kind}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "boxes, filling, bad",
        [
            ("[[1,0,9],[0,1]]", "[2,1]", "[1, 0, 9]"),
            ("[[1],[0,1]]", "[2,1]", "[1]"),
            ("[[0]]", "[1]", "[0]"),
        ],
        ids=["three-entries", "one-entry", "lone-box"],
    )
    def test_tableau_json_box_must_be_a_pair(self, boxes, filling, bad, fmt, capsys):
        text = f'{{"boxes":{boxes},"filling":{filling}}}'
        expected = (2, "", f"error: tableau JSON box {bad} is not a [row, column] pair\n")
        assert run(["flip", text, "--format", fmt], capsys) == expected

    def test_deeply_nested_tableau_json_exits_two(self, capsys, tmp_path):
        text = '{"boxes": ' + "[" * 20000 + "]" * 20000 + "}"
        expected = (2, "", "error: tableau JSON is nested too deeply\n")
        assert run(["flip", text], capsys) == expected
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert run(["flip", "--file", str(path)], capsys) == expected


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "[2 2 4 4 5 5]"],
            ["expand", "[2 2 4 4 5 5]"],
            ["basis", "4", "--degree", "3", "--format", "json"],
            ["count", "8", "gf"],
            ["ribbon", "8", "--degree", "16"],
        ],
    )
    def test_byte_stable(self, argv, capsys):
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bench_command_is_gone(self, capsys):
        code, out, err = run(["bench"], capsys)
        assert code == 2
        assert out == ""
        assert "invalid choice: 'bench'" in err

    def test_import_starts_no_process_machinery(self):
        src = str(Path(cli.__file__).parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import cvforms.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvforms", "count", "4", "mahonian"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1 3 5 6 5 3 1\n"


class _Started(Exception):
    """Raised by a patched entry point: the run got past the size guard."""


@pytest.fixture
def no_work(monkeypatch):
    # every enumeration and suite the guarded commands reach raises
    def started(*args, **kwargs):
        raise _Started

    for name in ("enumerate_ribbons", "ribbons_of_degree", "generate_basis", "enumerate_tableaux"):
        monkeypatch.setattr(cli, name, started)
    for name in ("oracle_suite", "rank_suite", "harmonic_suite", "flip_suite", "chars_suite", "orders_suite"):
        monkeypatch.setattr(basis, name, started)


class TestSizeGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ribbon", "1100"],
            ["ribbon", "17", "--degree", "3"],
            ["basis", "1100", "--count-only"],
            ["basis", "17", "--degree", "2", "--format", "json"],
            ["verify", "1100", "chars"],
            ["verify", "17", "rank", "--degree", "2"],
            ["verify", "17", "oracle", "--format", "json"],
        ],
    )
    def test_refuses_before_any_work(self, argv, no_work, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: N={argv[1]} is above the largest supported size {cli.MAX_N}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ribbon", "0"],
            ["ribbon", "0", "--degree", "0"],
            ["basis", "0"],
            ["basis", "-2", "--degree", "1"],
            ["basis", "0", "--degree", "0", "--format", "json"],
            ["basis", "0", "--count-only", "--degree", "0"],
            ["basis", "-2", "--count-only", "--degree", "1"],
            ["verify", "0", "rank", "--degree", "0"],
        ],
    )
    def test_refuses_no_boxes_before_any_work(self, argv, no_work, capsys):
        # one check covers every path, --degree and --count-only included
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: need at least one box\n"

    @pytest.mark.parametrize(
        "argv",
        [["ribbon", "{n}"], ["basis", "{n}", "--count-only"], ["basis", "{n}"], ["verify", "{n}", "chars"]],
    )
    def test_accepts_the_largest_size(self, argv, no_work):
        with pytest.raises(_Started):
            cli.main([a.format(n=cli.MAX_N) for a in argv])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_refuses_a_long_tableaux_class_before_any_work(self, fmt, no_work, capsys):
        # the 17-box zigzag class has 209 865 342 976 tableaux to list
        zigzag = "[" + " ".join(str(v) for v in range(8, 0, -1) for _ in range(2)) + " 0]"
        assert count_tableaux(class_to_ribbon(cli._parse_vector(zigzag))) == 209_865_342_976
        code, out, err = run(["tableaux", zigzag, "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: N=17 is above the largest supported size {cli.MAX_N}\n"

    def test_accepts_the_longest_tableaux_class(self, no_work):
        with pytest.raises(_Started):
            cli.main(["tableaux", "[" + " ".join(["1"] * 15) + " 0]"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_refuses_an_oracle_size_before_the_vandermonde(self, fmt, no_work, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(laplace, "_integer_vandermonde", lambda n: built.append(n))
        code, out, err = run(["verify", "10", "oracle", "--format", fmt], capsys)
        assert (code, out, built) == (2, "", [])
        assert err == f"error: N=10 is above the largest oracle suite size {cli.MAX_ORACLE_N}\n"
        assert cli.MAX_ORACLE_N == 9 < cli.MAX_N

    def test_accepts_the_largest_oracle_size(self, no_work):
        # the fixture stops the run at the suite, so no N=9 trie is built
        with pytest.raises(_Started):
            cli.main(["verify", str(cli.MAX_ORACLE_N), "oracle"])

    def test_accepts_every_size_the_workflow_runs(self):
        workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
        text = workflow.read_text()
        sizes = [int(n) for n in re.findall(r"cvforms (?:ribbon|basis|verify) (\d+)", text)]
        in_process = [int(n) for n in re.findall(r'cli\.main\(\["(?:ribbon|basis|verify)", "(\d+)"', text)]
        assert 14 in sizes and 8 in sizes
        assert {8, 9} <= set(in_process)
        assert max(sizes + in_process) <= cli.MAX_N
