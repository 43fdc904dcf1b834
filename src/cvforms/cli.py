"""Command line front end.

Subcommands cover evaluation (eval, expand, type, class), combinatorics
(ribbon, tableaux, basis, count), verification suites (verify), the
tableau involution (flip) and a micro benchmark (bench).  Text output is
deterministic; ``--format json`` wraps the same data under a versioned
``schema`` key.  Exit codes: 0 on success, 1 when a verification suite
fails, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .basis import (
    characteristic_collision,
    compare_bases,
    generate_basis,
    leading_rank,
    q_factorial,
    verify_characteristic_uniqueness,
    verify_harmonicity,
    verify_independence,
)
from .cvform import CvForm, valid_class
from .laplace import (
    derivative_oracle,
    evaluate,
    expand_rowblocks,
    naive_oracle,
)
from .poly import Polynomial, _term_key
from .ribbon import (
    SkewTableau,
    backward_order,
    class_to_ribbon,
    count_syt,
    enumerate_ribbons,
    enumerate_tableaux,
    flip,
    render_tableau,
    ribbon_generating_function,
    ribbon_index,
    ribbons_of_degree,
    tableau_from_cvform,
    tableau_to_cvform,
    tableau_to_type,
    to_skew_partition,
)

DEFAULT_SEED = 1729


def _vec(values) -> str:
    return "(" + " ".join(str(v) for v in values) + ")"


def _parse_vector(text: str) -> tuple[int, ...]:
    import re

    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
    if not parts:
        raise ValueError(f"cannot parse vector from {text!r}")
    return tuple(int(p) for p in parts)


def _parse_order(text: str, n: int) -> tuple[int, ...]:
    if text == "backward":
        return backward_order(n)
    if text == "identity":
        return tuple(range(1, n + 1))
    order = _parse_vector(text)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"reading order {text!r} is not a permutation of 1..{n}")
    return order


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _schur_annotation(rb) -> str:
    parts = []
    for b, powers in enumerate(rb.blocks, start=1):
        m = len(powers)
        lam = tuple(p - (m - 1 - r) for r, p in enumerate(powers))
        lam = tuple(x for x in lam if x)
        label = " ".join(str(x) for x in lam) if lam else "0"
        facts = "".join(f"{p}!" for p in powers)
        parts.append(f"s[{label}]({b})/({facts})")
    return " * ".join(parts)


# ---------------------------------------------------------------- commands


def cmd_eval(args) -> int:
    form = CvForm.parse(args.form)
    value = evaluate(form)
    factor, terms = expand_rowblocks(form)
    if args.format == "json":
        payload = {
            "schema": "cvforms.eval/1",
            "form": str(form),
            "degree": form.degree(),
            "polynomial": value.to_json_dict(),
        }
        if args.trace:
            payload["trace"] = {
                "vandermonde_blocks": [list(b) for b in factor.vandermonde_blocks],
                "terms": [
                    {
                        "sign": rb.total_sign,
                        "blocks": [list(b) for b in rb.blocks],
                        "var_partition": [list(v) for v in rb.var_partition],
                        "schur": _schur_annotation(rb),
                    }
                    for rb in terms
                ],
            }
        _emit_json(payload)
        return 0
    print(value.canonical_text())
    if args.trace:
        blocks = " | ".join(" ".join(f"t{v}" for v in b) for b in factor.vandermonde_blocks)
        print(f"# expansion of {form} over blocks {blocks}")
        print("# every term carries the Vandermonde factor of each multi-variable block")
        print(f"# row-blocks ({len(terms)}):")
        for rb in terms:
            print(f"# {rb}  =  {'-' if rb.total_sign < 0 else '+'} {_schur_annotation(rb)}")
    return 0


def cmd_expand(args) -> int:
    form = CvForm.parse(args.form)
    factor, terms = expand_rowblocks(form)
    if args.format == "json":
        _emit_json(
            {
                "schema": "cvforms.expand/1",
                "form": str(form),
                "nvars": form.N,
                "vandermonde_blocks": [list(b) for b in factor.vandermonde_blocks],
                "terms": [
                    {
                        "sign": rb.total_sign,
                        "blocks": [list(b) for b in rb.blocks],
                        "var_partition": [list(v) for v in rb.var_partition],
                    }
                    for rb in terms
                ],
            }
        )
        return 0
    for rb in terms:
        print(rb)
    return 0


def cmd_type(args) -> int:
    form = CvForm.parse(args.form)
    if args.format == "json":
        _emit_json({"schema": "cvforms.type/1", "form": str(form), "type": list(form.type_of())})
        return 0
    print(_vec(form.type_of()))
    return 0


def cmd_class(args) -> int:
    form = CvForm.parse(args.form)
    cls = form.class_of()
    if args.format == "json":
        _emit_json({"schema": "cvforms.class/1", "form": str(form), "class": list(cls)})
        return 0
    print(_vec(cls))
    return 0


def _ribbon_record(rib) -> dict:
    sp = to_skew_partition(rib)
    return {
        "class": list(rib.class_entries()),
        "boxes": [list(b) for b in rib.boxes],
        "index": ribbon_index(rib),
        "height": rib.height,
        "shape": {"lam": list(sp.lam), "mu": list(sp.mu)},
        "tableaux": count_syt(sp),
    }


def _ribbon_line(rib) -> str:
    sp = to_skew_partition(rib)
    return (
        f"class={_vec(rib.class_entries())} index={ribbon_index(rib)} "
        f"height={rib.height} shape={sp} tableaux={count_syt(sp)}"
    )


def cmd_ribbon(args) -> int:
    if args.target.isdigit():
        n = int(args.target)
        if n < 1:
            raise ValueError("need at least one box")
        ribbons = ribbons_of_degree(n, args.degree) if args.degree is not None else enumerate_ribbons(n)
    else:
        if args.degree is not None:
            raise ValueError("--degree applies to the N listing, not to a single class")
        ribbons = [class_to_ribbon(_parse_vector(args.target))]
        n = ribbons[0].size
    if args.format == "json":
        _emit_json(
            {
                "schema": "cvforms.ribbon/1",
                "n": n,
                "degree": args.degree,
                "ribbons": [_ribbon_record(r) for r in ribbons],
            }
        )
        return 0
    for rib in ribbons:
        print(_ribbon_line(rib))
        if args.diagram:
            from .ribbon import render_ribbon

            print(render_ribbon(rib))
    return 0


def cmd_tableaux(args) -> int:
    rib = class_to_ribbon(_parse_vector(args.cls))
    tableaux = enumerate_tableaux(rib)
    if args.format == "json":
        _emit_json(
            {
                "schema": "cvforms.tableaux/1",
                "class": list(rib.class_entries()),
                "count": len(tableaux),
                "tableaux": [
                    {"filling": list(t.filling), "form": str(tableau_to_cvform(t))}
                    for t in tableaux
                ],
            }
        )
        return 0
    for t in tableaux:
        print(f"filling={_vec(t.filling)} form={tableau_to_cvform(t)}")
        if args.diagram:
            print(render_tableau(t))
    return 0


def cmd_basis(args) -> int:
    n = args.n
    order = _parse_order(args.order, n)
    backward = order == backward_order(n)
    if args.count_only:
        ribbons = ribbons_of_degree(n, args.degree) if args.degree is not None else enumerate_ribbons(n)
        records = [
            {"class": list(r.class_entries()), "tableaux": count_syt(to_skew_partition(r))}
            for r in ribbons
        ]
        total = sum(rec["tableaux"] for rec in records)
        if args.format == "json":
            _emit_json(
                {
                    "schema": "cvforms.basis/1",
                    "n": n,
                    "degree": args.degree,
                    "count_only": True,
                    "classes": records,
                    "total": total,
                }
            )
            return 0
        for rec in records:
            print(f"class={_vec(rec['class'])} tableaux={rec['tableaux']}")
        print(f"total={total}")
        return 0
    basis = generate_basis(n, args.degree, order)
    if args.format == "json":
        forms = []
        for bf in basis.forms:
            rec = {
                "entries": list(bf.form.entries),
                "degree": bf.form.degree(),
                "tableau": bf.tableau.to_json_dict(),
            }
            if backward:
                rec["type"] = list(bf.form.type_of())
                rec["class"] = list(bf.form.class_of())
            forms.append(rec)
        _emit_json(
            {
                "schema": "cvforms.basis/1",
                "n": n,
                "degree": args.degree,
                "reading_order": list(order),
                "forms": forms,
            }
        )
        return 0
    name = "backward" if backward else _vec(order)
    print(f"n={n} degree={'all' if args.degree is None else args.degree} order={name} forms={len(basis.forms)}")
    for bf in basis.forms:
        line = f"{bf.form} filling={_vec(bf.tableau.filling)}"
        if backward:
            line += f" type={_vec(bf.form.type_of())} class={_vec(bf.form.class_of())}"
        print(line)
    return 0


def cmd_count(args) -> int:
    n = args.n
    if args.what == "mahonian":
        coeffs = q_factorial(n)
        if args.format == "json":
            _emit_json({"schema": "cvforms.count/1", "n": n, "mahonian": coeffs})
            return 0
        print(" ".join(str(c) for c in coeffs))
        return 0
    if args.what == "ribbons":
        total = len(enumerate_ribbons(n))
        if args.format == "json":
            _emit_json({"schema": "cvforms.count/1", "n": n, "ribbons": total})
            return 0
        print(total)
        return 0
    # generating function of ribbon indices and heights
    gf = ribbon_generating_function(n)
    by_degree: dict[int, dict[int, int]] = {}
    for (d, l), c in gf.items():
        by_degree.setdefault(d, {})[l] = c
    if args.at is not None:
        at = args.at[2:] if args.at.startswith("q^") else args.at
        degrees = [int(at)]
    else:
        degrees = sorted(by_degree)
    if args.format == "json":
        _emit_json(
            {
                "schema": "cvforms.count/1",
                "n": n,
                "gf": [
                    {"q": d, "t": [{"power": l, "coeff": c} for l, c in sorted(by_degree.get(d, {}).items(), reverse=True)]}
                    for d in degrees
                ],
            }
        )
        return 0
    for d in degrees:
        poly = _format_t_poly(by_degree.get(d, {}))
        if args.at is not None:
            print(poly)
        else:
            print(f"q^{d}: {poly}")
    return 0


def _format_t_poly(coeffs: dict[int, int]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for l in sorted(coeffs, reverse=True):
        c = coeffs[l]
        if l == 0:
            parts.append(str(c))
        else:
            t = "t" if l == 1 else f"t^{l}"
            parts.append(t if c == 1 else f"{c}{t}")
    return " + ".join(parts)


# ---------------------------------------------------------------- verify


def _oracle_check(entries: tuple[int, ...]) -> tuple[tuple[int, ...], str | None]:
    """The form and, when the three values differ, a witness line for stderr."""
    form = CvForm(entries)
    values = (evaluate(form), naive_oracle(form), derivative_oracle(form))
    if values[0] == values[1] == values[2]:
        return entries, None
    differing = {e for v in values for e in v.terms if len({w.terms.get(e, 0) for w in values}) > 1}
    exps = min(differing, key=_term_key)
    coeffs = ", ".join(
        f"{name} {v.terms.get(exps, 0)}"
        for name, v in zip(("evaluate", "naive_oracle", "derivative_oracle"), values)
    )
    monomial = Polynomial.monomial(form.N, exps).canonical_text()
    return entries, f"witness: {form} first differs at {monomial}: {coeffs}"


def _harmonic_check(task: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], bool]:
    entries, kmax = task
    return entries, verify_harmonicity(CvForm(entries), kmax)["ok"]


def _worker_count(jobs: int) -> int:
    """Validated ``--jobs``: at least 1, at most the number of CPUs."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs) or 1)))


def _verify_payload(args, suite: str, lines: list[str], checks: dict, ok: bool) -> int:
    if args.format == "json":
        _emit_json(
            {
                "schema": "cvforms.verify/1",
                "suite": suite,
                "n": args.n,
                "checks": checks,
                "ok": ok,
            }
        )
    else:
        for line in lines:
            print(line)
        print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    n = args.n
    suite = args.suite
    jobs = _worker_count(args.jobs)
    if suite == "oracle":
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        if n <= 4:
            forms = [tuple(e) for e in itertools.product(range(n), repeat=n)]
            source = f"exhaustive {n}^{n}"
        else:
            rng = random.Random(args.seed)
            forms = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(args.samples)]
            source = f"{args.samples} seeded samples (seed {args.seed})"
        results = _run_tasks(_oracle_check, forms, jobs)
        bad = [(e, witness) for e, witness in results if witness is not None]
        for _, witness in bad[:10]:
            print(witness, file=sys.stderr)
        lines = [
            f"suite: oracle n={n} ({source})",
            f"forms checked: {len(forms)}",
            f"mismatches: {len(bad)}",
        ]
        lines.extend(f"mismatch: {CvForm(e)}" for e, _ in bad[:10])
        checks = {"forms": len(forms), "mismatches": len(bad), "source": source}
        return _verify_payload(args, suite, lines, checks, not bad)
    if suite == "rank":
        basis = generate_basis(n, args.degree)
        expected = len(basis.forms)
        if args.leading_only:
            rank = leading_rank(basis)
            mode = "leading row-blocks"
            ok = rank == expected
        else:
            rank, ok = verify_independence(basis)
            mode = "full expansion"
        lines = [
            f"suite: rank n={n} degree={'all' if args.degree is None else args.degree} ({mode})",
            f"forms: {expected}",
            f"rank: {rank}",
        ]
        checks = {"forms": expected, "rank": rank, "mode": mode}
        return _verify_payload(args, suite, lines, checks, ok)
    if suite == "harmonic":
        if args.kmax is not None and args.kmax < 1:
            raise ValueError(f"--kmax must be at least 1, got {args.kmax}")
        kmax = args.kmax if args.kmax is not None else n - 1
        basis = generate_basis(n)
        tasks = [(bf.form.entries, kmax) for bf in basis.forms]
        results = _run_tasks(_harmonic_check, tasks, jobs)
        bad = [e for e, ok in results if not ok]
        lines = [
            f"suite: harmonic n={n} kmax={kmax}",
            f"forms checked: {len(tasks)}",
            f"failures: {len(bad)}",
        ]
        lines.extend(f"failure: {CvForm(e)}" for e in bad[:10])
        checks = {"forms": len(tasks), "kmax": kmax, "failures": len(bad)}
        return _verify_payload(args, suite, lines, checks, not bad)
    if suite == "flip":
        basis = generate_basis(n)
        all_forms = {bf.form for bf in basis.forms}
        top = n * (n - 1) // 2
        involution = complement = member = moved = 0
        for bf in basis.forms:
            ft = flip(bf.tableau)
            if flip(ft) == bf.tableau:
                involution += 1
            if tableau_to_cvform(ft).degree() + bf.form.degree() == top:
                complement += 1
            if tableau_to_cvform(ft) in all_forms:
                member += 1
            if ft.ribbon != bf.tableau.ribbon:
                moved += 1
        total = len(basis.forms)
        ok = involution == complement == member == moved == total
        lines = [
            f"suite: flip n={n}",
            f"tableaux: {total}",
            f"involution holds: {involution}",
            f"degree complements to {top}: {complement}",
            f"flipped form in basis: {member}",
            f"shape never fixed: {moved}",
        ]
        checks = {
            "tableaux": total,
            "involution": involution,
            "complement": complement,
            "member": member,
            "moved": moved,
        }
        return _verify_payload(args, suite, lines, checks, ok)
    if suite == "chars":
        basis = generate_basis(n)
        ok = verify_characteristic_uniqueness(basis)
        if not ok:
            a, b, exps = characteristic_collision(basis)
            monomial = Polynomial.monomial(n, exps).canonical_text()
            print(f"witness: {a} and {b} share the characteristic monomial {monomial}", file=sys.stderr)
        lines = [
            f"suite: chars n={n}",
            f"forms: {len(basis.forms)}",
            f"characteristic monomials pairwise distinct: {ok}",
        ]
        checks = {"forms": len(basis.forms), "distinct": ok}
        return _verify_payload(args, suite, lines, checks, ok)
    if suite == "orders":
        orders = list(itertools.permutations(range(1, n + 1)))
        report = compare_bases(n, orders)
        lines = [f"suite: orders n={n}", f"reading orders: {len(orders)}"]
        lines.extend(
            f"order={_vec(r['order'])} forms={r['forms']} rank={r['rank']}"
            for r in report["bases"]
        )
        checks = {"orders": len(orders), "bases": report["bases"]}
        return _verify_payload(args, suite, lines, checks, report["ok"])
    raise ValueError(f"unknown suite {suite!r}")


# ---------------------------------------------------------------- flip


def cmd_flip(args) -> int:
    text = args.input
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text is None:
        raise ValueError("give a form, a tableau JSON object, or --file")
    body = text.strip()
    if body.startswith("{"):
        tab = SkewTableau.from_json_dict(json.loads(body))
    else:
        tab = tableau_from_cvform(CvForm.parse(body))
    flipped = flip(tab)
    form, fform = tableau_to_cvform(tab), tableau_to_cvform(flipped)
    if args.format == "json":
        _emit_json(
            {
                "schema": "cvforms.flip/1",
                "original": {
                    "form": str(form),
                    "degree": form.degree(),
                    "tableau": tab.to_json_dict(),
                },
                "flipped": {
                    "form": str(fform),
                    "degree": fform.degree(),
                    "tableau": flipped.to_json_dict(),
                },
            }
        )
        return 0
    print(f"original form: {form} degree={form.degree()} type={_vec(tableau_to_type(tab))}")
    print(render_tableau(tab))
    print(f"flipped form: {fform} degree={fform.degree()} type={_vec(tableau_to_type(flipped))}")
    print(render_tableau(flipped))
    return 0


# ---------------------------------------------------------------- bench


def _leibniz_nonzero(form: CvForm) -> int:
    caps = sorted(e + 1 for e in form.entries)
    count = 1
    for slot, cap in enumerate(caps):
        count *= max(0, cap - slot)
    return count


def cmd_bench(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    forms: list[CvForm] = [CvForm.parse(f) for f in args.form or []]
    rng = random.Random(args.seed)
    for n in range(args.min, args.max + 1):
        picked = 0
        while picked < args.samples:
            cand = CvForm(tuple(rng.randrange(n) for _ in range(n)))
            if args.regular and not cand.is_regular():
                continue
            forms.append(cand)
            picked += 1
    print("form,n,leibniz_total,leibniz_nonzero,rowblocks,naive_seconds,blocks_seconds")
    for form in forms:
        t0 = time.perf_counter()
        value = evaluate(form)
        t1 = time.perf_counter()
        check = naive_oracle(form)
        t2 = time.perf_counter()
        if value != check:
            raise AssertionError(f"strategy mismatch on {form}")
        _, terms = expand_rowblocks(form)
        print(
            f"{form},{form.N},{math.factorial(form.N)},{_leibniz_nonzero(form)},"
            f"{len(terms)},{t2 - t1:.6f},{t1 - t0:.6f}"
        )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvforms",
        description="Exact evaluation and ribbon combinatorics of confluent Vandermonde forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    p = sub.add_parser("eval", help="evaluate a form to its exact polynomial")
    p.add_argument("form", help="form literal, e.g. '[2 2 3 3]' or '2,2,3,3'")
    p.add_argument("--trace", action="store_true", help="include the signed row-block expansion")
    add_format(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("expand", help="signed row-block expansion of a form")
    p.add_argument("form")
    add_format(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("type", help="type vector of a form")
    p.add_argument("form")
    add_format(p)
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("class", help="class vector of a regular form")
    p.add_argument("form")
    add_format(p)
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("ribbon", help="list ribbons for N boxes, or show one class")
    p.add_argument("target", help="box count N, or a class vector such as '[4 4 3 2 1 1 1 0]'")
    p.add_argument("--degree", type=int, default=None, help="restrict the listing to one index")
    p.add_argument("--diagram", action="store_true", help="draw ASCII diagrams")
    add_format(p)
    p.set_defaults(func=cmd_ribbon)

    p = sub.add_parser("tableaux", help="standard tableaux of a ribbon class")
    p.add_argument("cls", metavar="class", help="class vector")
    p.add_argument("--diagram", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("basis", help="tableau basis of harmonic forms")
    p.add_argument("n", type=int)
    p.add_argument("--degree", type=int, default=None, help="one graded slice only")
    p.add_argument("--order", default="backward", help="reading order: backward, identity, or a permutation")
    p.add_argument("--count-only", action="store_true", help="per-class tableau counts, no enumeration")
    add_format(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("count", help="counting tables")
    p.add_argument("n", type=int)
    p.add_argument("what", choices=("mahonian", "ribbons", "gf"))
    p.add_argument("--at", default=None, help="single coefficient of the gf, e.g. q^16")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="verification suites (exit 1 on failure)")
    p.add_argument("n", type=int)
    p.add_argument("suite", choices=("oracle", "rank", "harmonic", "flip", "chars", "orders"))
    p.add_argument("--samples", type=int, default=200, help="random forms when N > 4 (oracle)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for per-form checks")
    p.add_argument("--kmax", type=int, default=None, help="largest power sum order (harmonic)")
    p.add_argument("--degree", type=int, default=None, help="restrict rank suite to one slice")
    p.add_argument("--leading-only", action="store_true", help="rank of leading row-blocks only")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flip", help="reflect a standard tableau across the skew diagonal")
    p.add_argument("input", nargs="?", default=None, help="standard form literal or tableau JSON")
    p.add_argument("--file", default=None, help="read the tableau JSON from a file")
    add_format(p)
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("bench", help="term counts and wall times, CSV on stdout")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--max", type=int, default=5)
    p.add_argument("--samples", type=int, default=5, help="random forms per size")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--regular", action="store_true", help="sample regular forms only")
    p.add_argument("--form", action="append", help="benchmark this form too (repeatable)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
