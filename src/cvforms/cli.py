"""Command line front end.

Subcommands cover evaluation (eval, expand, type, class), combinatorics
(ribbon, tableaux, basis, count), the verification suites of
:mod:`cvforms.basis` (verify) and the tableau involution (flip).
Each command builds one record, the dict that ``--format json`` prints
under a versioned ``schema`` key, and writes nothing: ``main`` prints the
record, or hands it to the command's text renderer, whose output is
deterministic.  Polynomials and tableaux stay live in the record and
become JSON through their ``to_json_dict`` only when printed.  Keys that
start with an underscore are not printed as JSON: ``_listing`` and the
like hold what only the text shows, and ``main`` writes the lines of
``_stderr`` to stderr in both formats.
Exit codes: 0 on success, 1 when a verification suite fails, 2 on
unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import basis
from .basis import generate_basis, q_factorial
from .cvform import CvForm, vector_text, vector_tokens
from .laplace import evaluate, expand_rowblocks
from .ribbon import (
    SkewTableau,
    backward_order,
    class_to_ribbon,
    count_tableaux,
    enumerate_ribbons,
    enumerate_tableaux,
    flip,
    render_ribbon,
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

# the largest N that ribbon, basis and verify accept, and the longest tableaux
# class: 2^(N-1) ribbons (32 768 at N=16), a basis of N! forms and a ribbon's
# tableaux grow too fast for more, and a larger N exits 2 before any work
MAX_N = 16

# the oracle suite's largest N: derivative_oracle first expands the N! Vandermonde terms
MAX_ORACLE_N = 9


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one box")
    if n > MAX_N:
        raise ValueError(f"N={n} is above the largest supported size {MAX_N}")


def _parse_vector(text: str) -> tuple[int, ...]:
    parts = vector_tokens(text, ("()", "[]"))
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


def _emit_json(record: dict) -> None:
    shown = {k: v for k, v in record.items() if not k.startswith("_")}
    print(json.dumps(shown, indent=2, default=lambda obj: obj.to_json_dict()))


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


def _term_records(terms, schur: bool) -> list[dict]:
    """The ``terms`` list of ``expand``, and with Schur labels of ``eval --trace``."""
    records = []
    for rb in terms:
        rec = {
            "sign": rb.total_sign,
            "blocks": [list(b) for b in rb.blocks],
            "var_partition": [list(v) for v in rb.var_partition],
        }
        if schur:
            rec["schur"] = _schur_annotation(rb)
        records.append(rec)
    return records


# ---------------------------------------------------------------- commands


def cmd_eval(args) -> dict:
    form = CvForm.parse(args.form)
    record = {
        "schema": "cvforms.eval/1",
        "form": str(form),
        "degree": form.degree(),
        "polynomial": evaluate(form),
    }
    if args.trace:
        groups, terms = expand_rowblocks(form)
        record["trace"] = {
            "vandermonde_blocks": [list(b) for b in groups],
            "terms": _term_records(terms, schur=True),
        }
        record["_terms"] = terms
    return record


def text_eval(record: dict, args) -> None:
    print(record["polynomial"].canonical_text())
    if args.trace:
        trace = record["trace"]
        blocks = " | ".join(" ".join(f"t{v}" for v in b) for b in trace["vandermonde_blocks"])
        print(f"# expansion of {record['form']} over blocks {blocks}")
        print("# every term carries the Vandermonde factor of each multi-variable block")
        print(f"# row-blocks ({len(trace['terms'])}):")
        for rb, t in zip(record["_terms"], trace["terms"]):
            print(f"# {rb}  =  {'-' if rb.total_sign < 0 else '+'} {t['schur']}")


def cmd_expand(args) -> dict:
    form = CvForm.parse(args.form)
    groups, terms = expand_rowblocks(form)
    return {
        "schema": "cvforms.expand/1",
        "form": str(form),
        "nvars": form.N,
        "vandermonde_blocks": [list(b) for b in groups],
        "terms": _term_records(terms, schur=False),
        "_terms": terms,
    }


def text_expand(record: dict, args) -> None:
    for rb in record["_terms"]:
        print(rb)


def cmd_vector(args) -> dict:
    form = CvForm.parse(args.form)
    vector = form.type_of() if args.command == "type" else form.class_of()
    return {"schema": f"cvforms.{args.command}/1", "form": str(form), args.command: list(vector)}


def text_vector(record: dict, args) -> None:
    """The ``type`` or ``class`` record: its vector, keyed by the command name."""
    print(vector_text(record[args.command]))


def _ribbon_record(rib) -> dict:
    sp = to_skew_partition(rib)
    return {
        "class": list(rib.class_entries()),
        "boxes": [list(b) for b in rib.boxes],
        "index": ribbon_index(rib),
        "height": rib.height,
        "shape": {"lam": list(sp.lam), "mu": list(sp.mu)},
        "tableaux": count_tableaux(rib),
    }


def cmd_ribbon(args) -> dict:
    if args.target.isdigit():
        n = int(args.target)
        _check_size(n)
        ribbons = ribbons_of_degree(n, args.degree) if args.degree is not None else list(enumerate_ribbons(n))
    else:
        if args.degree is not None:
            raise ValueError("--degree applies to the N listing, not to a single class")
        ribbons = [class_to_ribbon(_parse_vector(args.target))]
        n = ribbons[0].size
    return {
        "schema": "cvforms.ribbon/1",
        "n": n,
        "degree": args.degree,
        "ribbons": [_ribbon_record(r) for r in ribbons],
        "_ribbons": ribbons,
    }


def text_ribbon(record: dict, args) -> None:
    for rib, rec in zip(record["_ribbons"], record["ribbons"]):
        print(
            f"class={vector_text(rec['class'])} index={rec['index']} "
            f"height={rec['height']} shape={to_skew_partition(rib)} tableaux={rec['tableaux']}"
        )
        if args.diagram:
            print(render_ribbon(rib))


def cmd_tableaux(args) -> dict:
    cls = _parse_vector(args.cls)
    _check_size(len(cls))
    rib = class_to_ribbon(cls)
    tableaux = enumerate_tableaux(rib)
    return {
        "schema": "cvforms.tableaux/1",
        "class": list(rib.class_entries()),
        "count": len(tableaux),
        "tableaux": [
            {"filling": list(t.filling), "form": str(tableau_to_cvform(t))}
            for t in tableaux
        ],
        "_tableaux": tableaux,
    }


def text_tableaux(record: dict, args) -> None:
    for tab, rec in zip(record["_tableaux"], record["tableaux"]):
        print(f"filling={vector_text(rec['filling'])} form={rec['form']}")
        if args.diagram:
            print(render_tableau(tab))


def cmd_basis(args) -> dict:
    n = args.n
    _check_size(n)
    order = _parse_order(args.order, n)
    backward = order == backward_order(n)
    if args.count_only:
        ribbons = ribbons_of_degree(n, args.degree) if args.degree is not None else enumerate_ribbons(n)
        records = [
            {"class": list(r.class_entries()), "tableaux": count_tableaux(r)}
            for r in ribbons
        ]
        return {
            "schema": "cvforms.basis/1",
            "n": n,
            "degree": args.degree,
            "count_only": True,
            "classes": records,
            "total": sum(rec["tableaux"] for rec in records),
        }
    forms = []
    for bf in generate_basis(n, args.degree, order).forms:
        rec = {
            "entries": list(bf.form.entries),
            "degree": bf.form.degree(),
            "tableau": bf.tableau,
        }
        if backward:
            rec["type"] = list(bf.form.type_of())
            rec["class"] = list(bf.form.class_of())
        forms.append(rec)
    return {
        "schema": "cvforms.basis/1",
        "n": n,
        "degree": args.degree,
        "reading_order": list(order),
        "forms": forms,
    }


def text_basis(record: dict, args) -> None:
    if args.count_only:
        for rec in record["classes"]:
            print(f"class={vector_text(rec['class'])} tableaux={rec['tableaux']}")
        print(f"total={record['total']}")
        return
    n, order, forms = record["n"], record["reading_order"], record["forms"]
    name = "backward" if tuple(order) == backward_order(n) else vector_text(order)
    print(f"n={n} degree={'all' if args.degree is None else args.degree} order={name} forms={len(forms)}")
    for rec in forms:
        line = f"{CvForm(rec['entries'])} filling={vector_text(rec['tableau'].filling)}"
        if "type" in rec:
            line += f" type={vector_text(rec['type'])} class={vector_text(rec['class'])}"
        print(line)


def cmd_count(args) -> dict:
    n = args.n
    if args.at is not None and args.what != "gf":
        raise ValueError("--at applies to the gf table only")
    record = {"schema": "cvforms.count/1", "n": n}
    if args.what == "mahonian":
        record["mahonian"] = q_factorial(n)
        return record
    if args.what == "ribbons":
        if n < 1:
            raise ValueError("need at least one box")
        # one ribbon per choice of step at each of the N-1 joints
        record["ribbons"] = 2 ** (n - 1)
        return record
    # generating function of ribbon indices and heights
    rows = ribbon_generating_function(n)
    if args.at is not None:
        try:
            at = int(args.at[2:] if args.at.startswith("q^") else args.at)
        except ValueError:
            raise ValueError(f"--at takes q^d or d for an integer degree d, got {args.at!r}") from None
        degrees = range(at, at + 1)
    else:
        # the last row ends at the top index, and every index up to it has ribbons
        degrees = range(len(rows[-1]))
    # each degree's column, highest power of t first; row l is nonzero from index 1 + ... + l on
    columns = [[] for _ in degrees]
    for l in range(len(rows) - 1, -1, -1):
        row = rows[l]
        for d in range(max(l * (l + 1) // 2, degrees.start), min(len(row), degrees.stop)):
            columns[d - degrees.start].append({"power": l, "coeff": row[d]})
    record["gf"] = [{"q": d, "t": t} for d, t in zip(degrees, columns)]
    return record


def text_count(record: dict, args) -> None:
    if args.what == "mahonian":
        print(" ".join(str(c) for c in record["mahonian"]))
    elif args.what == "ribbons":
        print(record["ribbons"])
    else:
        for entry in record["gf"]:
            poly = _format_t_poly(entry["t"])
            print(poly if args.at is not None else f"q^{entry['q']}: {poly}")


def _format_t_poly(terms: list[dict]) -> str:
    # the record lists the terms in descending power
    parts = []
    for term in terms:
        l, c = term["power"], term["coeff"]
        t = "" if l == 0 else "t" if l == 1 else f"t^{l}"
        parts.append(t if c == 1 and t else f"{c}{t}")
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------- verify

# each suite's call from the parsed flags, in the order the parser lists them
_SUITES = {
    "oracle": lambda args: basis.oracle_suite(args.n, args.samples, args.seed),
    "rank": lambda args: basis.rank_suite(args.n, args.degree),
    "harmonic": lambda args: basis.harmonic_suite(args.n, args.kmax),
    "flip": lambda args: basis.flip_suite(args.n),
    "chars": lambda args: basis.chars_suite(args.n),
    "orders": lambda args: basis.orders_suite(args.n),
}


def cmd_verify(args) -> dict:
    n, suite, kmax = args.n, args.suite, args.kmax
    _check_size(n)
    if args.degree is not None and suite != "rank":
        raise ValueError("--degree applies to the rank suite only")
    if suite == "oracle" and n > MAX_ORACLE_N:
        raise ValueError(f"N={n} is above the largest oracle suite size {MAX_ORACLE_N}")
    if suite == "oracle" and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if suite == "harmonic" and kmax is not None:
        if kmax < 1:
            raise ValueError(f"--kmax must be at least 1, got {kmax}")
        if n < 2:
            raise ValueError(f"--kmax does not apply at N={n}")
        if kmax > n - 1:
            raise ValueError(f"--kmax must be between 1 and {n - 1}, got {kmax}")
    report = _SUITES[suite](args)
    record = {"schema": "cvforms.verify/1", "suite": suite, "n": n, "checks": report["checks"], "ok": report["ok"]}
    return record | {"_listing": report["listing"], "_stderr": report["stderr"]}


# the report lines of each suite, filled in from its checks
_VERIFY_LINES = {
    "oracle": ("suite: oracle n={n} ({source})", "forms checked: {forms}", "mismatches: {mismatches}"),
    "rank": ("suite: rank n={n} degree={degree} ({mode})", "forms: {forms}", "rank: {rank}"),
    "harmonic": ("suite: harmonic n={n} kmax={kmax}", "forms checked: {forms}", "failures: {failures}"),
    "flip": (
        "suite: flip n={n}",
        "tableaux: {tableaux}",
        "involution holds: {involution}",
        "degree complements to {top}: {complement}",
        "flipped form in basis: {member}",
        "shape never fixed: {moved}",
    ),
    "chars": ("suite: chars n={n}", "forms: {forms}", "characteristic monomials pairwise distinct: {distinct}"),
    "orders": ("suite: orders n={n}", "reading orders: {orders}"),
}


def text_verify(record: dict, args) -> None:
    n, checks = record["n"], record["checks"]
    degree = "all" if args.degree is None else args.degree
    for line in _VERIFY_LINES[record["suite"]]:
        print(line.format(n=n, degree=degree, top=n * (n - 1) // 2, **checks))
    for line in record["_listing"]:
        print(line)
    print(f"result: {'PASS' if record['ok'] else 'FAIL'}")


# ---------------------------------------------------------------- flip


def _flip_side(tab: SkewTableau) -> dict:
    form = tableau_to_cvform(tab)
    return {"form": str(form), "degree": form.degree(), "tableau": tab}


def cmd_flip(args) -> dict:
    text = args.input
    if args.file is not None:
        if text is not None:
            raise ValueError("give a form or tableau JSON, or --file, not both")
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text is None:
        raise ValueError("give a form, a tableau JSON object, or --file")
    body = text.strip()
    if body.startswith("{"):
        try:
            tab = SkewTableau.from_json_dict(json.loads(body))
        except RecursionError:  # json.loads past the interpreter's recursion limit
            raise ValueError("tableau JSON is nested too deeply") from None
    else:
        tab = tableau_from_cvform(CvForm.parse(body))
    return {"schema": "cvforms.flip/1", "original": _flip_side(tab), "flipped": _flip_side(flip(tab))}


def text_flip(record: dict, args) -> None:
    for side in ("original", "flipped"):
        rec = record[side]
        tab = rec["tableau"]
        print(f"{side} form: {rec['form']} degree={rec['degree']} type={vector_text(tableau_to_type(tab))}")
        print(render_tableau(tab))


# ---------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    It binds each ``cmd_*`` and ``text_*`` when built: patching one later does not
    reach ``main``, but patching a name they look up when called, such as ``basis.rank_suite``, does.
    """
    parser = argparse.ArgumentParser(
        prog="cvforms",
        description="Exact evaluation and ribbon combinatorics of confluent Vandermonde forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, func, render):
        """``--format``, the command's record builder and its text renderer."""
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        p.set_defaults(func=func, render=render)

    p = sub.add_parser("eval", help="evaluate a form to its exact polynomial")
    p.add_argument("form", help="form literal, e.g. '[2 2 3 3]' or '2,2,3,3'")
    p.add_argument("--trace", action="store_true", help="include the signed row-block expansion")
    add_output(p, cmd_eval, text_eval)

    p = sub.add_parser("expand", help="signed row-block expansion of a form")
    p.add_argument("form")
    add_output(p, cmd_expand, text_expand)

    for name, summary in (("type", "type vector of a form"), ("class", "class vector of a regular form")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("form")
        add_output(p, cmd_vector, text_vector)

    p = sub.add_parser("ribbon", help="list ribbons for N boxes, or show one class")
    p.add_argument("target", help="box count N, or a class vector such as '[4 4 3 2 1 1 1 0]'")
    p.add_argument("--degree", type=int, default=None, help="restrict the listing to one index")
    p.add_argument("--diagram", action="store_true", help="draw ASCII diagrams")
    add_output(p, cmd_ribbon, text_ribbon)

    p = sub.add_parser("tableaux", help="standard tableaux of a ribbon class")
    p.add_argument("cls", metavar="class", help="class vector")
    p.add_argument("--diagram", action="store_true")
    add_output(p, cmd_tableaux, text_tableaux)

    p = sub.add_parser("basis", help="tableau basis of harmonic forms")
    p.add_argument("n", type=int)
    p.add_argument("--degree", type=int, default=None, help="one graded slice only")
    p.add_argument("--order", default="backward", help="reading order: backward, identity, or a permutation")
    p.add_argument("--count-only", action="store_true", help="per-class tableau counts, no enumeration")
    add_output(p, cmd_basis, text_basis)

    p = sub.add_parser("count", help="counting tables")
    p.add_argument("n", type=int)
    p.add_argument("what", choices=("mahonian", "ribbons", "gf"))
    p.add_argument("--at", default=None, help="single coefficient of the gf, e.g. q^16")
    add_output(p, cmd_count, text_count)

    p = sub.add_parser("verify", help="verification suites (exit 1 on failure)")
    p.add_argument("n", type=int)
    p.add_argument("suite", choices=tuple(_SUITES))
    p.add_argument("--samples", type=int, default=200, help="random forms when N > 4 (oracle)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--kmax", type=int, default=None, help="largest power sum order (harmonic)")
    p.add_argument("--degree", type=int, default=None, help="restrict rank suite to one slice")
    add_output(p, cmd_verify, text_verify)

    p = sub.add_parser("flip", help="reflect a standard tableau across the skew diagonal")
    p.add_argument("input", nargs="?", default=None, help="standard form literal or tableau JSON")
    p.add_argument("--file", default=None, help="read the tableau JSON from a file")
    add_output(p, cmd_flip, text_flip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        record = args.func(args)
        for line in record.get("_stderr", ()):
            print(line, file=sys.stderr)
        if args.format == "json":
            _emit_json(record)
        else:
            args.render(record, args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if record.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
