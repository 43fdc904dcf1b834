"""Digests of ``cvforms`` runs, to keep the program's output byte-identical.

Each run is ``cli.main(argv)`` in process, and its digest is the sha256 of
the JSON list ``[exit code, stdout, stderr]``.  ``output_digests.json``,
next to this file, holds one ``[argv, digest]`` pair per run of
``matrix()``, and ``test_output_digests.py`` replays it.  A change that
alters output on purpose records the file again and lists every argv
whose digest changed:

    PYTHONPATH=src python tests/output_digests.py

The matrix leaves out argparse's own usage errors, whose wording changes
between Python versions.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

from cvforms import cli
from cvforms.cvform import CvForm
from cvforms.ribbon import enumerate_ribbons

DATA = Path(__file__).with_name("output_digests.json")
FORMATS = ([], ["--format", "json"])


def digests(argvs) -> list[str]:
    """sha256 of ``[exit code, stdout, stderr]`` of each argv, run in process."""
    out = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        out.append(hashlib.sha256(json.dumps([code, stdout.getvalue(), stderr.getvalue()]).encode()).hexdigest())
    return out


def _forms(max_n: int) -> list[str]:
    return [str(CvForm(e)) for n in range(1, max_n + 1) for e in itertools.product(range(n), repeat=n)]


def _classes(max_n: int) -> list[str]:
    return [" ".join(map(str, r.class_entries())) for n in range(1, max_n + 1) for r in enumerate_ribbons(n)]


def _runs():
    """Each argv without its format flags."""
    for form in _forms(3):
        yield ["eval", form]
        yield ["eval", form, "--trace"]
        yield ["expand", form]
    for form in _forms(4):
        yield ["type", form]
        yield ["class", form]
        yield ["flip", form]
    for n in range(1, 7):
        yield ["ribbon", str(n)]
        yield ["ribbon", str(n), "--diagram"]
    for d in range(-1, 12):
        yield ["ribbon", "5", "--degree", str(d)]
    yield ["ribbon", "16", "--degree", "60"]
    for cls in _classes(4) + ["4 4 3 2 1 1 1 0"]:
        yield ["ribbon", f"[{cls}]"]
        yield ["tableaux", f"({cls})", "--diagram"]
    for n in range(1, 8):
        for order in ("backward", "identity"):
            yield ["basis", str(n), "--order", order]
    for n in range(1, 9):
        yield ["basis", str(n), "--count-only"]
    yield ["basis", "4", "--order", "2,4,1,3"]
    for d in range(-1, 12):
        yield ["basis", "5", "--degree", str(d)]
        yield ["basis", "5", "--degree", str(d), "--count-only"]
    for n in range(0, 9):
        yield ["count", str(n), "mahonian"]
        yield ["count", str(n), "ribbons"]
        yield ["count", str(n), "gf"]
    for at in ("q^0", "q^3", "7", "q^11", "q^12"):
        yield ["count", "5", "gf", "--at", at]
    yield ["count", "16", "gf", "--at", "q^60"]
    for n in range(1, 6):
        for suite in cli._SUITES:
            yield ["verify", str(n), suite]
    for d in range(-1, 12):
        yield ["verify", "5", "rank", "--degree", str(d)]
    for k in (1, 2, 3, 4):
        yield ["verify", "5", "harmonic", "--kmax", str(k)]
    for seed in ("1", "2", "3"):
        yield ["verify", "5", "oracle", "--samples", "50", "--seed", seed]
    yield ["verify", "6", "chars"]
    # bad input: one error line on stderr, exit 2
    for form in ("[3 0]", "[]", "x", "[-1 0]", "[1 a]"):
        yield ["eval", form]
    yield ["class", "[1 3 3 3]"]
    yield ["flip", "[2 2 3 3]"]
    yield ["flip", '{"boxes": [[0, 0], [0, 1]], "filling": [true, 2]}']
    yield ["flip", '{"boxes": [[0, 0], [0, 1]], "filling": [1, 1]}']
    yield ["flip", "{not json"]
    yield ["flip"]
    for argv in (["ribbon", "0"], ["ribbon", "17"], ["ribbon", "[2 0 0]"], ["ribbon", "[2 1 0]", "--degree", "1"]):
        yield argv
    yield ["tableaux", "[1 2 0]"]
    yield ["basis", "0"]
    yield ["basis", "17"]
    yield ["basis", "0", "--degree", "0"]
    yield ["basis", "-2", "--count-only", "--degree", "1"]
    yield ["basis", "4", "--order", "1,1,2,3"]
    yield ["basis", "4", "--order", ""]
    yield ["count", "0", "ribbons"]
    yield ["count", "5", "gf", "--at", "q^x"]
    yield ["count", "4", "mahonian", "--at", "q^2"]
    yield ["count", "4", "ribbons", "--at", "3"]
    yield ["verify", "0", "rank"]
    yield ["verify", "17", "chars"]
    yield ["verify", "10", "oracle"]
    yield ["verify", "4", "chars", "--degree", "2"]
    yield ["verify", "5", "oracle", "--samples", "0"]
    yield ["verify", "4", "harmonic", "--kmax", "0"]
    yield ["verify", "4", "harmonic", "--kmax", "4"]
    yield ["verify", "1", "harmonic", "--kmax", "1"]


# the benchmark's four gated records, at its seed 1
GATED = [
    ["verify", "6", "rank", "--format", "json"],
    ["verify", "5", "harmonic", "--format", "json"],
    ["verify", "6", "oracle", "--samples", "1000", "--seed", "1", "--format", "json"],
    ["verify", "8", "chars", "--format", "json"],
]


def matrix() -> list[list[str]]:
    """Every recorded argv: each of ``_runs`` in text and in JSON, then the gated records."""
    return [argv + fmt for argv in _runs() for fmt in FORMATS] + GATED


def main() -> int:
    recorded = json.loads(DATA.read_text()) if DATA.exists() else []
    before = {json.dumps(argv): d for argv, d in recorded}
    argvs = matrix()
    pairs = list(zip(argvs, digests(argvs)))
    DATA.write_text("[\n" + ",\n".join(json.dumps(p) for p in pairs) + "\n]\n")
    for argv, d in pairs:
        if before.get(json.dumps(argv)) != d:
            print("changed:" if json.dumps(argv) in before else "new:", " ".join(argv), file=sys.stderr)
    print(f"{len(pairs)} runs recorded in {DATA.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
