"""The four verify workloads and the exact output each must produce.

Each workload is one ``cvforms verify`` call with the default ``--jobs 1``.
``argv`` builds its command line from the benchmark seed; only ``oracle6``
draws inputs from it.  ``expected`` is the complete ``--format json``
record the call must print, and ``gate`` compares against it exactly.
``SEED_COUNTERS`` are counter values measured at the commit that
introduced this benchmark; a traced run reports any counter that differs.
"""

from __future__ import annotations

import json

# five times the CLI default: the cost of a random form varies, and with
# 200 forms the time of one seed differed from another's by up to a fifth
ORACLE_SAMPLES = 1000


def _verify(n: int, suite: str, checks: dict) -> dict:
    return {"schema": "cvforms.verify/1", "suite": suite, "n": n, "checks": checks, "ok": True}


WORKLOADS = {
    "rank6": {
        "argv": lambda seed: ["verify", "6", "rank", "--format", "json"],
        "expected": lambda seed: _verify(6, "rank", {"forms": 720, "rank": 720, "mode": "full expansion"}),
    },
    "harmonic5": {
        "argv": lambda seed: ["verify", "5", "harmonic", "--format", "json"],
        "expected": lambda seed: _verify(5, "harmonic", {"forms": 120, "kmax": 4, "failures": 0}),
    },
    "oracle6": {
        "argv": lambda seed: [
            "verify", "6", "oracle", "--samples", str(ORACLE_SAMPLES), "--seed", str(seed), "--format", "json"
        ],
        "expected": lambda seed: _verify(
            6,
            "oracle",
            {
                "forms": ORACLE_SAMPLES,
                "mismatches": 0,
                "source": f"{ORACLE_SAMPLES} seeded samples (seed {seed})",
            },
        ),
    },
    "chars8": {
        "argv": lambda seed: ["verify", "8", "chars", "--format", "json"],
        "expected": lambda seed: _verify(8, "chars", {"forms": 40320, "distinct": True}),
    },
}

SEED_COUNTERS = {
    "rank6": {
        "laplace.rowblocks": 7992,
        "laplace.monomials": 81663,
        "basis.slices": 16,
        "basis.max_slice_rows": 101,
        "basis.max_slice_cols": 2730,
        "basis.nonzeros": 81663,
        "basis.max_entry_bits": 9,
    },
    "harmonic5": {
        "laplace.evaluate.calls": 1920,
        "laplace.evaluate.distinct": 965,
    },
    "oracle6": {},
    "chars8": {
        "ribbon.forms": 40320,
    },
}


def gate(workload: str, seed: int, exit_code: int, stdout: str) -> str | None:
    """None when the run passed, else a one-line reason it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    expected = WORKLOADS[workload]["expected"](seed)
    if record != expected:
        return f"record {json.dumps(record, sort_keys=True)} != expected {json.dumps(expected, sort_keys=True)}"
    return None
