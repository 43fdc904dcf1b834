"""One run of ``cvforms.cli.main`` in a fresh interpreter.

    python3 -I child.py SRC 0|1 CLI_ARGS...

Imports ``cvforms.cli`` from SRC before anything else, so that the time
at which it is ready marks the end of set-up, then runs the CLI with its
stdout captured, traced when the second argument is 1.  Prints one JSON
line: ``ready`` (``time.monotonic``), ``exit``, ``stdout``, ``wall_s``,
``cpu_s``, ``peak_rss_mb`` and, when traced, ``trace``.

An untraced run also measures how fast the host runs Python code while
it works.  From before ``cvforms`` is imported until ``cli.main``
returns, a timer signal every ``PROBE_INTERVAL_S`` runs ``probe_work``, a
fixed piece of pure-Python work, and times it.  The record then holds
``call`` (``time.monotonic`` at the call and its return) and ``probes``
(start and duration of every probe); ``wall_s`` and ``cpu_s`` already
have the probe time within the call taken out.  A traced run runs no
probe, so the per-layer self times contain none of it.
"""

import itertools
import signal
import sys
import time

PROBE_INTERVAL_S = 0.02
_probes = []  # (time.monotonic at start, duration) of every probe


def probe_work() -> int:
    """Tuples, sorting, dict updates and integer row elimination, about 0.25 ms."""
    counts = {}
    for perm in itertools.permutations(range(5)):
        key = tuple(sorted(perm[:3])) + (perm[3],)
        counts[key] = counts.get(key, 0) + perm[4] * 3**40
    total = 0
    for i in range(600):
        total += (i * 7919) % 13
    rows = [[(i * 31 + j * 17) % 97 - 48 for j in range(12)] for i in range(8)]
    pivot = 1
    for c in range(6):
        p = rows[c][c] or 1
        for r in range(c + 1, 8):
            f = rows[r][c]
            rows[r] = [(p * x - f * y) // pivot for x, y in zip(rows[r], rows[c])]
        pivot = p
    return len(counts) + total + rows[-1][-1]


def _on_alarm(signum, frame):
    start = time.monotonic()
    probe_work()
    _probes.append((start, time.monotonic() - start))


PROBED = sys.argv[2] == "0"
if PROBED:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

sys.path.insert(0, sys.argv[1])
import cvforms.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    src, traced, cli_args = os.path.abspath(argv[0]), argv[1] == "1", argv[2:]
    if not os.path.abspath(cvforms.cli.__file__).startswith(os.path.join(src, "")):
        print(f"cvforms was imported from {cvforms.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cvforms)
    out = io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cvforms.cli.main(cli_args)
    t1 = time.monotonic()
    cpu = _cpu_seconds() - cpu0
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    peak_kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    in_call = sum(duration for start, duration in _probes if t0 <= start < t1)
    record = {
        "ready": READY,
        "exit": code,
        "stdout": out.getvalue(),
        "wall_s": t1 - t0 - in_call,
        "cpu_s": cpu - in_call,
        "peak_rss_mb": peak_kb / 1024,
    }
    if PROBED:
        record["call"] = [t0, t1]
        record["probes"] = _probes
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = {
            "metrics": tracer.layer_metrics(),
            "absent": tracer.absent,
            "spans": tracer.spans,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
