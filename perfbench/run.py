"""Benchmark of the cvforms ``verify`` workloads.

    python3 perfbench/run.py --workload rank6 --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` and listed, with the metrics,
in ``BENCHMARK.json`` at the repository root.  Every sample runs one
workload in a fresh interpreter (``child.py``) through the public entry
point ``cvforms.cli.main`` with the default ``--jobs 1``, one process at
a time, and checks its JSON record exactly.  Samples repeat until the
next one would overrun ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics, each the median over the
samples: ``wall_s`` (``cli.main`` call to return), ``cpu_s`` (user plus
system CPU of that call, child processes included), ``peak_rss_mb`` and
``setup_s`` (process start to ``cvforms.cli`` imported).  Only samples
that pass the output check count toward the medians.  Every sample of a
seeded workload takes its inputs from ``--seed`` itself, so all samples
of a run, timed or traced, measure the same inputs.

The three times are given in reference seconds.  ``child.py`` runs a
fixed probe on a timer throughout each untraced sample; every stretch of
time between two probes is divided by the local probe time (the median of
the five probes around it) and multiplied by ``REFERENCE_PROBE_S``.  On a
shared host the speed at which the same Python code runs can drift by
tens of percent within seconds to minutes; the probe slows down with the
program, so the sum stays steady where the measured time does not.  A faster
program gives a proportionally smaller figure.  ``cpu_s`` is scaled by
the same factor as ``wall_s``.  The measured times are kept in the detail
record (``raw_wall_s``, ``raw_cpu_s``, ``raw_setup_s``), with the median
probe time.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer self times and counters of ``tracer.py`` plus
``trace.overhead_s``, the traced minus the untraced measured ``wall_s``
(per-layer times are not scaled).  The
traced record must equal the untraced one, and counters must repeat
exactly between traced samples.  Spans of the last traced sample are
written to ``perfbench/out/``.

The line before the last is a detail record: every sample, the failed
share, counter changes against ``workloads.SEED_COUNTERS`` and the
interpreter, ``nproc``, CPU model and source commit.  The last line is
the result object.  Tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_unit
from workloads import SEED_COUNTERS, WORKLOADS, gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIMED_METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
CHILD_GRACE_S = 60.0
# median time of child.probe_work in a fresh interpreter on a 2-vCPU Intel
# Xeon under Python 3.11, so that reference seconds are close to seconds
# measured on that host
REFERENCE_PROBE_S = 0.0003


class Runner:
    """Starts child processes until a deadline.

    A child may run past the deadline by as long as the longest child so
    far, or by ``CHILD_GRACE_S`` while none has finished; then it is killed.
    """

    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds
        self.longest = 0.0

    def has_time(self) -> bool:
        return time.monotonic() + self.longest <= self.deadline

    def child(self, *args: str) -> tuple[dict | None, str | None]:
        """(record, None) from one child process, or (None, reason)."""
        start = time.monotonic()
        timeout = max(0.0, self.deadline - start) + max(self.longest, CHILD_GRACE_S)
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "child.py"), str(SRC), *args],
                capture_output=True,
                text=True,
                timeout=timeout,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.longest = max(self.longest, timeout)
            return None, f"no answer within {timeout:.0f} s"
        self.longest = max(self.longest, time.monotonic() - start)
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"child exited {proc.returncode}: {tail[0]}"
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["start"] = start
        record["setup_s"] = record["ready"] - start
        return record, None


def sample(runner: Runner, workload: str, seed: int, traced: bool) -> tuple[dict | None, str | None]:
    record, error = runner.child("1" if traced else "0", *WORKLOADS[workload]["argv"](seed))
    if record is not None:
        error = gate(workload, seed, record["exit"], record["stdout"])
    return record, error


def timed_run(runner: Runner, workload: str, seed: int) -> tuple[dict, list[dict], int, list[str]]:
    samples, attempted, errors = [], 0, []
    while True:
        record, error = sample(runner, workload, seed, traced=False)
        attempted += 1
        if not error and not record["probes"]:
            error = "the speed probe never ran"
        if error:
            errors.append(error)
        else:
            samples.append(reference_times(record))
        if not runner.has_time():
            break
    if not samples:
        raise RuntimeError(f"no sample completed: {errors[0]}")
    metrics = {name: (statistics.median(s[name] for s in samples), unit) for name, unit in TIMED_METRICS}
    return metrics, samples, attempted, errors


def reference_seconds(probes: list, begin: float, end: float) -> float:
    """Time from ``begin`` to ``end`` at the reference speed, probe time left out.

    ``probes`` are (start, duration) pairs in start order.  Each stretch
    up to a probe is divided by that probe's local time, the median of it
    and its two neighbours on each side; the stretch after the last probe
    before ``end`` uses that probe's local time.
    """
    durations = [duration for _, duration in probes]
    local = [statistics.median(durations[max(0, i - 2) : i + 3]) for i in range(len(probes))]
    total, last, speed = 0.0, begin, local[0]
    for (start, duration), here in zip(probes, local):
        if start >= end:
            break
        speed = here
        if start >= begin:
            total += (start - last) / speed
            last = start + duration
    total += (end - last) / speed
    return total * REFERENCE_PROBE_S


def reference_times(record: dict) -> dict:
    """The timed metrics of one sample, times in reference seconds."""
    probes = record["probes"]
    wall = reference_seconds(probes, *record["call"])
    return {
        "wall_s": wall,
        "cpu_s": record["cpu_s"] * wall / record["wall_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": reference_seconds(probes, record["start"], record["ready"]),
        "raw_wall_s": record["wall_s"],
        "raw_cpu_s": record["cpu_s"],
        "raw_setup_s": record["setup_s"] - sum(d for s, d in probes if s < record["ready"]),
        "probe_s": statistics.median(d for _, d in probes),
    }


def traced_run(runner: Runner, workload: str, seed: int) -> tuple[dict, list[dict], int, list[str], dict]:
    pairs, attempted, errors = [], 0, []
    spans, absent = [], []
    while True:
        # alternate which side goes first, so neither always runs on a warmer machine
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        got = {}
        for traced in order:
            record, error = sample(runner, workload, seed, traced)
            attempted += 1
            if error:
                errors.append(error)
            got[traced] = record if error is None else None
        plain, traced = got[False], got[True]
        if plain is None or traced is None:
            break
        layer = dict(traced["trace"]["metrics"])
        layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        problems = []
        if plain["stdout"] != traced["stdout"]:
            problems.append("traced verdict differs from the untraced one")
        if pairs:
            problems.extend(
                f"counter {name} did not repeat: {pairs[0][name]} then {layer[name]}"
                for name in layer
                if metric_unit(name) != "s" and layer[name] != pairs[0][name]
            )
        if problems:
            errors.append("; ".join(problems))
        pairs.append(layer)
        spans, absent = traced["trace"]["spans"], traced["trace"]["absent"]
        if not runner.has_time():
            break
    if not pairs:
        raise RuntimeError(f"no traced pair completed: {errors[0]}")
    metrics = {}
    for name, first in pairs[0].items():
        unit = metric_unit(name)
        # counters repeat exactly, so the first pair gives them; times are medians
        metrics[name] = (statistics.median(p[name] for p in pairs) if unit == "s" else first, unit)
    drift = {
        name: {"seed": value, "measured": pairs[0].get(name)}
        for name, value in SEED_COUNTERS[workload].items()
        if pairs[0].get(name) != value
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "absent": absent, "spans": spans}))
    extra = {"absent": absent, "counter_drift": drift, "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, pairs, attempted, errors, extra


def environment() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cvforms").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """Commit checked out at ``root``; None when ``root`` is not a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            cwd=root,
            # a checkout without .git must not report the commit of a repository around it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cvforms verify benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvforms" / "cli.py").is_file():
        print(f"error: no cvforms sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.seconds)
    try:
        if args.trace:
            metrics, samples, attempted, errors, extra = traced_run(runner, args.workload, args.seed)
        else:
            metrics, samples, attempted, errors = timed_run(runner, args.workload, args.seed)
            extra = {}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in errors:
        print(f"failed: {error}", file=sys.stderr)
    for name, change in extra.get("counter_drift", {}).items():
        print(f"counter {name} is {change['measured']}, {change['seed']} when the benchmark was defined", file=sys.stderr)
    failed = len(errors)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "samples": samples,
        "errors": errors,
        "environment": environment(),
        **extra,
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
