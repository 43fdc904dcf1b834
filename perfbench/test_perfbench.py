"""Tests of the benchmark's own code: output gate, tracer and self time.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cvforms  # noqa: E402
import cvforms.cli  # noqa: E402
from run import REFERENCE_PROBE_S, reference_seconds, reference_times  # noqa: E402
from tracer import HOOKS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402


def _record(workload: str, seed: int = 5, **checks) -> str:
    record = WORKLOADS[workload]["expected"](seed)
    record["checks"].update(checks)
    return json.dumps(record, indent=2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_accepts_the_expected_record(workload):
    assert gate(workload, 5, 0, _record(workload)) is None


def test_gate_rejects_a_wrong_rank():
    assert "720" in gate("rank6", 5, 0, _record("rank6", rank=719))


def test_gate_rejects_a_nonzero_mismatch_count():
    assert gate("oracle6", 5, 0, _record("oracle6", mismatches=1)) is not None


def test_gate_rejects_another_seed_and_a_failed_verdict():
    assert gate("oracle6", 6, 0, _record("oracle6", seed=5)) is not None
    assert gate("chars8", 5, 0, _record("chars8", distinct=False)) is not None


def test_gate_rejects_a_nonzero_exit_and_text_output():
    assert gate("harmonic5", 5, 1, _record("harmonic5")) == "exit code 1"
    assert gate("harmonic5", 5, 0, "result: PASS\n").startswith("output is not JSON")


def test_self_time_is_duration_minus_time_covered_by_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a: 1..5 is covered once
        ("c", 8.0, 12.0, 0),  # clipped to the parent's end
        ("a", 6.0, 7.0, 0),
        ("leaf", 6.5, 6.75, 4),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 1.0 - 2.0)
    assert selfs["a"] == pytest.approx(2.0 + 0.75)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["leaf"] == pytest.approx(0.25)


def _main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cvforms.cli.main(argv)
    return code, out.getvalue()


def test_traced_verdict_equals_untraced_and_hooks_are_removed():
    argv = ["verify", "3", "rank", "--format", "json"]
    plain = _main(argv)
    evaluate = cvforms.laplace.evaluate
    tracer = Tracer()
    tracer.install(cvforms)
    try:
        assert cvforms.basis.evaluate is not evaluate
        traced = _main(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert cvforms.basis.evaluate is evaluate and cvforms.cli.evaluate is evaluate
    assert tracer.absent == []
    metrics = tracer.layer_metrics()
    assert metrics["ribbon.forms"] == 6
    assert metrics["laplace.evaluate.calls"] == metrics["laplace.evaluate.distinct"] == 6
    assert metrics["basis.slices"] == 4
    assert metrics["basis.fraction_free_rank_s"] > 0
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]


def test_missing_hook_target_is_reported_absent():
    hooks = HOOKS + (
        ("laplace.no_such_function", "laplace.no_such_function", ("laplace.gone",)),
        ("no_such_module.f", "gone.f", ()),
    )
    tracer = Tracer()
    tracer.install(cvforms, hooks)
    tracer.uninstall()
    assert tracer.absent == ["laplace.no_such_function", "no_such_module.f"]
    metrics = tracer.layer_metrics()
    assert "laplace.no_such_function_s" not in metrics and "laplace.gone" not in metrics
    assert "laplace.evaluate_s" in metrics


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.install(cvforms)
    tracer.uninstall()
    layer = set(tracer.layer_metrics()) | {"trace.overhead_s"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_reference_seconds_leave_out_probes_and_divide_by_local_probe_time():
    ref = REFERENCE_PROBE_S
    # probes of the reference length every second from t=1: 10 s less 10 probes
    steady = [(float(t), ref) for t in range(1, 11)]
    assert reference_seconds(steady, 0.0, 10.5) == pytest.approx(10.5 - 10 * ref)
    # the same run with the host at half speed for the second half
    slow = [(float(t), ref if t <= 5 else 2 * ref) for t in range(1, 11)]
    half = reference_seconds(slow, 6.0, 10.5)
    assert half == pytest.approx((4 * (1 - 2 * ref) + 0.5 - 2 * ref) / 2)
    # only probes inside the interval are left out; one before it still sets the speed
    assert reference_seconds(slow, 10.2, 10.4) == pytest.approx(0.1)


def test_reference_times_scale_cpu_like_wall():
    ref = REFERENCE_PROBE_S
    probes = [(0.5, 2 * ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 2 * ref)]
    record = {"start": 0.0, "ready": 0.8, "call": [1.5, 3.5], "wall_s": 2.0 - 4 * ref, "cpu_s": 1.0,
              "setup_s": 0.8, "peak_rss_mb": 30.0, "probes": probes}
    scaled = reference_times(record)
    assert scaled["wall_s"] == pytest.approx(record["wall_s"] / 2)
    assert scaled["cpu_s"] == pytest.approx(0.5)
    assert scaled["setup_s"] == pytest.approx((0.8 - 2 * ref) / 2)
    assert scaled["raw_setup_s"] == pytest.approx(0.8 - 2 * ref)
    assert scaled["peak_rss_mb"] == 30.0 and scaled["probe_s"] == 2 * ref


@pytest.mark.parametrize("traced", ["0", "1"])
def test_child_probes_only_untraced_runs(traced):
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "child.py"), str(ROOT / "src"), traced, "verify", "4", "rank", "--format", "json"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert json.loads(record["stdout"])["checks"]["rank"] == 24
    if traced == "0":
        assert record["probes"] and all(duration > 0 for _, duration in record["probes"])
        assert record["ready"] < record["call"][0] < record["call"][1]
        assert "trace" not in record
    else:
        assert "probes" not in record and "trace" in record
    assert 0 < record["wall_s"] and 0 < record["cpu_s"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chars8", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
