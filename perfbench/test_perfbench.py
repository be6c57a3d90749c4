"""Tests of the benchmark itself: seeded inputs, smoke runs, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def _spec_hashes(workload: str, seed: int) -> list:
    specs = workloads.generate_specs(workload, seed, workloads.SIZES[workload])
    return [s.sha256() for s in specs]


@pytest.mark.parametrize("workload", workloads.SIZES)
def test_same_seed_gives_same_valid_specs(workload):
    for seed in (1, 2, 31337):
        hashes = _spec_hashes(workload, seed)
        assert hashes == _spec_hashes(workload, seed)
        for spec in workloads.generate_specs(workload, seed, workloads.SIZES[workload]):
            spec.validate()
    assert len({tuple(_spec_hashes(workload, seed)) for seed in range(8)}) > 1


def test_chsc_jobs_carry_both_curvature_signs():
    specs = workloads.generate_specs("model_geometry", 5, workloads.SIZES["model_geometry"])
    signs = {workloads.spec_curvature(s) > 0 for s in specs}
    assert signs == {True, False}


def _run(workload: str, trace: int) -> tuple:
    cmd = RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    """(workload, trace) -> (info line, result line) of a tiny run."""
    return {(w, t): _run(w, t) for w in workloads.SIZES for t in (0, 1)}


@pytest.mark.parametrize("workload", workloads.SIZES)
def test_smoke_run_passes_and_digests_match_traced_run(workload, smoke_runs):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, result = smoke_runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in bench[key]}
    assert smoke_runs[(workload, 0)][0]["job_digests"] == smoke_runs[(workload, 1)][0]["job_digests"]
    layers = smoke_runs[(workload, 1)][1]["metrics"]
    assert layers["failed_frac"]["value"] == 0
    if workload == "numeric_checks":
        assert layers["series.compose_calls"]["value"] == 0


def test_every_per_layer_metric_is_measured_somewhere(smoke_runs):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seen = set()
    for workload in workloads.SIZES:
        metrics = smoke_runs[(workload, 1)][1]["metrics"]
        seen |= {name for name, m in metrics.items() if m["value"] != 0}
    expected = {m["name"] for m in bench["per_layer"]} - {"failed_frac"}
    assert expected - seen == set()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "dense_orders", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_self_time_excludes_children_and_ops_cut_across(monkeypatch):
    ticks = iter(range(1, 100))
    monkeypatch.setattr(spans, "perf_counter", lambda: next(ticks))
    ns = types.SimpleNamespace()
    ns.op = lambda: None
    ns.inner = lambda: ns.op()
    ns.outer = lambda: [ns.inner(), ns.op()]
    original_op = ns.op
    tracer = spans.Tracer()
    tracer.wrap(ns, "op", "op", kind="op")
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    tracer.uninstall()
    # the clock ticks once per read: outer 1..8, inner 2..5, op 3..4 and 6..7
    assert dict(tracer.calls) == {"op": 2, "inner": 1, "outer": 1}
    assert dict(tracer.self_s) == {"op": 2, "inner": 3, "outer": 4}
    assert tracer.layer_self_s() == 7
    assert ns.op is original_op


def test_host_speed_window_drops_bursts_and_scales_by_their_speed():
    sampler = hostspeed.SpeedSampler()
    before = signal.getsignal(signal.SIGALRM)
    sampler.start()
    try:
        mark = sampler.mark()
        deadline = perf_counter() + 0.45
        while perf_counter() < deadline:
            pass
        window = sampler.window(mark)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert window.samples >= 3
    assert 0.3 < window.wall_s < 0.45  # the bursts' own time is taken out
    assert window.speed_wall > 0 and window.speed_cpu > 0
    assert window.ref_wall_s == window.wall_s * window.speed_wall
    assert window.ref_cpu_s == window.cpu_s * window.speed_cpu


def test_host_speed_window_without_a_tick_runs_one_burst():
    sampler = hostspeed.SpeedSampler()  # not started: no timer ticks
    window = sampler.window(sampler.mark())
    assert window.samples == 1 and window.speed_wall > 0
