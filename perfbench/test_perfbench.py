"""Self-tests of the benchmark harness at tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.NAMED) == list(workloads.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert per_layer == {k: (v["unit"], v["better"]) for k, v in LAYERS.items()}
    e2e_names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "setup_s" in e2e_names
    for moves in (v["moves"] for v in LAYERS.values()):
        for target in moves:
            metric, workload = target.split("@")
            assert metric in e2e_names and workload in workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(name):
    report, result = run.run_workload(name, seed=5, seconds=0.2, trace=False,
                                      size="smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert set(run.NAMED[name]) | {"utility_frac", "peak_rss_mb", "setup_s",
                                   "failed_frac"} <= set(report["named"])
    assert all(m["samples"] >= 1 for m in report["named"].values())

    report, result = run.run_workload(name, seed=5, seconds=0.2, trace=True,
                                      size="smoke")
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert (HERE.parent / report["spans_file"]).is_file()
    probed = [m for m in report["layers"].values() if m["source"] == "probe"]
    assert all(m["samples"] >= run.PROBE_OPS for m in probed)


def test_solver_timings_run_without_tracemalloc(monkeypatch):
    real = workloads.SOLVERS["birdcast_accel"]
    tracing = []

    def spy(inst):
        tracing.append(tracemalloc.is_tracing())
        return real(inst)

    monkeypatch.setitem(workloads.SOLVERS, "birdcast_accel", spy)
    rec = Recorder(trace=True)
    wl = workloads.make("rsu_frames", "smoke")
    run.measure(wl, rec, seed=5, seconds=float("inf"), setup_reps=1, max_ops=2)
    # warm-up frames, then per frame the timed calls and the untimed
    # tracemalloc re-run
    calls = workloads.PAPER_CALLS
    assert tracing == ([False] * calls * wl.warmup_frames
                       + ([False] * calls + [True]) * 2)
    assert len(rec.layers["solvers.accelerated_greedy.peak_alloc_mb"]) == 2


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrong_schedule_is_a_failure(name, monkeypatch):
    real = workloads.SOLVERS["birdcast_accel"]

    def overstated(inst):
        res = real(inst)
        return dataclasses.replace(res, utility=res.utility + 1.0)

    monkeypatch.setitem(workloads.SOLVERS, "birdcast_accel", overstated)
    report, result = run.run_workload(name, seed=5, seconds=0.2, trace=False,
                                      size="smoke")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert report["failures"]
    assert result["metrics"] == {}


def test_a_repeated_paper_call_that_differs_is_a_failure(monkeypatch):
    real = workloads.SOLVERS["birdcast_accel"]
    calls = []

    def drifting(inst):
        res = real(inst)
        calls.append(1)
        return dataclasses.replace(res, utility=res.utility + len(calls))

    monkeypatch.setitem(workloads.SOLVERS, "birdcast_accel", drifting)
    rec = Recorder(trace=False)
    _, inst = workloads.bc.generate(workloads.bc.GenParams(
        seed=5, **workloads.TINY_GEN))
    rec.begin_op(0)
    with rec.span("solvers.accelerated_greedy") as first:
        res = drifting(inst)
    workloads.best_seconds(rec, "birdcast_accel", inst, res, first)
    rec.end_op()
    assert rec.failed_ops == 1 and "differs" in rec.failures[0]


def test_host_speed_is_nominal_over_recent_kernel_median(monkeypatch):
    kernel = workloads.GreedyKernel()
    monkeypatch.setattr(kernel, "_kernel", lambda: None)
    rec = Recorder(trace=False)
    samples = rec.host_kernel_ms["greedy"]
    samples += [9.0] + [2 * kernel.nominal_ms] * kernel.WINDOW
    kernel._last = float("inf")  # the last sample is recent: take no new one
    assert kernel.speed(rec) == pytest.approx(0.5)
    kernel._last = -float("inf")  # REFRESH_S has passed: take one
    kernel.speed(rec)
    assert len(samples) == kernel.WINDOW + 2
