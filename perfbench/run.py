"""Benchmark of birdcast's per-frame path, solver suite, CLI and oracle.

One workload, from the root of a checkout:

    python3 perfbench/run.py --workload rsu_frames --seed 1 --seconds 28 --trace 0

It prints one JSON line with every metric, its unit and sample count plus
the run's environment, then a last line with exactly the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer metrics of layers.json with --trace 1.

Every workload, untraced and then traced, each run in a fresh process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 28

That prints the metrics by workload and the tracing overhead of each
end-to-end timing (traced minus untraced).
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads, here and in every child
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
PROBE_OPS = 3
# Each workload's own names for its figures in the report:
# name -> (samples, percentile or 0 for the minimum, scale, unit).
NAMED = {
    "rsu_frames": {"frame_p50_ms": ("op_ms", 50, 1.0, "ms"),
                   "frame_p95_ms": ("op_ms", 95, 1.0, "ms")},
    "solver_suite": {"suite_paper_s": ("paper_ms", 50, 1e-3, "s"),
                     "suite_baselines_s": ("baselines_ms", 50, 1e-3, "s")},
    "cli_roundtrip": {"cli_gen_s": ("gen_ms", 50, 1e-3, "s"),
                      "cli_solve_s": ("solve_ms", 50, 1e-3, "s")},
    "oracle_certify": {"certify_p50_ms": ("op_ms", 50, 1.0, "ms"),
                       "approx_ratio_min": ("approx_ratio", 0, 1.0, "ratio")},
}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_child_import(rec) -> None:
    from workloads import run_child
    proc = run_child(rec, ["-c", "import birdcast"])
    if proc.returncode != 0:
        raise RuntimeError(f"importing birdcast failed: {proc.stderr[-500:]}")


def measure(workload, rec, seed: int, seconds: float, setup_reps: int,
            max_ops: int | None = None) -> tuple[list[float], int, float]:
    """Set up setup_reps times, then run operations for `seconds`.

    Returns (setup seconds per repetition, operations attempted, seconds
    spent running them). At least one operation runs.
    """
    setup_s = []
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        run_child_import(rec)
        state = workload.setup(rec, seed)
        setup_s.append(time.perf_counter() - t0)
    attempted = 0
    try:
        start = time.perf_counter()
        while attempted == 0 or (time.perf_counter() - start < seconds
                                 and (max_ops is None or attempted < max_ops)):
            rec.begin_op(attempted)
            try:
                workload.op(rec, state, attempted)
            except Exception as exc:  # a failed operation is counted, not fatal
                rec.fail(f"{type(exc).__name__}: {exc}")
            rec.end_op()
            attempted += 1
        elapsed = time.perf_counter() - start
    finally:
        workload.close(state)
    return setup_s, attempted, elapsed


def end_to_end(name: str, workload, rec,
               setup_s: list[float]) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, the workload's own figures for the report).

    All figures come from the operations that passed their checks. The
    workload's own figures are times as measured. The operation timings
    of BENCHMARK.json are the same times at the host's nominal speed: each
    time multiplied by the speed() of the workload's HostKernel, taken
    beside it, so that a run on a host slowed by other tenants reads what
    it would have read at the usual speed. setup_s, mostly a child's
    import, which the kernels do not track, stays as measured.
    """
    from workloads import GREEDY, CLIP, delivered_frac

    if not rec.n_ops:
        return {}, {}
    cols = rec.columns

    def timing(key: str, q: float, unit: str, scale: float = 1.0) -> dict:
        return metric(percentile(cols[key], q) * scale, unit, len(cols[key]))

    who = (resource.RUSAGE_CHILDREN if workload.in_children
           else resource.RUSAGE_SELF)
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    e2e = {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "op_p50_ms": timing("op_nominal_ms", 50, "ms"),
        "op_p95_ms": timing("op_nominal_ms", 95, "ms"),
        "paper_p50_ms": timing("paper_nominal_ms", 50, "ms"),
        "utility_frac": metric(
            delivered_frac(sum(cols["utility"]), sum(cols["mass"])), "ratio",
            rec.n_ops),
        "peak_rss_mb": metric(peak_mb, "MB", 1),
    }
    named = {}
    for key, (samples, q, scale, unit) in NAMED[name].items():
        if q == 0:
            named[key] = metric(min(cols[samples]), unit, rec.n_ops)
        else:
            named[key] = timing(samples, q, unit, scale)
    for key in ("setup_s", "utility_frac", "peak_rss_mb"):
        named[key] = e2e[key]
    for kernel in (GREEDY, CLIP):
        samples = rec.host_kernel_ms.get(kernel.name)
        if samples:
            kernel_ms = statistics.median(samples)
            named[f"host_{kernel.name}_ms"] = metric(kernel_ms, "ms",
                                                     len(samples))
            named[f"host_speed_{kernel.name}"] = metric(
                kernel.nominal_ms / kernel_ms, "ratio", len(samples))
    return e2e, named


def layer_samples(rec, spans: dict, name: str) -> list[float]:
    if name in rec.layers:
        return rec.layers[name]
    for suffix, scale in (("_ms", 1e3), ("_s", 1.0)):
        if name.endswith(suffix):
            return [v * scale for v in spans.get(name[:-len(suffix)], [])]
    return []


def layer_metrics(rec, probe) -> dict:
    """Median of each layer metric's samples.

    A layer this workload never calls is taken from the probe: the
    smoke-size runs of the other workloads that every traced run appends,
    so each traced run reports every layer.
    """
    layers = json.loads((HERE / "layers.json").read_text())
    own, probed = rec.span_seconds(), probe.span_seconds()
    out = {}
    for name, spec in layers.items():
        values, source = layer_samples(rec, own, name), "workload"
        if not values:
            values, source = layer_samples(probe, probed, name), "probe"
        if not values:
            raise RuntimeError(f"no samples for layer metric {name}")
        out[name] = {**metric(statistics.median(values), spec["unit"],
                              len(values)),
                     "source": source, "moves": spec["moves"]}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """One run of one workload; returns (report, result line)."""
    import workloads
    from recorder import Recorder

    rec = Recorder(trace)
    wl = workloads.make(name, size)
    setup_s, attempted, elapsed = measure(wl, rec, seed, seconds, SETUP_REPS)
    e2e, named = end_to_end(name, wl, rec, setup_s)
    failed = rec.failed_ops
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "elapsed_s": elapsed, "trace": int(trace), "size": size,
        "attempted": attempted, "failed": failed, "failures": rec.failures,
        "environment": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        },
        "end_to_end": e2e,
        "named": {**named, "failed_frac": metric(failed / attempted, "ratio",
                                                 attempted)},
    }
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in e2e.items()}
    if trace:
        probe = Recorder(trace=True)
        for other in workloads.WORKLOADS:
            if other != name:
                measure(workloads.make(other, "smoke"), probe, seed,
                        float("inf"), 1, max_ops=PROBE_OPS)
        layers = layer_metrics(rec, probe)
        report["layers"] = layers
        spans_path = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.json"
        rec.write_spans(spans_path, {"workload": name, "seed": seed})
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in layers.items()}
    result = {"correct": failed == 0 and bool(e2e), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in its own process, untraced then traced."""
    summary = {}
    for name in NAMED:
        runs = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", repr(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise RuntimeError(f"{name} --trace {trace} failed: "
                                   f"{proc.stderr[-1000:]}")
            runs[trace] = json.loads(lines[-2])
        plain, traced = runs[0], runs[1]
        overhead = {
            k: metric(traced["end_to_end"][k]["value"] - v["value"], v["unit"],
                      v["samples"])
            for k, v in plain["end_to_end"].items() if v["unit"] in ("s", "ms")
        }
        summary[name] = {
            "attempted": plain["attempted"], "failed": plain["failed"],
            "named": plain["named"], "end_to_end": plain["end_to_end"],
            "tracing_overhead": overhead, "layers": traced["layers"],
            "environment": plain["environment"],
        }
        for key, m in plain["named"].items():
            print(f"{name:15s} {key:18s} {m['value']:14.6g} {m['unit']:6s} "
                  f"n={m['samples']}")
        for key, m in overhead.items():
            print(f"{name:15s} overhead {key:9s} {m['value']:+14.6g} {m['unit']}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*NAMED, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "birdcast").is_dir():
        print(f"error: no birdcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.filterwarnings("ignore", message="broadcast: dropping")

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
