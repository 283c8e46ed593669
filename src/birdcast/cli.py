"""Command-line front end.

Subcommands: gen (synthesize a scene + instance), solve (run one scheduler
on an instance file), sweep (utility curves over a swept parameter, CSV
out), bench (solver timing statistics, CSV out), oracle (exact optimum
with a JSON cache), fig1 (the built-in four-user toy instance and the
schemes' utilities on it).

Exit codes: 0 success; 1 usage error or invalid input, such as an
instance file that is not valid JSON, lacks a key or holds an invalid
value; 2 runtime failure, such as an unreadable file or an instance too
large for the oracle's enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    broadcast_solve,
    dp_solve,
    kmeanspp_solve,
    marginal_util_solve,
    unicast_solve,
)
from .channel import McsTable
from .instance import ProblemInstance, evaluate_plan
from .oracle import EnumerationCapExceeded, exact_solve
from .scenario import GenParams, RadioParams, fig1_instance, generate
from .solvers import accelerated_greedy, refined_greedy

SOLVERS = {
    "birdcast": refined_greedy,
    "birdcast_accel": accelerated_greedy,
    "broadcast": broadcast_solve,
    "unicast": unicast_solve,
    "marginal_util": marginal_util_solve,
    "kmeanspp": kmeanspp_solve,
    "dp": lambda inst: dp_solve(inst, fair=False),
    "dp_fair": lambda inst: dp_solve(inst, fair=True),
}

SWEEP_VARIABLES = ("budget", "bandwidth", "n_users", "n_grids")

CSV_COLUMNS = ("solver", "variable", "value", "seed", "utility",
               "latency_s", "wall_time_s", "gain_evaluations", "feasible")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we promise 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _genparams_from_dict(d: dict) -> GenParams:
    d = dict(d)
    if "radio" in d and isinstance(d["radio"], dict):
        d["radio"] = RadioParams(**d["radio"])
    if "mcs" in d and isinstance(d["mcs"], list):
        d["mcs"] = McsTable.from_json(d["mcs"])
    if "extent" in d:
        d["extent"] = tuple(d["extent"])
    return GenParams(**d)


def _genparams_to_dict(p: GenParams) -> dict:
    d = asdict(p)
    d["radio"] = asdict(p.radio)
    d["mcs"] = p.mcs.to_json()
    d["extent"] = list(p.extent)
    return d


def _collect_gen_params(args) -> GenParams:
    overrides: dict = {}
    if args.params:
        overrides.update(json.loads(Path(args.params).read_text()))
    flag_map = {
        "n_users": args.n_users,
        "seed": args.seed,
        "grid_h": args.grid_h,
        "grid_w": args.grid_w,
        "eta": args.eta,
        "window": args.window,
        "grid_bytes": args.grid_bytes,
        "n_objects": args.n_objects,
        "n_occluders": args.n_occluders,
    }
    for key, value in flag_map.items():
        if value is not None:
            overrides[key] = value
    if args.budget_ms is not None:
        overrides["budget_s"] = args.budget_ms * 1e-3
    if args.bandwidth_mhz is not None:
        overrides["bandwidth_hz"] = args.bandwidth_mhz * 1e6
    if args.extent is not None:
        overrides["extent"] = (args.extent, args.extent)
    return _genparams_from_dict(overrides)


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", help="JSON file of generator parameters")
    sub.add_argument("--n-users", type=int, dest="n_users")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--grid-h", type=int, dest="grid_h")
    sub.add_argument("--grid-w", type=int, dest="grid_w")
    sub.add_argument("--budget-ms", type=float, dest="budget_ms")
    sub.add_argument("--bandwidth-mhz", type=float, dest="bandwidth_mhz")
    sub.add_argument("--eta", type=float)
    sub.add_argument("--window", type=int)
    sub.add_argument("--grid-bytes", type=float, dest="grid_bytes")
    sub.add_argument("--extent", type=float, help="square map side (meters)")
    sub.add_argument("--n-objects", type=int, dest="n_objects")
    sub.add_argument("--n-occluders", type=int, dest="n_occluders")


def cmd_gen(args) -> int:
    params = _collect_gen_params(args)
    scene, inst = generate(params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    provenance = {
        "params": _genparams_to_dict(params),
        "seed": params.seed,
        "version": __version__,
    }
    scene_doc = {"scene": scene.to_json(), "provenance": provenance}
    inst_doc = {**inst.to_json(), "provenance": provenance}
    (out / "scene.json").write_text(_dump(scene_doc))
    (out / "instance.json").write_text(_dump(inst_doc))
    print(f"wrote {out / 'scene.json'} and {out / 'instance.json'}")
    return 0


def _load_instance(path: str) -> ProblemInstance:
    return ProblemInstance.from_json(json.loads(Path(path).read_text()))


def cmd_solve(args) -> int:
    solvers = {**SOLVERS, "oracle": exact_solve}
    if args.solver not in solvers:
        print(f"unknown solver '{args.solver}'; available: "
              f"{', '.join(sorted(solvers))}", file=sys.stderr)
        return 1
    result = solvers[args.solver](_load_instance(args.instance))
    print(_dump({"solver": args.solver, **result.to_json()}))
    return 0


def cmd_oracle(args) -> int:
    import hashlib

    inst = _load_instance(args.instance)
    key = hashlib.sha256(
        json.dumps(inst.to_json(), sort_keys=True).encode()).hexdigest()
    cache: dict = {}
    cache_path = Path(args.cache) if args.cache else None
    if cache_path and cache_path.exists():
        cache = json.loads(cache_path.read_text())
    if key in cache:
        print(_dump({"instance_sha256": key, "cached": True, **cache[key]}))
        return 0
    result = exact_solve(inst)
    cache[key] = result.to_json()
    if cache_path:
        cache_path.write_text(_dump(cache))
    print(_dump({"instance_sha256": key, "cached": False, **cache[key]}))
    return 0


def _apply_sweep_value(params: GenParams, variable: str, value: float) -> GenParams:
    d = _genparams_to_dict(params)
    base = _genparams_from_dict  # round-trip keeps nested types
    if variable == "budget":
        d["budget_s"] = float(value)
    elif variable == "bandwidth":
        d["bandwidth_hz"] = float(value)
    elif variable == "n_users":
        d["n_users"] = int(value)
    elif variable == "n_grids":
        total = int(value)
        if total % params.grid_w != 0:
            raise ValueError(
                f"n_grids value {total} is not a multiple of grid_w "
                f"{params.grid_w}")
        d["grid_h"] = total // params.grid_w
    else:
        raise ValueError(f"unknown sweep variable '{variable}'")
    return base(d)


def _run_sweep_cell(payload: tuple) -> list[dict]:
    """One (value, seed) cell: generate once, run every requested solver."""
    params_dict, variable, value, seed, solver_ids = payload
    params = _genparams_from_dict({**params_dict, "seed": seed})
    params = _apply_sweep_value(params, variable, value)
    rows = []
    try:
        _, inst = generate(params)
    except Exception as exc:  # cell-level failure: report every solver row
        for solver_id in solver_ids:
            rows.append({"solver": solver_id, "variable": variable,
                         "value": value, "seed": seed, "error": str(exc)})
        return rows
    for solver_id in solver_ids:
        try:
            res = SOLVERS[solver_id](inst)
            rows.append({
                "solver": solver_id, "variable": variable, "value": value,
                "seed": seed, "utility": res.utility,
                "latency_s": res.latency_s, "wall_time_s": res.wall_time_s,
                "gain_evaluations": res.gain_evaluations,
                "feasible": evaluate_plan(inst, res.plan).feasible,
            })
        except Exception as exc:
            rows.append({"solver": solver_id, "variable": variable,
                         "value": value, "seed": seed, "error": str(exc)})
    return rows


def cmd_sweep(args) -> int:
    import concurrent.futures
    import csv

    spec = json.loads(Path(args.spec).read_text())
    variable = spec["variable"]
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
    values = spec["values"]
    if not values or any(v <= 0 for v in values):
        raise ValueError("values must be a non-empty list of positive numbers")
    solver_ids = spec.get("solvers", sorted(SOLVERS))
    unknown = [s for s in solver_ids if s not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown solvers in spec: {unknown}")
    reps = int(spec.get("repetitions", 1))
    base_seed = int(spec.get("seed", 0))
    params_dict = dict(spec.get("params", {}))
    cells = [
        (params_dict, variable, value, base_seed + rep, solver_ids)
        for value in values
        for rep in range(reps)
    ]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            cell_rows = list(pool.map(_run_sweep_cell, cells))
    else:
        cell_rows = [_run_sweep_cell(cell) for cell in cells]
    rows = [row for rows_ in cell_rows for row in rows_]
    rows.sort(key=lambda r: (r["solver"], r["value"], r["seed"]))

    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            if "error" in r:
                print(f"sweep cell failed: {r['solver']} {variable}="
                      f"{r['value']} seed={r['seed']}: {r['error']}",
                      file=sys.stderr)
                writer.writerow([r["solver"], variable, r["value"], r["seed"],
                                 "", "", "", "", False])
            else:
                writer.writerow([r["solver"], variable, r["value"], r["seed"],
                                 repr(r["utility"]), repr(r["latency_s"]),
                                 repr(r["wall_time_s"]),
                                 r["gain_evaluations"], r["feasible"]])

    reference = next((s for s in ("birdcast", "birdcast_accel")
                      if s in solver_ids), None)
    summary = {"variable": variable, "orderings": []}
    if reference:
        ref = {(r["value"], r["seed"]): r["utility"]
               for r in rows if r["solver"] == reference and "error" not in r}
        for r in rows:
            if r["solver"] == reference or "error" in r:
                continue
            key = (r["value"], r["seed"])
            if key in ref:
                summary["orderings"].append({
                    "value": r["value"], "seed": r["seed"],
                    "solver": r["solver"], "utility": r["utility"],
                    f"{reference}_utility": ref[key],
                    "reference_ge": ref[key] >= r["utility"],
                })
    summary_path = out.with_suffix(out.suffix + ".summary.json")
    summary_path.write_text(_dump(summary))
    print(f"wrote {out} ({len(rows)} rows) and {summary_path}")
    return 0


def cmd_bench(args) -> int:
    import csv
    import statistics

    n_users_list = [int(v) for v in args.n_users.split(",")]
    n_grids_list = [int(v) for v in args.n_grids.split(",")]
    base: dict = {}
    if args.params:
        base.update(json.loads(Path(args.params).read_text()))
    if args.budget_ms is not None:
        base["budget_s"] = args.budget_ms * 1e-3
    if args.bandwidth_mhz is not None:
        base["bandwidth_hz"] = args.bandwidth_mhz * 1e6
    grid_w = int(base.get("grid_w", GenParams().grid_w))
    rows = []
    for n_users in n_users_list:
        for n_grids in n_grids_list:
            if n_grids % grid_w != 0:
                raise ValueError(f"n_grids {n_grids} is not a multiple "
                                 f"of grid_w {grid_w}")
            samples: dict[str, dict[str, list[float]]] = {
                s: {"wall": [], "evals": []} for s in ("birdcast",
                                                       "birdcast_accel")}
            for rep in range(args.reps):
                d = dict(base)
                d.update(n_users=n_users, grid_w=grid_w,
                         grid_h=n_grids // grid_w, seed=args.seed + rep)
                _, inst = generate(_genparams_from_dict(d))
                for solver_id in ("birdcast", "birdcast_accel"):
                    res = SOLVERS[solver_id](inst)
                    samples[solver_id]["wall"].append(res.wall_time_s)
                    samples[solver_id]["evals"].append(res.gain_evaluations)
            for solver_id, data in samples.items():
                rows.append([
                    solver_id, n_users, n_grids,
                    repr(statistics.median(data["wall"])),
                    repr(float(np.percentile(data["wall"], 95))),
                    int(statistics.median(data["evals"])),
                    int(np.percentile(data["evals"], 95)),
                ])
    header = ["solver", "n_users", "n_grids", "median_wall_s",
              "p95_wall_s", "median_evals", "p95_evals"]
    if args.out == "-":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return 0


def cmd_fig1(args) -> int:
    inst = fig1_instance()
    doc = {
        "instance": inst.to_json(),
        "results": {
            "oracle": exact_solve(inst).opt_utility,
            "birdcast": refined_greedy(inst).utility,
            "birdcast_accel": accelerated_greedy(inst).utility,
            "broadcast": broadcast_solve(inst).utility,
            "unicast": unicast_solve(inst).utility,
        },
    }
    text = _dump(doc)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="birdcast",
                     description="interest-aware multicast scheduling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic scene + instance")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run one scheduler on an instance")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--solver", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="solver timing statistics to CSV")
    p_bench.add_argument("--n-users", dest="n_users", default="8,16,24",
                         help="comma-separated user counts")
    p_bench.add_argument("--n-grids", dest="n_grids", default="250",
                         help="comma-separated grid counts")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--params", help="JSON file of generator parameters")
    p_bench.add_argument("--budget-ms", type=float, dest="budget_ms")
    p_bench.add_argument("--bandwidth-mhz", type=float, dest="bandwidth_mhz")
    p_bench.add_argument("--out", default="-", help="CSV path or - for stdout")
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle", help="exact optimum with JSON cache")
    p_oracle.add_argument("instance", help="instance JSON file")
    p_oracle.add_argument("--cache", help="JSON cache file keyed by instance hash")
    p_oracle.set_defaults(func=cmd_oracle)

    p_fig1 = sub.add_parser("fig1", help="built-in four-user toy instance")
    p_fig1.add_argument("--out", help="write JSON here instead of stdout")
    p_fig1.set_defaults(func=cmd_fig1)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig()  # library notices, such as broadcast's, to stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
