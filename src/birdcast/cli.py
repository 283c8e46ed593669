"""Command-line front end.

Subcommands: gen (synthesize a scene + instance), solve (run one scheduler,
or the exact oracle with --solver oracle, on an instance file), sweep
(utility curves over a swept parameter, CSV out), bench (solver timing
statistics, CSV out), fig1 (the built-in four-user toy instance and the
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
import math
import sys
from dataclasses import asdict, fields, replace
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
from .channel import McsTable, _all_numbers, _array, _numbers, _object
from .instance import ProblemInstance, evaluate_plan
from .oracle import EnumerationCapExceeded, exact_solve
from .scenario import GenParams, fig1_instance, generate
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

# the GenParams field each swept variable sets, and its type; an n_grids
# value sets grid_h to the grid count over grid_w
_SWEEP_FIELDS = {"budget": ("budget_s", float),
                 "bandwidth": ("bandwidth_hz", float),
                 "n_users": ("n_users", int),
                 "n_grids": ("grid_h", int)}
SWEEP_VARIABLES = tuple(_SWEEP_FIELDS)

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
    """GenParams from a JSON object whose keys are GenParams fields: those
    annotated int take integers; those annotated float, and the extent
    entries, numbers. The scene model's constants are fixed in scenario.py,
    so a key that names one, like any other key, is invalid input."""
    d = dict(_object(d, "params"))
    unknown = sorted(set(d) - {f.name for f in fields(GenParams)})
    if unknown:
        raise ValueError(f"{', '.join(unknown)}: not a generator parameter")
    for f in fields(GenParams):
        if f.name in d and f.type in ("int", "float"):
            _numbers([d[f.name]], f.name, integers=f.type == "int")
    if "mcs" in d:
        d["mcs"] = McsTable.from_json(d["mcs"])
    if "extent" in d:
        d["extent"] = tuple(_numbers(d["extent"], "extent"))
    return GenParams(**d)


def _genparams_to_dict(p: GenParams) -> dict:
    d = asdict(p)
    d["mcs"] = p.mcs.to_json()
    d["extent"] = list(p.extent)
    return d


def _read_gen_params(args, **fields) -> GenParams:
    """GenParams from the --params file, then `fields`, then --budget-ms
    and --bandwidth-mhz, each overriding what came before."""
    d = json.loads(Path(args.params).read_text()) if args.params else {}
    d = {**_object(d, "params"), **fields}
    if args.budget_ms is not None:
        d["budget_s"] = args.budget_ms * 1e-3
    if args.bandwidth_mhz is not None:
        d["bandwidth_hz"] = args.bandwidth_mhz * 1e6
    return _genparams_from_dict(d)


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
    flags = ("n_users", "seed", "grid_h", "grid_w", "eta", "window",
             "grid_bytes", "n_objects", "n_occluders")
    fields = {k: getattr(args, k) for k in flags
              if getattr(args, k) is not None}
    if args.extent is not None:
        fields["extent"] = (args.extent, args.extent)
    params = _read_gen_params(args, **fields)
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
        raise ValueError(f"unknown solver '{args.solver}'; available: "
                         f"{', '.join(sorted(solvers))}")
    result = solvers[args.solver](_load_instance(args.instance))
    print(_dump({"solver": args.solver, **result.to_json()}))
    return 0


def _count(value, name: str) -> int:
    """value as a count of at least 1; a fraction, a JSON true or false,
    or anything below 1 is invalid input."""
    # a whole float such as 2.0 counts; inf % 1 and nan % 1 are nan
    if not (_all_numbers([value]) and value % 1 == 0 and value >= 1):
        raise ValueError(f"{name} must be a whole number >= 1, not {value!r}")
    return int(value)


def _apply_sweep_value(params: GenParams, variable: str,
                       value: float) -> GenParams:
    """params with the swept variable set to value; a count must be a
    whole number, and a grid count a multiple of grid_w."""
    name, kind = _SWEEP_FIELDS[variable]
    if kind is int and not float(value).is_integer():
        raise ValueError(f"{variable} value {value} is not a whole number")
    value = kind(value)
    if variable == "n_grids":
        if value % params.grid_w != 0:
            raise ValueError(
                f"n_grids value {value} is not a multiple of grid_w "
                f"{params.grid_w}")
        value //= params.grid_w
    return replace(params, **{name: value})


def _run_sweep_cell(payload: tuple) -> list[dict]:
    """One (value, seed) cell: generate once, run every requested solver."""
    params, variable, value, solver_ids = payload
    cell = {"variable": variable, "value": value, "seed": params.seed}
    try:
        _, inst = generate(params)
    except Exception as exc:  # cell-level failure: report every solver row
        return [{"solver": s, **cell, "error": str(exc)} for s in solver_ids]
    rows = []
    for solver_id in solver_ids:
        row = {"solver": solver_id, **cell}
        try:
            res = SOLVERS[solver_id](inst)
            row.update(utility=res.utility, latency_s=res.latency_s,
                       wall_time_s=res.wall_time_s,
                       gain_evaluations=res.gain_evaluations,
                       feasible=evaluate_plan(inst, res.plan).feasible)
        except Exception as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    import concurrent.futures
    import csv

    spec = _object(json.loads(Path(args.spec).read_text()), "spec")
    variable = spec["variable"]
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
    values = _numbers(spec["values"], "values")
    if not values or not all(0 < v < math.inf for v in values):
        raise ValueError("values must be a non-empty list of positive, "
                         "finite numbers")
    solver_ids = _array(spec.get("solvers", sorted(SOLVERS)), "solvers")
    for solver_id in solver_ids:
        if not isinstance(solver_id, str):
            raise ValueError(f"solvers: names only, not {solver_id!r}")
    unknown = [s for s in solver_ids if s not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown solvers in spec: {unknown}")
    reps = _count(spec.get("repetitions", 1), "repetitions")
    [base_seed] = _numbers([spec.get("seed", 0)], "seed", integers=True)
    base = _genparams_from_dict(spec.get("params", {}))
    cells = [
        (_apply_sweep_value(replace(base, seed=base_seed + rep), variable,
                            value), variable, value, solver_ids)
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
    import contextlib
    import csv
    import statistics

    n_users_list = [int(v) for v in args.n_users.split(",")]
    n_grids_list = [int(v) for v in args.n_grids.split(",")]
    _count(args.reps, "--reps")
    base = _read_gen_params(args)
    rows = []
    for n_users in n_users_list:
        for n_grids in n_grids_list:
            sized = _apply_sweep_value(
                _apply_sweep_value(base, "n_users", n_users),
                "n_grids", n_grids)
            samples: dict[str, dict[str, list[float]]] = {
                s: {"wall": [], "evals": []} for s in ("birdcast",
                                                       "birdcast_accel")}
            for rep in range(args.reps):
                _, inst = generate(replace(sized, seed=args.seed + rep))
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
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else Path(args.out).open("w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "n_users", "n_grids", "median_wall_s",
                         "p95_wall_s", "median_evals", "p95_evals"])
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
