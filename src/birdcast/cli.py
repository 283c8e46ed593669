"""Command-line front end.

Subcommands: gen (synthesize a scene + instance), solve (run one scheduler,
or the exact oracle with --solver oracle, on an instance file), sweep
(utility curves over a swept parameter, CSV out), bench (solver timing
statistics, CSV out), fig1 (the built-in four-user toy instance and the
schemes' utilities on it).

Exit codes: 0 success; 1 usage error or invalid input, such as an
instance file that is not valid JSON, lacks a key or holds an invalid
value; 2 runtime failure, such as an unreadable file, running out of
memory or an instance whose exact search needs more nodes than the
oracle's cap, ENUMERATION_CAP.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
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

# the most cells, (value, repetition) pairs, a sweep spec may ask for; the
# cells are built, and their rows held, before the CSV is written
MAX_SWEEP_CELLS = 100_000


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
    d = _object(d, "params")
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


def _add_params_flags(sub: argparse.ArgumentParser) -> None:
    """The flags that _read_gen_params reads."""
    sub.add_argument("--params", help="JSON file of generator parameters")
    sub.add_argument("--budget-ms", type=float, dest="budget_ms")
    sub.add_argument("--bandwidth-mhz", type=float, dest="bandwidth_mhz")


def cmd_gen(args) -> int:
    # each other gen flag is named after the GenParams field it sets
    flags = {f.name: getattr(args, f.name) for f in fields(GenParams)
             if getattr(args, f.name, None) is not None}
    if args.extent is not None:
        flags["extent"] = (args.extent, args.extent)
    params = _read_gen_params(args, **flags)
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


def cmd_solve(args) -> int:
    solvers = {**SOLVERS, "oracle": exact_solve}
    if args.solver not in solvers:
        raise ValueError(f"unknown solver '{args.solver}'; available: "
                         f"{', '.join(sorted(solvers))}")
    doc = json.loads(Path(args.instance).read_text())
    inst = ProblemInstance.from_json(doc)
    # the solver call alone is timed, not the file read or from_json
    t0 = time.perf_counter()
    result = solvers[args.solver](inst)
    wall_time_s = time.perf_counter() - t0
    print(_dump({"solver": args.solver, "wall_time_s": wall_time_s,
                 **result.to_json()}))
    return 0


def _count(value, name: str) -> int:
    """value as a count of at least 1, an integer of any size or a whole
    float; a fraction, a JSON true or false, or anything below 1 is
    invalid input."""
    # a whole float such as 2.0 counts; inf % 1 and nan % 1 are nan
    if not ((_all_numbers([value], integers=True)
             or _all_numbers([value]) and value % 1 == 0) and value >= 1):
        raise ValueError(f"{name} must be a whole number >= 1, not {value!r}")
    return int(value)


def _sweep_field(params: GenParams, variable: str, value: float) -> dict:
    """The GenParams field the swept variable sets, mapped to its value
    for params; a count must be a whole number, and a grid count a
    multiple of grid_w. A caller sets all its fields in one replace, so
    GenParams checks only the scene it asks for."""
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
    return {name: value}


def _run_scene(params: GenParams, solver_ids: list[str]) -> list[dict]:
    """Generate the scene of params once and run each solver on it, in
    order: one row per solver, holding an `error` where it failed. A row's
    wall_time_s is the solver call's wall time, measured here."""
    rows = [{"solver": s, "seed": params.seed} for s in solver_ids]
    try:
        _, inst = generate(params)
    except Exception as exc:  # scene-level failure: every solver row fails
        return [{**row, "feasible": False, "error": str(exc)} for row in rows]
    for row in rows:
        try:
            t0 = time.perf_counter()
            res = SOLVERS[row["solver"]](inst)
            row.update(wall_time_s=time.perf_counter() - t0,
                       utility=res.utility, latency_s=res.latency_s,
                       gain_evaluations=res.gain_evaluations,
                       feasible=evaluate_plan(inst, res.plan).feasible)
        except Exception as exc:
            row.update(feasible=False, error=str(exc))
    return rows


def _sweep_cells(spec) -> tuple[str, list[str], list[tuple]]:
    """The swept variable, the solver ids and the (value, params) cells of
    a sweep spec read from JSON, one cell per value and repetition, in that
    order; raises ValueError for an invalid spec."""
    spec = _object(spec, "spec")
    variable = spec["variable"]
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
    values = _numbers(spec["values"], "values")
    if not values or not all(0 < v < math.inf for v in values):
        raise ValueError("values must be a non-empty list of positive, "
                         "finite numbers")
    solver_ids = _array(spec.get("solvers", sorted(SOLVERS)), "solvers")
    if not solver_ids:
        raise ValueError("solvers: a non-empty list of names")
    for solver_id in solver_ids:
        if not isinstance(solver_id, str):
            raise ValueError(f"solvers: names only, not {solver_id!r}")
    unknown = [s for s in solver_ids if s not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown solvers in spec: {unknown}")
    reps = _count(spec.get("repetitions", 1), "repetitions")
    [base_seed] = _numbers([spec.get("seed", 0)], "seed", integers=True)
    base = _genparams_from_dict(spec.get("params", {}))
    if len(values) * reps > MAX_SWEEP_CELLS:
        raise ValueError(f"a sweep runs at most {MAX_SWEEP_CELLS} cells "
                         "(values times repetitions)")
    return variable, solver_ids, [
        (value, replace(base, seed=base_seed + rep,
                        **_sweep_field(base, variable, value)))
        for value in values
        for rep in range(reps)
    ]


def cmd_sweep(args) -> int:
    import concurrent.futures
    import csv

    jobs = _count(args.jobs, "--jobs")
    variable, solver_ids, cells = _sweep_cells(
        json.loads(Path(args.spec).read_text()))
    scenes = [params for _, params in cells]
    # the pool starts all its workers at the first submit, so it gets no
    # more than there are cells
    if (workers := min(jobs, len(scenes))) > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            cell_rows = list(pool.map(_run_scene, scenes,
                                      [solver_ids] * len(scenes)))
    else:
        cell_rows = [_run_scene(params, solver_ids) for params in scenes]
    rows = [{**row, "variable": variable, "value": value}
            for (value, _), rows_ in zip(cells, cell_rows) for row in rows_]
    rows.sort(key=lambda r: (r["solver"], r["value"], r["seed"]))

    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS, restval="",
                                extrasaction="ignore")
        writer.writeheader()
        for r in rows:
            if "error" in r:
                print(f"sweep cell failed: {r['solver']} {variable}="
                      f"{r['value']} seed={r['seed']}: {r['error']}",
                      file=sys.stderr)
            writer.writerow(r)

    reference = next((s for s in ("birdcast", "birdcast_accel")
                      if s in solver_ids), None)
    summary = {"variable": variable, "orderings": []}
    ref = {(r["value"], r["seed"]): r["utility"]
           for r in rows if r["solver"] == reference and "error" not in r}
    for r in rows:
        key = (r["value"], r["seed"])
        if r["solver"] != reference and "error" not in r and key in ref:
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


def _sizes(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated bench size flag."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag}: comma-separated numbers, not "
                         f"{text!r}") from None


def cmd_bench(args) -> int:
    import contextlib
    import csv
    import statistics

    n_users_list = _sizes(args.n_users, "--n-users")
    n_grids_list = _sizes(args.n_grids, "--n-grids")
    _count(args.reps, "--reps")
    base = _read_gen_params(args)
    solver_ids = ["birdcast", "birdcast_accel"]
    rows = []
    for n_users in n_users_list:
        for n_grids in n_grids_list:
            sized = replace(base, **_sweep_field(base, "n_users", n_users),
                            **_sweep_field(base, "n_grids", n_grids))
            runs = [row for rep in range(args.reps) for row in _run_scene(
                replace(sized, seed=args.seed + rep), solver_ids)]
            failed = next((r for r in runs if "error" in r), None)
            if failed:
                raise ValueError(failed["error"])
            for solver_id in solver_ids:
                wall, evals = zip(*((r["wall_time_s"], r["gain_evaluations"])
                                    for r in runs if r["solver"] == solver_id))
                rows.append([solver_id, int(n_users), int(n_grids),
                             statistics.median(wall),
                             float(np.percentile(wall, 95)),
                             int(statistics.median(evals)),
                             int(np.percentile(evals, 95))])
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else Path(args.out).open("w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "n_users", "n_grids", "median_wall_s",
                         "p95_wall_s", "median_evals", "p95_evals"])
        writer.writerows(rows)
    return 0


def cmd_fig1(args) -> int:
    inst = fig1_instance()
    results = {s: SOLVERS[s](inst).utility for s in (
        "birdcast", "birdcast_accel", "broadcast", "unicast")}
    results["oracle"] = exact_solve(inst).opt_utility
    text = _dump({"instance": inst.to_json(), "results": results})
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
    _add_params_flags(p_gen)
    # one flag per GenParams field, each an int or a float, but the two
    # that _add_params_flags sets in other units and the two that are no
    # single number
    for f in fields(GenParams):
        if f.name not in ("budget_s", "bandwidth_hz", "mcs", "extent"):
            p_gen.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               type=int if f.type == "int" else float)
    p_gen.add_argument("--extent", type=float, help="square map side (meters)")
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
    _add_params_flags(p_bench)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
