"""CLI subcommands: exit codes, file outputs, and reproducibility."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from birdcast import (
    MulticastPlan,
    ProblemInstance,
    __version__,
    broadcast_solve,
    fig1_instance,
)
from birdcast.cli import CSV_COLUMNS, SOLVERS, main

from conftest import (
    MALFORMED_INSTANCE_EDITS,
    legacy_dense_doc,
    random_full_scale_instance,
)


def run(args: list[str]) -> int:
    return main(args)


def test_gen_defaults_are_full_scale(tmp_path, capsys):
    assert run(["gen", "--out", str(tmp_path / "a")]) == 0
    doc = json.loads((tmp_path / "a" / "instance.json").read_text())
    assert doc["n_users"] == 24
    assert doc["n_grids"] == 250
    assert doc["bandwidth_hz"] == 100e6
    assert doc["budget_s"] == pytest.approx(0.030)
    assert doc["grid_bytes"] == 1600.0
    assert len(doc["mcs_table"]) == 14


def test_gen_same_seed_identical_files(tmp_path, capsys):
    assert run(["gen", "--seed", "7", "--out", str(tmp_path / "x")]) == 0
    assert run(["gen", "--seed", "7", "--out", str(tmp_path / "y")]) == 0
    for name in ("instance.json", "scene.json"):
        assert (tmp_path / "x" / name).read_bytes() == \
            (tmp_path / "y" / name).read_bytes()


def test_gen_rejects_zero_users(tmp_path, capsys):
    assert run(["gen", "--n-users", "0", "--out", str(tmp_path / "z")]) == 1
    assert "n_users" in capsys.readouterr().err


def write_fig1(tmp_path) -> str:
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(fig1_instance().to_json()))
    return str(path)


def test_solve_birdcast_accel_on_fig1(tmp_path, capsys):
    path = write_fig1(tmp_path)
    assert run(["solve", path, "--solver", "birdcast_accel"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["utility"] == 8.0


def test_solve_broadcast_on_fig1(tmp_path, capsys):
    path = write_fig1(tmp_path)
    assert run(["solve", path, "--solver", "broadcast"]) == 0
    assert json.loads(capsys.readouterr().out)["utility"] == 6.0


def test_solve_unknown_solver(tmp_path, capsys):
    path = write_fig1(tmp_path)
    assert run(["solve", path, "--solver", "nope"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown solver 'nope'")
    assert "available" in err and "birdcast" in err


def test_solve_rejects_infinite_bandwidth(tmp_path, capsys):
    doc = fig1_instance().to_json()
    doc["bandwidth_hz"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    assert run(["solve", str(path), "--solver", "birdcast_accel"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_oracle_over_cap(tmp_path, capsys):
    assert run(["gen", "--seed", "1", "--out", str(tmp_path / "big")]) == 0
    capsys.readouterr()
    code = run(["solve", str(tmp_path / "big" / "instance.json"),
                "--solver", "oracle"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_solve_oracle_on_fig1(tmp_path, capsys):
    path = write_fig1(tmp_path)
    assert run(["solve", path, "--solver", "oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"solver", "opt_utility", "opt_selection",
                        "nodes_explored"}
    assert doc["solver"] == "oracle" and doc["opt_utility"] == 8.0
    # solve --solver oracle is the one CLI path to the oracle
    assert run(["oracle", path]) == 1


def test_fig1_subcommand(capsys):
    assert run(["fig1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"] == {"oracle": 8.0, "birdcast": 8.0,
                              "birdcast_accel": 8.0, "broadcast": 6.0,
                              "unicast": 3.0}


def test_fig1_out_writes_what_it_prints(tmp_path, capsys):
    assert run(["fig1"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "fig1.json"
    assert run(["fig1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() + "\n" == printed


def test_sweep_csv_and_summary(tmp_path, capsys):
    spec = {
        "variable": "budget",
        "values": [0.002, 0.004, 0.006],
        "params": {"n_users": 8, "grid_h": 5, "grid_w": 10,
                   "n_occluders": 4},
        "solvers": ["birdcast", "broadcast"],
        "repetitions": 2,
        "seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 2  # solvers x values x seeds
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    # reproducible utility column and budget monotonicity per seed
    by_key = {(r["solver"], float(r["value"]), int(r["seed"])):
              float(r["utility"]) for r in rows}
    for seed in (0, 1):
        series = [by_key[("birdcast", v, seed)] for v in spec["values"]]
        assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
        for v in spec["values"]:
            assert by_key[("birdcast", v, seed)] >= by_key[("broadcast", v, seed)]
    summary = json.loads((tmp_path / "sweep.csv.summary.json").read_text())
    assert summary["variable"] == "budget"
    assert len(summary["orderings"]) == 6  # broadcast rows vs reference
    assert all(o["reference_ge"] for o in summary["orderings"])


def test_sweep_rows_reparse_identically(tmp_path, capsys):
    spec = {
        "variable": "bandwidth",
        "values": [50e6, 100e6],
        "params": {"n_users": 6, "grid_h": 5, "grid_w": 10},
        "solvers": ["birdcast_accel"],
        "repetitions": 1,
        "seed": 3,
    }
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "o.csv"
    assert run(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert run(["sweep", "--spec", str(spec_path),
                "--out", str(tmp_path / "o2.csv")]) == 0
    with out.open() as a, (tmp_path / "o2.csv").open() as b:
        rows_a = list(csv.DictReader(a))
        rows_b = list(csv.DictReader(b))
    for ra, rb in zip(rows_a, rows_b):
        assert ra["utility"] == rb["utility"]
        assert ra["gain_evaluations"] == rb["gain_evaluations"]


def over_budget_solve(inst: ProblemInstance):
    """Broadcast's schedule widened to send every grid, whatever it costs."""
    res = broadcast_solve(inst)
    plan = MulticastPlan(groups=res.plan.groups,
                         masks=np.ones_like(res.plan.masks),
                         rates_bps=res.plan.rates_bps)
    return dataclasses.replace(res, plan=plan)


def test_sweep_reports_an_over_budget_plan_infeasible(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setitem(SOLVERS, "over_budget", over_budget_solve)
    spec = {
        "variable": "budget",
        "values": [0.002],
        "params": {"n_users": 6, "grid_h": 5, "grid_w": 10},
        "solvers": ["over_budget", "broadcast"],
        "repetitions": 1,
        "seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--spec", str(spec_path), "--jobs", "1",
                "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert {r["solver"]: r["feasible"] for r in rows} == {
        "over_budget": "False", "broadcast": "True"}


def test_sweep_bad_variable(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"variable": "phase_of_moon",
                                     "values": [1]}))
    assert run(["sweep", "--spec", str(spec_path),
                "--out", str(tmp_path / "x.csv")]) == 1


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n-users", "4", "--n-grids", "50", "--reps", "2",
                "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["solver"] for r in rows} == {"birdcast", "birdcast_accel"}
    for r in rows:
        assert float(r["median_wall_s"]) > 0.0
        assert int(r["median_evals"]) > 0


def test_gen_writes_compact_sparse_instance_with_version(tmp_path, capsys):
    assert run(["gen", "--seed", "2", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "instance.json").read_text()
    assert "\n" not in text and ", " not in text
    doc = json.loads(text)
    assert doc["format"] == 2 and set(doc["moi"]) == {"user", "grid", "value"}
    assert doc["provenance"]["version"] == __version__ == "0.1.0"


def test_solve_prints_the_same_schedule_from_dense_and_sparse_files(
        tmp_path, capsys):
    assert run(["gen", "--seed", "4", "--n-users", "12", "--grid-h", "4",
                "--budget-ms", "5", "--out", str(tmp_path)]) == 0
    sparse = tmp_path / "instance.json"
    dense = tmp_path / "dense.json"
    inst = ProblemInstance.from_json(json.loads(sparse.read_text()))
    dense.write_text(json.dumps(legacy_dense_doc(inst)))
    capsys.readouterr()
    for solver_id in sorted(SOLVERS):
        printed = []
        for path in (sparse, dense):
            assert run(["solve", str(path), "--solver", solver_id]) == 0
            doc = json.loads(capsys.readouterr().out)
            printed.append((doc["utility"], doc["selection"], doc["plan"]))
        assert printed[0] == printed[1], solver_id


@pytest.mark.parametrize("edit", sorted(MALFORMED_INSTANCE_EDITS))
def test_malformed_instance_file_is_invalid_input(tmp_path, capsys, edit):
    doc = fig1_instance().to_json()
    MALFORMED_INSTANCE_EDITS[edit](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--solver", "birdcast_accel"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# modules a gen or solve child has no use for; pytest itself loads some of
# them, so the check runs in fresh interpreters
UNUSED_BY_GEN_AND_SOLVE = ("numpy.ma", "importlib.metadata", "csv", "hashlib",
                           "statistics", "concurrent.futures")


def loaded_after_cli(args: list[str], cwd) -> set[str]:
    """Which of UNUSED_BY_GEN_AND_SOLVE a fresh interpreter holds after
    running `birdcast <args>` in cwd."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import json, sys\n"
              "from birdcast.cli import main\n"
              f"assert main({args!r}) == 0\n"
              f"print(json.dumps([m for m in {UNUSED_BY_GEN_AND_SOLVE!r} "
              "if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          check=True, capture_output=True, text=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_gen_and_solve_children_import_only_what_they_run(tmp_path):
    gen = loaded_after_cli(["gen", "--seed", "1", "--out", "o"], tmp_path)
    # numpy.random, which scene generation needs, loads hashlib through
    # the standard library's secrets and hmac modules
    assert gen <= {"hashlib"}
    solve = loaded_after_cli(["solve", "o/instance.json", "--solver",
                              "birdcast_accel"], tmp_path)
    assert solve == set()


def test_missing_instance_file(capsys):
    assert run(["solve", "/nonexistent/instance.json",
                "--solver", "birdcast"]) == 2


def test_truncated_instance_file_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(fig1_instance().to_json())[:40])
    assert run(["solve", str(path), "--solver", "birdcast"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_instance_file_missing_a_key_is_invalid_input(tmp_path, capsys):
    doc = fig1_instance().to_json()
    del doc["snr_db"]
    path = tmp_path / "no_snr.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--solver", "birdcast"]) == 1
    assert "snr_db" in capsys.readouterr().err


def test_oracle_cap_far_beyond_int_formatting_limit(tmp_path, capsys):
    # (M+1)^L has about 4,700 digits here, past Python's 4,300-digit limit
    # for converting an int to a string
    inst = random_full_scale_instance(np.random.default_rng(0), 2, 4000)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(inst.to_json()))
    assert run(["solve", str(path), "--solver", "oracle"]) == 2
    err = capsys.readouterr().err
    assert "M=14, L=4000" in err and "cap" in err


def test_usage_error_exit_code(capsys):
    assert run(["solve"]) == 1  # missing required arguments


def test_sweep_parallel_jobs_match_serial(tmp_path, capsys):
    spec = {
        "variable": "budget",
        "values": [0.003, 0.006],
        "params": {"n_users": 6, "grid_h": 5, "grid_w": 10},
        "solvers": ["birdcast_accel", "unicast"],
        "repetitions": 2,
        "seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run(["sweep", "--spec", str(spec_path),
                "--out", str(tmp_path / "serial.csv")]) == 0
    assert run(["sweep", "--spec", str(spec_path), "--jobs", "2",
                "--out", str(tmp_path / "par.csv")]) == 0
    with (tmp_path / "serial.csv").open() as a, \
            (tmp_path / "par.csv").open() as b:
        rows_a = list(csv.DictReader(a))
        rows_b = list(csv.DictReader(b))
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    assert strip(rows_a) == strip(rows_b)


def test_grid_sweep_shows_diminishing_returns():
    # at a budget that binds hard, quadrupling the grid count must yield
    # far less than quadruple utility (the curve bends toward a plateau)
    from birdcast import GenParams, generate, refined_greedy

    means = {}
    for n_grids in (250, 1000):
        acc = 0.0
        for seed in range(8):
            _, inst = generate(GenParams(seed=seed, grid_h=n_grids // 25,
                                         grid_w=25, budget_s=1e-3))
            acc += refined_greedy(inst).utility
        means[n_grids] = acc / 8
    assert means[1000] > means[250]          # finer grids still help
    assert means[1000] / means[250] < 3.0    # but well below proportionally


def test_accelerated_time_grows_roughly_linearly_in_users():
    import statistics

    from birdcast import GenParams, accelerated_greedy, generate

    medians = {}
    for n_users in (8, 24):
        times = []
        for rep in range(5):
            _, inst = generate(GenParams(seed=200 + rep, n_users=n_users))
            times.append(accelerated_greedy(inst).wall_time_s)
        medians[n_users] = statistics.median(times)
    assert medians[24] / medians[8] < 6.0


def write_spec(tmp_path, spec: dict) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def read_csv(path) -> list[dict]:
    with Path(path).open() as fh:
        return list(csv.DictReader(fh))


SWEPT_SCENES = {
    "n_users": ([3, 5], lambda base, v: dataclasses.replace(base, n_users=v)),
    "n_grids": ([30, 50],
                lambda base, v: dataclasses.replace(base, grid_h=v // 10)),
}


@pytest.mark.parametrize("variable", sorted(SWEPT_SCENES))
def test_sweep_cells_run_each_solver_on_the_swept_scene(tmp_path, capsys,
                                                        variable):
    from birdcast import GenParams, generate

    values, scene_params = SWEPT_SCENES[variable]
    params = {"n_users": 4, "grid_h": 2, "grid_w": 10, "n_occluders": 3,
              "budget_s": 0.002}
    spec = {"variable": variable, "values": values, "params": params,
            "solvers": ["birdcast_accel", "unicast"], "repetitions": 2,
            "seed": 6}
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 2 * 2
    for r in rows:
        base = GenParams(**params, seed=int(r["seed"]))
        _, inst = generate(scene_params(base, int(r["value"])))
        res = SOLVERS[r["solver"]](inst)
        assert float(r["utility"]) == res.utility
        assert int(r["gain_evaluations"]) == res.gain_evaluations


def test_bench_generator_flags_reach_the_scenes(tmp_path, capsys):
    import statistics

    from birdcast import GenParams, generate

    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"grid_w": 10, "n_occluders": 3}))
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n-users", "4,6", "--n-grids", "30", "--reps", "3",
                "--seed", "5", "--params", str(params_path),
                "--budget-ms", "0.5", "--bandwidth-mhz", "40",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [(r["solver"], r["n_users"], r["n_grids"]) for r in rows] == [
        (s, n, "30") for n in ("4", "6") for s in ("birdcast", "birdcast_accel")]
    for r in rows:
        evals = []
        for rep in range(3):
            _, inst = generate(GenParams(
                grid_w=10, n_occluders=3, n_users=int(r["n_users"]), grid_h=3,
                seed=5 + rep, budget_s=0.5 * 1e-3, bandwidth_hz=40 * 1e6))
            evals.append(SOLVERS[r["solver"]](inst).gain_evaluations)
        assert int(r["median_evals"]) == int(statistics.median(evals))
        assert int(r["p95_evals"]) == int(np.percentile(evals, 95))


def test_bench_prints_to_stdout_the_csv_it_writes_to_a_file(tmp_path, capsys):
    args = ["bench", "--n-users", "3", "--n-grids", "20", "--reps", "2",
            "--params", str(tmp_path / "params.json")]
    (tmp_path / "params.json").write_text(json.dumps({"grid_w": 10}))
    out = tmp_path / "bench.csv"
    assert run(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(args + ["--out", "-"]) == 0
    printed = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    written = read_csv(out)
    assert printed[0].keys() == written[0].keys()
    timed = ("median_wall_s", "p95_wall_s")
    strip = lambda rows: [
        {k: v for k, v in r.items() if k not in timed} for r in rows]
    assert strip(printed) == strip(written) and len(written) == 2


def test_gen_params_extent_and_bandwidth_reach_the_provenance(tmp_path,
                                                             capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"n_users": 5, "grid_h": 4,
                                       "eta": 0.25}))
    assert run(["gen", "--params", str(params_path), "--extent", "60",
                "--bandwidth-mhz", "20", "--seed", "3",
                "--out", str(tmp_path / "o")]) == 0
    for name in ("scene.json", "instance.json"):
        doc = json.loads((tmp_path / "o" / name).read_text())
        params = doc["provenance"]["params"]
        assert params["n_users"] == 5 and params["grid_h"] == 4
        assert params["eta"] == 0.25
        assert params["extent"] == [60.0, 60.0]
        assert params["bandwidth_hz"] == 20 * 1e6
        assert params["seed"] == doc["provenance"]["seed"] == 3
    inst = json.loads((tmp_path / "o" / "instance.json").read_text())
    assert inst["n_users"] == 5 and inst["n_grids"] == 100
    assert inst["bandwidth_hz"] == 20 * 1e6


def test_sweep_and_bench_reject_a_grid_count_off_the_grid_width(tmp_path,
                                                                capsys):
    spec = {"variable": "n_grids", "values": [50, 55],
            "params": {"n_users": 3, "grid_h": 2}, "solvers": ["unicast"]}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    sweep_err = capsys.readouterr().err
    assert run(["bench", "--n-users", "3", "--n-grids", "55", "--reps", "1",
                "--out", str(tmp_path / "b.csv")]) == 1
    bench_err = capsys.readouterr().err
    for err in (sweep_err, bench_err):
        assert err.startswith("error:")
        assert "55 is not a multiple of grid_w 25" in err
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "b.csv").exists()


def raising_solve(inst: ProblemInstance):
    raise RuntimeError("solver broke")


def test_sweep_keeps_the_row_of_a_solver_that_raises(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setitem(SOLVERS, "raises", raising_solve)
    spec = {"variable": "budget", "values": [0.002],
            "params": {"n_users": 4, "grid_h": 2, "grid_w": 10},
            "solvers": ["raises", "birdcast"], "repetitions": 1, "seed": 0}
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(out)]) == 0
    assert "solver broke" in capsys.readouterr().err
    rows = {r["solver"]: r for r in read_csv(out)}
    assert rows["raises"] == {
        "solver": "raises", "variable": "budget", "value": "0.002",
        "seed": "0", "utility": "", "latency_s": "", "wall_time_s": "",
        "gain_evaluations": "", "feasible": "False"}
    assert float(rows["birdcast"]["utility"]) > 0.0
    summary = json.loads(Path(str(out) + ".summary.json").read_text())
    assert summary["orderings"] == []


@pytest.mark.parametrize("variable, value", [
    ("n_users", 8.5), ("n_grids", 50.5), ("n_users", True), ("budget", True)])
def test_sweep_rejects_a_value_it_would_run_as_another(tmp_path, capsys,
                                                       variable, value):
    # int(8.5) would run 8 users, and a JSON true would run as 1, while
    # the CSV row printed the value as written
    spec = {"variable": variable, "values": [value],
            "params": {"n_users": 3, "grid_h": 2, "grid_w": 10},
            "solvers": ["unicast"]}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("seed", [2.5, True, "1", -1])
def test_sweep_rejects_a_seed_that_is_no_integer(tmp_path, capsys, seed):
    # int() would run 2.5 as seed 2, and true as seed 1; numpy takes no
    # negative seed, so -1 used to write a row of empty fields
    spec = {"variable": "budget", "values": [0.002],
            "params": {"n_users": 3, "grid_h": 2, "grid_w": 10},
            "solvers": ["unicast"], "seed": seed}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: seed")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("params, field", [
    ({"budget_s": True}, "budget_s"),  # would generate a 1 s budget
    ({"seed": True}, "seed"),
    ({"window": True}, "window"),
    ({"eta": True}, "eta"),
    ({"n_users": 2.5}, "n_users"),
    ({"n_users": 3.0}, "n_users"),
    ({"seed": 1.7}, "seed"),
    ({"grid_bytes": "1600"}, "grid_bytes"),
    ({"extent": [True, 100.0]}, "extent"),
    # a field retired into scenario.py's scene-model constants
    ({"radio": {"noise_dbm": -90.0}}, "radio"),
    ({"mcs": [{"rate": True, "threshold_db": 0.0}]}, "mcs_table rate"),
    ({"mcs": 5}, "mcs_table"),
    ({"hvn_height": 12.0}, "hvn_height"),
])
def test_generator_parameter_of_the_wrong_type_is_invalid_input(
        tmp_path, capsys, params, field):
    # int fields take integers; float fields and extent entries numbers;
    # other keys none, through gen --params and a sweep spec's params alike
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"grid_h": 2, "grid_w": 10, **params}))
    out = tmp_path / "o"
    assert run(["gen", "--params", str(params_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}:")
    assert not out.exists()
    spec = {"variable": "budget", "values": [0.002], "solvers": ["unicast"],
            "params": {"n_users": 3, "grid_h": 2, "grid_w": 10, **params}}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}:")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("document", [[1, 2], 5])
def test_parameter_document_that_is_no_object_is_invalid_input(
        tmp_path, capsys, document):
    # a --params file, a sweep spec and a sweep spec's params alike
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(document))
    assert run(["gen", "--params", str(params_path),
                "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: params: a JSON object")
    for spec, name in [(document, "spec"),
                       ({"variable": "budget", "values": [0.002],
                         "params": document}, "params")]:
        assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                    "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name}: a JSON object")
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text", ["[]", "null"])
def test_instance_file_that_is_no_object_is_invalid_input(tmp_path, capsys,
                                                          text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["solve", str(path), "--solver", "birdcast_accel"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags", [
    ["--extent", "nan"], ["--extent", "inf"], ["--bandwidth-mhz=-inf"]])
def test_gen_rejects_a_non_finite_parameter(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert run(["gen", "--n-users", "2", "--grid-h", "2", *flags,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("variable, value", [
    ("budget", float("nan")), ("bandwidth", float("inf"))])
def test_sweep_rejects_a_non_finite_value(tmp_path, capsys, variable, value):
    spec = {"variable": variable, "values": [value],
            "params": {"n_users": 3, "grid_h": 2, "grid_w": 10},
            "solvers": ["unicast"]}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("repetitions", [0, 2.5, True])
def test_sweep_rejects_a_repetition_count_that_is_no_count(
        tmp_path, capsys, repetitions):
    # int() would run 2.5 as 2 and true as 1; 0 would write no rows
    spec = {"variable": "budget", "values": [0.002],
            "params": {"n_users": 3, "grid_h": 2, "grid_w": 10},
            "solvers": ["unicast"], "repetitions": repetitions}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: repetitions")
    assert not (tmp_path / "x.csv").exists()


def test_bench_rejects_zero_reps(tmp_path, capsys):
    assert run(["bench", "--n-users", "3", "--n-grids", "50", "--reps", "0",
                "--out", str(tmp_path / "b.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: --reps")
    assert not (tmp_path / "b.csv").exists()


def test_sweep_rejects_an_unknown_solver(tmp_path, capsys):
    spec = {"variable": "budget", "values": [0.002],
            "params": {"n_users": 3, "grid_h": 2, "grid_w": 10},
            "solvers": ["unicast", "oracle"]}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert "unknown solvers in spec: ['oracle']" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("solvers,message", [
    (5, "solvers: a list, not int"),
    # a string would be read one character at a time
    ("unicast", "solvers: a list, not str"),
    ([["unicast"]], "solvers: names only, not ['unicast']"),
    ([5], "solvers: names only, not 5"),
])
def test_sweep_rejects_solvers_that_are_no_list_of_names(tmp_path, capsys,
                                                         solvers, message):
    spec = {"variable": "budget", "values": [0.002],
            "params": {"n_users": 3, "grid_h": 2, "grid_w": 10},
            "solvers": solvers}
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_sweep_params_carry_an_mcs_table(tmp_path, capsys):
    from birdcast import GenParams, McsTable, generate

    mcs = [{"rate": 0.5, "threshold_db": 0.0},
           {"rate": 2.0, "threshold_db": 15.0}]
    params = {"n_users": 4, "grid_h": 2, "grid_w": 10, "mcs": mcs}
    spec = {"variable": "budget", "values": [0.002], "params": params,
            "solvers": ["unicast"], "repetitions": 1, "seed": 2}
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--spec", write_spec(tmp_path, spec),
                "--out", str(out)]) == 0
    [row] = read_csv(out)
    _, inst = generate(GenParams(**{**params, "mcs": McsTable.from_json(mcs)},
                                 seed=2, budget_s=0.002))
    assert inst.n_rates == 2
    assert float(row["utility"]) == SOLVERS["unicast"](inst).utility
