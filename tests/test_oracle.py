"""Exact-solver soundness and representation-equivalence checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from birdcast import (
    EnumerationCapExceeded,
    GenParams,
    McsTable,
    ProblemInstance,
    Selection,
    accelerated_greedy,
    best_single_item,
    broadcast_solve,
    dp_solve,
    exact_solve,
    fig1_instance,
    generate,
    kmeanspp_solve,
    lp_bound,
    marginal_util_solve,
    refined_greedy,
    selection_cost,
    unicast_solve,
    utility,
)

from birdcast import oracle
from birdcast.cli import SOLVERS
from birdcast.instance import is_budget_feasible
from birdcast.oracle import _bound_rtol

from conftest import random_full_scale_instance, random_instance
from reference import brute_force_assignments, unrestricted_opt, verify_equivalence


def test_trivial_single_item():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    inst = ProblemInstance(moi=np.array([[0.7]]), snr_db=(3.0,), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0)
    res = exact_solve(inst)
    assert res.opt_utility == 0.7
    assert res.opt_selection.items == frozenset({(0, 0)})


def test_nothing_fits_gives_zero():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    inst = ProblemInstance(moi=np.array([[0.7]]), snr_db=(3.0,), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1e-9)
    res = exact_solve(inst)
    assert res.opt_utility == 0.0
    assert len(res.opt_selection) == 0


def test_budget_that_pays_for_everything_sends_every_wanted_grid():
    # 1e308 over the item costs is inf: the search must not count items
    inst = dataclasses.replace(fig1_instance(), budget_s=1e308)
    res = exact_solve(inst)
    assert res.opt_utility == float(inst.moi.sum()) == 8.0
    assert is_budget_feasible(inst, selection_cost(inst, res.opt_selection))


def test_lp_bound_fills_hull_increments_by_slope():
    # rate 1 costs 1.0 s and rate 2 costs 0.5 s; user 0 decodes both
    table = McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 10.0))
    inst = ProblemInstance(moi=np.array([[1.0, 3.0], [1.0, 0.0]]),
                           snr_db=(20.0, 5.0), mcs=table, grid_bytes=125.0,
                           bandwidth_hz=1000.0, budget_s=0.75)
    # grid 1 is worth 3 at either rate, so only its fast rate is a Pareto
    # option (slope 6); grid 0's hull runs straight from (0, 0) to (1, 2)
    # (slope 2), which fills the 0.25 s left in part
    assert lp_bound(inst) == 3.0 + 2.0 * 0.25
    res = exact_solve(inst)
    assert res.opt_utility == 3.0
    assert res.opt_selection.items == frozenset({(1, 1)})


def test_lp_bound_caps_the_optimum():
    rng = np.random.default_rng(57)
    for _ in range(200):
        inst = random_instance(rng)
        opt = exact_solve(inst).opt_utility
        assert lp_bound(inst) * (1.0 + _bound_rtol(inst)) >= opt


def test_opt_selection_uses_no_dominated_rate():
    # a slower rate that a cheaper one of the same grid matches is never
    # branched on, so ties go to the cheaper rate
    rng = np.random.default_rng(58)
    for _ in range(100):
        inst = random_instance(rng)
        table = inst.rate_class_table
        for l, m in exact_solve(inst).opt_selection.items:
            assert table[l, m] > table[l, m + 1]


def grids_instance(n_grids: int, n_rates: int) -> ProblemInstance:
    """Two users who decode every rate, on n_grids grids of random weight."""
    table = McsTable(rates=tuple(range(1, n_rates + 1)),
                     thresholds_db=tuple(float(m) for m in range(n_rates)))
    moi = np.random.default_rng(n_grids).uniform(0.0, 1.0, (2, n_grids))
    return ProblemInstance(moi=moi, snr_db=(float(n_rates),) * 2, mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6,
                           budget_s=0.01 * n_grids)


def test_caps_solve_at_their_bound_and_reject_past_it(monkeypatch):
    # exact_solve: a node limit equal to the nodes the search needs
    inst = grids_instance(11, 3)
    needed = exact_solve(inst).nodes_explored
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", needed)
    assert exact_solve(inst).nodes_explored == needed
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", needed - 1)
    with pytest.raises(EnumerationCapExceeded, match=f"M=3, L=11 explores "
                       f"more than the cap of {needed - 1} nodes"):
        exact_solve(inst)
    # brute_force_assignments: 4^6 = 2^12
    assert brute_force_assignments(grids_instance(6, 3)).nodes_explored == 4 ** 6
    with pytest.raises(EnumerationCapExceeded):
        brute_force_assignments(grids_instance(7, 3))
    # unrestricted_opt: L*M = 16 items
    assert unrestricted_opt(grids_instance(16, 1)) > 0.0
    with pytest.raises(EnumerationCapExceeded):
        unrestricted_opt(grids_instance(17, 1))


def test_cap_message_names_sizes_not_the_product(monkeypatch):
    inst = random_full_scale_instance(np.random.default_rng(0), 2, 4000)
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 10)
    with pytest.raises(EnumerationCapExceeded,
                       match="M=14, L=4000 explores more than the cap of 10 nodes"):
        exact_solve(inst)


def test_deep_search_needs_no_recursion():
    # every one of 1,024 grids has an option and the budget pays for all,
    # so the search runs one path 1,024 grids deep, past Python's default
    # recursion limit, and prunes each skip on entry
    n_grids = 1024
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    moi = np.random.default_rng(60).uniform(0.5, 1.0, (1, n_grids))
    inst = ProblemInstance(moi=moi, snr_db=(3.0,), mcs=table,
                           grid_bytes=125.0, bandwidth_hz=1000.0,
                           budget_s=float(n_grids))
    res = exact_solve(inst)
    assert res.opt_selection.items == {(l, 0) for l in range(n_grids)}
    assert res.nodes_explored == 2 * n_grids + 1


def test_pruned_equals_unpruned():
    rng = np.random.default_rng(51)
    for _ in range(60):
        inst = random_instance(rng, max_users=4, max_grids=5, max_rates=2)
        if (inst.n_rates + 1) ** inst.n_grids > 2 ** 12:
            continue
        pruned = exact_solve(inst)
        full = brute_force_assignments(inst)
        assert pruned.opt_utility == full.opt_utility
        assert utility(inst, pruned.opt_selection) == pruned.opt_utility


def test_single_rate_restriction_loses_nothing():
    rng = np.random.default_rng(52)
    for _ in range(30):
        inst = random_instance(rng, max_users=4, max_grids=4, max_rates=3)
        if inst.n_grids * inst.n_rates > 16:
            continue
        assert exact_solve(inst).opt_utility == unrestricted_opt(inst)


def test_opt_dominates_every_solver():
    rng = np.random.default_rng(53)
    solvers = (refined_greedy, accelerated_greedy, broadcast_solve,
               unicast_solve, marginal_util_solve, kmeanspp_solve, dp_solve)
    for _ in range(30):
        inst = random_instance(rng)
        opt = exact_solve(inst).opt_utility
        for solver in solvers:
            assert solver(inst).utility <= opt + 1e-9


def test_opt_selection_is_feasible():
    rng = np.random.default_rng(54)
    for _ in range(40):
        inst = random_instance(rng)
        res = exact_solve(inst)
        cost = float(sum(inst.item_cost_s[m] for _, m in res.opt_selection.items))
        assert cost <= inst.budget_s + 1e-15
        assert utility(inst, res.opt_selection) == res.opt_utility


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_users", [24, 32])
def test_optimum_certifies_every_solver_at_paper_scale(n_users, seed):
    # the paper's scene size with a binding 5 ms budget: the optimum lies
    # under the LP bound and over every solver, and both paper solvers
    # keep their (1 - 1/sqrt(e)) guarantee
    _, inst = generate(GenParams(n_users=n_users, budget_s=0.005, seed=seed))
    opt = exact_solve(inst).opt_utility
    slack = 1.0 + _bound_rtol(inst)
    assert opt <= lp_bound(inst) * slack
    for solver_id, solver in SOLVERS.items():
        assert solver(inst).utility <= opt * slack, solver_id
    for solver in (refined_greedy, accelerated_greedy):
        assert solver(inst).utility >= (1.0 - 1.0 / math.sqrt(math.e)) * opt


def test_optimum_at_n96_matches_milp():
    # N=96 on 40x25 grids, 5 ms budget: HiGHS (scipy.optimize.milp) gives
    # 131.015790 for this scene
    _, inst = generate(GenParams(n_users=96, grid_h=40, grid_w=25,
                                 budget_s=0.005, seed=0))
    res = exact_solve(inst)
    assert res.opt_utility == pytest.approx(131.015790, rel=1e-6)
    assert is_budget_feasible(inst, selection_cost(inst, res.opt_selection))
    assert utility(inst, res.opt_selection) == res.opt_utility


@pytest.mark.parametrize("params, nodes, opt, bound", [
    (GenParams(n_objects=0, seed=0), 1, "0.0", "0.0"),
    (GenParams(n_objects=2, budget_s=0.005, seed=1), 147,
     "1.3081490048452524", "1.3081543799216786"),
], ids=["no_objects", "sparse_interest"])
def test_oracle_is_pinned_where_few_grids_are_wanted(params, nodes, opt, bound):
    # no grid is wanted, and 76 of 250 grids are
    _, inst = generate(params)
    res = exact_solve(inst)
    assert (res.nodes_explored, repr(res.opt_utility)) == (nodes, opt)
    assert repr(lp_bound(inst)) == bound


def test_best_single_item_when_no_grid_is_wanted():
    # the first item that fits, of no value
    _, inst = generate(GenParams(n_objects=0, seed=0))
    assert best_single_item(inst) == ((0, 0), 0.0)


def test_verify_equivalence_clean():
    rng = np.random.default_rng(55)
    for _ in range(5):
        inst = random_instance(rng)
        report = verify_equivalence(inst, trials=200, seed=99)
        assert report.ok, report.violations
        assert report.trials == 200


def test_empty_selection_round_trip():
    rng = np.random.default_rng(56)
    inst = random_instance(rng)
    from birdcast import evaluate_plan, plan_from_selection

    plan = plan_from_selection(inst, Selection(frozenset()))
    ev = evaluate_plan(inst, plan)
    assert (ev.utility, ev.latency_s) == (0.0, 0.0)


def _milp_opt(optimize, inst: ProblemInstance) -> float:
    """Optimum of the MCKP as a 0/1 program: x[l, m] with at most one rate
    per grid and total cost within the budget (costs in budget units)."""
    n_grids, n_rates = inst.n_grids, inst.n_rates
    values = inst.rate_class_table[:, :n_rates].ravel()
    one_per_grid = np.kron(np.eye(n_grids), np.ones(n_rates))
    cost = np.tile(inst.item_cost_s, n_grids)[None, :] / inst.budget_s
    res = optimize.milp(
        -values, integrality=np.ones(values.size),
        bounds=optimize.Bounds(0.0, 1.0),
        constraints=[optimize.LinearConstraint(one_per_grid, -np.inf, 1.0),
                     optimize.LinearConstraint(cost, -np.inf, 1.0)],
        options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    return -res.fun


def test_exact_matches_milp_beyond_brute_force():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 40:
        inst = random_instance(rng, max_users=8, max_grids=13, max_rates=4)
        # too big for brute_force_assignments, within (M+1)^L <= 2^22
        size = (inst.n_rates + 1) ** inst.n_grids
        if not 2 ** 12 < size <= 2 ** 22:
            continue
        expected = _milp_opt(optimize, inst)
        assert exact_solve(inst).opt_utility == pytest.approx(expected, rel=1e-9)
        checked += 1
