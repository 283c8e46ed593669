"""Exact-solver soundness and representation-equivalence checks."""

from __future__ import annotations

import numpy as np
import pytest

from birdcast import (
    EnumerationCapExceeded,
    McsTable,
    ProblemInstance,
    Selection,
    accelerated_greedy,
    broadcast_solve,
    dp_solve,
    exact_solve,
    kmeanspp_solve,
    lp_bound,
    marginal_util_solve,
    refined_greedy,
    unicast_solve,
    utility,
)

from birdcast.oracle import ENUMERATION_CAP, _bound_rtol

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


def test_caps_solve_at_their_bound_and_reject_past_it():
    # exact_solve: (M+1)^L = 4^11 = 2^22 is the cap itself
    assert exact_solve(grids_instance(11, 3)).nodes_explored > 0
    with pytest.raises(EnumerationCapExceeded):
        exact_solve(grids_instance(12, 3))
    # brute_force_assignments: 4^6 = 2^12
    assert brute_force_assignments(grids_instance(6, 3)).nodes_explored == 4 ** 6
    with pytest.raises(EnumerationCapExceeded):
        brute_force_assignments(grids_instance(7, 3))
    # unrestricted_opt: L*M = 16 items
    assert unrestricted_opt(grids_instance(16, 1)) > 0.0
    with pytest.raises(EnumerationCapExceeded):
        unrestricted_opt(grids_instance(17, 1))


def test_cap_message_names_sizes_not_the_product():
    inst = random_full_scale_instance(np.random.default_rng(0), 2, 4000)
    with pytest.raises(EnumerationCapExceeded, match="M=14, L=4000"):
        exact_solve(inst)


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
        # too big for brute_force_assignments, within exact_solve's cap
        size = (inst.n_rates + 1) ** inst.n_grids
        if not 2 ** 12 < size <= ENUMERATION_CAP:
            continue
        expected = _milp_opt(optimize, inst)
        assert exact_solve(inst).opt_utility == pytest.approx(expected, rel=1e-9)
        checked += 1
