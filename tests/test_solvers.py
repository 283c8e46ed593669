"""Solver behaviour: both greedy variants, removal, single-item check."""

from __future__ import annotations

import numpy as np
import pytest

from birdcast import (
    CoverageState,
    GenParams,
    McsTable,
    ProblemInstance,
    Selection,
    accelerated_greedy,
    best_single_item,
    evaluate_plan,
    exact_solve,
    generate,
    marginal_gain,
    refined_greedy,
    remove_redundant,
    selection_cost,
    utility,
)

from conftest import random_instance

APPROX_BOUND = 1.0 - 1.0 / np.sqrt(np.e)


def plain_greedy_pass(inst: ProblemInstance) -> float:
    """Independent single-pass ratio greedy used as a dominance reference."""
    state = CoverageState(inst)
    chosen: list[tuple[int, int]] = []
    candidates = {(l, m) for l in range(inst.n_grids)
                  for m in range(inst.n_rates)}
    budget = inst.budget_s
    while candidates and budget > 0:
        scored = sorted(
            ((marginal_gain(inst, state, e) / inst.item_cost_s[e[1]], e)
             for e in candidates),
            key=lambda t: (-t[0], t[1]),
        )
        ratio, e = scored[0]
        gain = ratio * inst.item_cost_s[e[1]]
        if gain <= 0:
            break
        if inst.item_cost_s[e[1]] <= budget:
            chosen.append(e)
            state.apply(e)
            budget -= inst.item_cost_s[e[1]]
        candidates.remove(e)
    return utility(inst, Selection.from_pairs(chosen))


def test_budget_too_small_for_anything():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    inst = ProblemInstance(moi=np.array([[1.0]]), snr_db=(0.0,), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1e-9)
    for solver in (refined_greedy, accelerated_greedy):
        res = solver(inst)
        assert res.utility == 0.0
        assert len(res.selection) == 0
        assert res.latency_s == 0.0


def test_single_user_picks_highest_decodable_rate():
    table = McsTable(rates=(1.0, 2.0, 4.0), thresholds_db=(0.0, 10.0, 20.0))
    inst = ProblemInstance(moi=np.array([[1.0]]), snr_db=(15.0,), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=10.0)
    for solver in (refined_greedy, accelerated_greedy):
        res = solver(inst)
        # cheapest covering item: rate index 1 (the user's best)
        assert res.selection.items == frozenset({(0, 1)})
        assert res.utility == 1.0


def test_reinvestment_serves_weak_user_after_removal():
    # strong user grabbed first at the fast rate; the weak one then joins via
    # the slow rate so the fast duplicate becomes redundant
    table = McsTable(rates=(1.0, 3.0), thresholds_db=(0.0, 10.0))
    inst = ProblemInstance(
        moi=np.array([[1.0], [1.0]]),
        snr_db=(10.0, 0.0),
        mcs=table,
        grid_bytes=1000.0,
        bandwidth_hz=1e6,
        budget_s=100.0,
    )
    for solver in (refined_greedy, accelerated_greedy):
        res = solver(inst)
        assert res.utility == 2.0
        assert res.selection.items == frozenset({(0, 0)})  # slow rate only


def test_remove_redundant_rules():
    rng = np.random.default_rng(31)
    inst = random_instance(rng, max_grids=6, max_rates=3)
    while inst.n_rates < 2:
        inst = random_instance(rng, max_grids=6, max_rates=3)
    sel = Selection.from_pairs([(0, 0), (0, 1)])
    kept, reclaimed = remove_redundant(inst, sel)
    assert kept.items == frozenset({(0, 0)})
    assert reclaimed == pytest.approx(float(inst.item_cost_s[1]))
    single = Selection.from_pairs([(0, 0)])
    kept2, reclaimed2 = remove_redundant(inst, single)
    assert kept2 == single and reclaimed2 == 0.0


def test_remove_redundant_preserves_utility_random():
    rng = np.random.default_rng(32)
    for _ in range(50):
        inst = random_instance(rng)
        items = [(l, m) for l in range(inst.n_grids)
                 for m in range(inst.n_rates)]
        rng.shuffle(items)
        sel = Selection.from_pairs(items[: int(rng.integers(0, len(items) + 1))])
        kept, _ = remove_redundant(inst, sel)
        assert utility(inst, kept) == utility(inst, sel)


def test_best_single_item_none_when_nothing_fits():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    inst = ProblemInstance(moi=np.array([[1.0]]), snr_db=(0.0,), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1e-9)
    assert best_single_item(inst) == (None, 0.0)


def test_best_single_item_exhaustive_random():
    rng = np.random.default_rng(33)
    for _ in range(50):
        inst = random_instance(rng)
        item, value = best_single_item(inst)
        feasible = [(l, m) for l in range(inst.n_grids)
                    for m in range(inst.n_rates)
                    if inst.item_cost_s[m] <= inst.budget_s]
        if not feasible:
            assert item is None and value == 0.0
            continue
        scan = [(utility(inst, Selection.from_pairs([e])), e) for e in feasible]
        best_val = max(v for v, _ in scan)
        assert value == best_val
        assert all(value >= v for v, _ in scan)
        # tie-break: lowest (grid, rate) among the maximizers
        assert item == min(e for v, e in scan if v == best_val)


def test_lazy_equals_standard_small_random():
    rng = np.random.default_rng(34)
    for _ in range(300):
        inst = random_instance(rng)
        r1 = refined_greedy(inst)
        r2 = accelerated_greedy(inst)
        assert r1.selection == r2.selection
        assert r1.utility == r2.utility


@pytest.mark.parametrize("seed", [10500349, 30500962, 100403028])
def test_lazy_equals_standard_on_exact_ratio_ties(seed):
    # each scene reaches a step where rates 2 and 5 of one grid tie exactly
    # (rate 2 costs twice rate 5 and reaches twice the interest); both
    # solvers must break the tie the same way
    _, inst = generate(GenParams(seed=seed, n_users=32, grid_h=10, grid_w=25,
                                 budget_s=0.005))
    r1 = refined_greedy(inst)
    r2 = accelerated_greedy(inst)
    assert r1.selection == r2.selection
    assert r1.utility == r2.utility


def test_solver_outputs_feasible_and_single_rate_per_grid():
    rng = np.random.default_rng(35)
    for _ in range(100):
        inst = random_instance(rng)
        for solver in (refined_greedy, accelerated_greedy):
            res = solver(inst)
            assert res.latency_s <= inst.budget_s * (1 + 1e-9)
            grids = [l for l, _ in res.selection.items]
            assert len(grids) == len(set(grids))
            ev = evaluate_plan(inst, res.plan)
            assert ev.feasible
            assert ev.utility == res.utility
            assert res.latency_s == pytest.approx(
                selection_cost(inst, res.selection))


def test_refinement_dominates_plain_pass():
    rng = np.random.default_rng(36)
    for _ in range(60):
        inst = random_instance(rng, max_users=4, max_grids=5, max_rates=3)
        assert refined_greedy(inst).utility >= plain_greedy_pass(inst) - 1e-12


def test_approximation_bound_small_random():
    rng = np.random.default_rng(37)
    for _ in range(60):
        inst = random_instance(rng)
        opt = exact_solve(inst).opt_utility
        for solver in (refined_greedy, accelerated_greedy):
            res = solver(inst)
            assert res.utility >= APPROX_BOUND * opt - 1e-12
            assert res.utility <= opt + 1e-9


def test_determinism():
    rng = np.random.default_rng(38)
    inst = random_instance(rng)
    for solver in (refined_greedy, accelerated_greedy):
        first = solver(inst)
        again = solver(inst)
        assert first.selection == again.selection
        assert first.utility == again.utility
        assert first.gain_evaluations == again.gain_evaluations


def test_gain_evaluation_accounting_smoke():
    rng = np.random.default_rng(39)
    inst = random_instance(rng, max_users=6, max_grids=8, max_rates=3,
                           budget_span=(4.0, 12.0))
    r1 = refined_greedy(inst)
    r2 = accelerated_greedy(inst)
    assert r1.gain_evaluations >= inst.n_items  # at least one full scan
    assert r2.gain_evaluations >= inst.n_items  # the queue build


def test_result_json_round_trippable():
    import json

    rng = np.random.default_rng(40)
    inst = random_instance(rng)
    res = refined_greedy(inst)
    doc = json.loads(json.dumps(res.to_json()))
    assert doc["utility"] == res.utility
    assert Selection.from_json(doc["selection"]) == res.selection
