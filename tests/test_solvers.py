"""Solver behaviour: both greedy variants, removal, single-item check."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from birdcast import (
    GenParams,
    McsTable,
    ProblemInstance,
    Selection,
    accelerated_greedy,
    best_single_item,
    evaluate_plan,
    exact_solve,
    generate,
    marginal_util_solve,
    refined_greedy,
    selection_cost,
    selection_from_plan,
    utility,
)

from birdcast import solvers
from conftest import (equal_weights_instance, random_instance,
                      unwanted_grids_instance)
from reference import CoverageState, marginal_gain, remove_redundant

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


def test_single_item_fallback_sends_at_the_rate_its_plan_reads_back():
    # (0, 0), worth 0.2 + 0.9, beats the passes' (0, 3), worth 0.9; user 0
    # tops out at rate 1, so the grid reaches the same users at rate 1
    table = McsTable(rates=(1.0, 1.1, 2.0, 4.0),
                     thresholds_db=(0.0, 10.0, 20.0, 30.0))
    inst = ProblemInstance(moi=np.array([[0.2], [0.9], [0.0]]),
                           snr_db=(10.0, 30.0, 10.0), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=0.009)
    assert exact_solve(inst).opt_selection == Selection.from_pairs([(0, 1)])
    for solve in (refined_greedy, accelerated_greedy):
        res = solve(inst)
        assert res.selection == Selection.from_pairs([(0, 1)])
        assert selection_from_plan(inst, res.plan) == res.selection
        assert res.latency_s == selection_cost(inst, res.selection)


def ungated(monkeypatch) -> None:
    """Make both paper solvers evaluate the best single item canonically
    on every solve, as they did before the rate-class table gated it."""
    monkeypatch.setattr(solvers, "_estimate_may_win",
                        lambda inst, table_value, value: True)


def both_greedy_docs(inst: ProblemInstance) -> list[dict]:
    return [solve(inst).to_json()
            for solve in (refined_greedy, accelerated_greedy)]


def test_single_item_gate_changes_no_result(monkeypatch):
    insts = []
    rng = np.random.default_rng(61)
    insts += [random_instance(rng) for _ in range(150)]
    # all-zero grids and users, weights in quarters: ties between the
    # single item and the passes' value
    rng = np.random.default_rng(62)
    insts += [unwanted_grids_instance(rng) for _ in range(100)]
    rng = np.random.default_rng(63)
    insts += [equal_weights_instance(rng, int(rng.integers(1, 13)), 0.5)
              for _ in range(40)]
    opened = []
    gate = solvers._estimate_may_win

    def recorded_gate(*args) -> bool:
        opened.append(gate(*args))
        return opened[-1]

    monkeypatch.setattr(solvers, "_estimate_may_win", recorded_gate)
    gated = [both_greedy_docs(inst) for inst in insts]
    assert True in opened and False in opened
    ungated(monkeypatch)
    assert [both_greedy_docs(inst) for inst in insts] == gated


def test_single_item_gate_opens_where_the_single_item_wins(monkeypatch):
    # the fallback test's instance: (0, 0), worth 0.2 + 0.9 in S, beats
    # the passes' 0.9
    table = McsTable(rates=(1.0, 1.1, 2.0, 4.0),
                     thresholds_db=(0.0, 10.0, 20.0, 30.0))
    inst = ProblemInstance(moi=np.array([[0.2], [0.9], [0.0]]),
                           snr_db=(10.0, 30.0, 10.0), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=0.009)
    assert solvers._best_item(inst) == ((0, 0), 0.2 + 0.9)
    assert solvers._estimate_may_win(inst, 0.2 + 0.9, 0.9)
    gated = both_greedy_docs(inst)
    assert gated[0]["selection"] == [[0, 1]]
    ungated(monkeypatch)
    assert both_greedy_docs(inst) == gated


def test_single_item_worth_exactly_the_passes_value_loses(monkeypatch):
    # the passes send (0, 1) and (1, 1) to user 0, worth 0.5 + 0.5; the
    # best single item, (1, 0), reaches both users for 0.5 + 0.5 too, and
    # S holds that sum exactly, so the gate opens and the tie keeps the
    # passes' schedule
    table = McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 10.0))
    inst = ProblemInstance(moi=np.array([[0.5, 0.5], [0.0, 0.5]]),
                           snr_db=(10.0, 0.0), mcs=table, grid_bytes=1000.0,
                           bandwidth_hz=1e6, budget_s=0.008)
    assert solvers._best_item(inst) == ((1, 0), 1.0)
    gated = both_greedy_docs(inst)
    for doc in gated:
        assert doc["selection"] == [[0, 1], [1, 1]] and doc["utility"] == 1.0
    assert solvers._estimate_may_win(inst, 1.0, 1.0)
    ungated(monkeypatch)
    assert both_greedy_docs(inst) == gated


def test_single_item_gate_margin():
    inst = random_instance(np.random.default_rng(64))
    margin = (inst.n_users * inst.n_grids + inst.n_users
              + inst.n_rates) * 2.0 ** -51
    assert solvers._estimate_may_win(inst, 3.0, 3.0)
    assert solvers._estimate_may_win(inst, 3.0, 3.0 * (1.0 + margin / 2))
    assert not solvers._estimate_may_win(inst, 3.0,
                                         3.0 * (1.0 + 2.0 * margin))
    # nothing of value: the single item cannot beat even an empty schedule
    assert not solvers._estimate_may_win(inst, 0.0, 0.0)


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


GOLDEN_RATE_VECTOR_INSTANCES = {
    "paper_default": lambda: generate(GenParams(seed=0))[1],
    "n24_5ms": lambda: generate(GenParams(budget_s=0.005, seed=0))[1],
    # an exact ratio tie between two rates of one grid
    "n32_5ms_tie": lambda: generate(GenParams(n_users=32, budget_s=0.005,
                                              seed=100403028))[1],
    "n96_40x25": lambda: generate(GenParams(n_users=96, grid_h=40, grid_w=25,
                                            seed=0))[1],
    "one_user_one_grid": lambda: generate(GenParams(n_users=1, grid_h=1,
                                                    grid_w=1, seed=2))[1],
    "budget_below_every_item": lambda: generate(GenParams(budget_s=1e-6,
                                                          seed=0))[1],
    # no grid is wanted: every candidate is counted, none is sent
    "no_objects": lambda: generate(GenParams(n_objects=0, seed=0))[1],
    # 76 of 250 grids wanted, with a binding budget
    "sparse_interest": lambda: generate(GenParams(n_objects=2,
                                                  budget_s=0.005, seed=1))[1],
}
# sha256 of the sorted selection, the plan (groups, mask bytes, repr of the
# rates), repr(utility), repr(latency_s) and gain_evaluations of
# refined_greedy, accelerated_greedy and marginal_util_solve; any change to
# their schedules, plans or counters must update these.
GOLDEN_RATE_VECTOR_DIGESTS = {
    'budget_below_every_item': (
        '346030641edd6453a605aa8527aefec02c9cbcf72e3c9775d369c2694a420e0f',
        '7e0c11b1f634452f63c94a3580baef10221ece8537dda0b3fe92a39f2e72bd9c',
        '346030641edd6453a605aa8527aefec02c9cbcf72e3c9775d369c2694a420e0f',
    ),
    'n24_5ms': (
        'b96fc2d1624635c66f1a1db433e007c80a5314e20c792d711af98bd92ff6d7a6',
        '205bd29ed103bd8d9e4a07442c1cf93c8af4154b3779d0739e6046dd4fb665d4',
        'e059e7fb35dc9691b4ed59b9002277a87999d52f1484e4e75bfd9a3365f508f3',
    ),
    'n32_5ms_tie': (
        '26033a81366775d525bb486cadfcb4b6c546ece3a07486bb240bbb87d53aac9b',
        'd82f7d12bda3ed5bf545bd6e147428d99875d4a3d19544dbd3829cb51c3aaace',
        'c7e7ad9f28d85a54927a0e52ac09d74e9413f316f8aa049e2d276e59d2fc8dbe',
    ),
    'n96_40x25': (
        '0f9c0e37999480d0a6e232d8f04c974bcdc860bfb3bcbccc2e717d566de99756',
        '5bd9d09fff838f4ec3a5e2be74b8e6f93eb56fdb0373ac7e008688b203e6550d',
        'da3ed6e452e175643f6a6bed763374a5d38232ac9c285cd276897f1150345399',
    ),
    'no_objects': (
        '7e0c11b1f634452f63c94a3580baef10221ece8537dda0b3fe92a39f2e72bd9c',
        '7e0c11b1f634452f63c94a3580baef10221ece8537dda0b3fe92a39f2e72bd9c',
        '7e0c11b1f634452f63c94a3580baef10221ece8537dda0b3fe92a39f2e72bd9c',
    ),
    'one_user_one_grid': (
        'a858ae9e75f052179bfad3509d78b14c3dd0654390602d852eeff854e3b8b33e',
        'b9d79c21a0ae365744172cac075b04dbb8a941a5ee7761946476297572886f73',
        'b58b88e26abc960491af1d1b0c83e72422322c5a708734534e67ee7af86d4810',
    ),
    'paper_default': (
        'c728d8cfa1b58493ed53458e700f9f5ab813bfb99e5135da4c5292beab626fe3',
        '9c3097e95d234d520be9a3286e270ab6b23e0bb499a4d01584abcea73e8d51a9',
        '453ea1683b7242063ba1f7e112fe6b86ebb4afa62cc839a4f74fc4aed077f5f0',
    ),
    'sparse_interest': (
        '87ddbdb80f8ecf8e541cd966be34f44c7c7b4bcf31c20bbb3d16497368332cf5',
        '1c6da46870a85fceb0050f50d396379e8f74f202bf9c895a11209472cba10e9c',
        '5df88b768f063b83265e8f9aa5602985628bb73e12a70c28f1c80aa45d3a5d3e',
    ),
}


def rate_vector_digests(inst: ProblemInstance) -> tuple[str, str, str]:
    out = []
    for solver in (refined_greedy, accelerated_greedy, marginal_util_solve):
        res = solver(inst)
        doc = repr((sorted(res.selection.items), res.plan.groups,
                    res.plan.masks.tobytes(), repr(res.plan.rates_bps),
                    repr(res.utility), repr(res.latency_s),
                    res.gain_evaluations))
        out.append(hashlib.sha256(doc.encode()).hexdigest())
    return tuple(out)


@pytest.mark.parametrize("name", sorted(GOLDEN_RATE_VECTOR_INSTANCES))
def test_rate_vector_solvers_are_bit_stable(name):
    inst = GOLDEN_RATE_VECTOR_INSTANCES[name]()
    assert rate_vector_digests(inst) == GOLDEN_RATE_VECTOR_DIGESTS[name]
