"""Instance semantics: utility, gains, coverage, and plan mappings."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from birdcast import (
    McsTable,
    MulticastPlan,
    ProblemInstance,
    Selection,
    accelerated_greedy,
    evaluate_plan,
    fig1_instance,
    plan_from_selection,
    selection_cost,
    selection_from_plan,
    utility,
)

from conftest import MALFORMED_INSTANCE_EDITS, legacy_dense_doc, random_instance
from reference import CoverageState, decodable, marginal_gain


def brute_utility(inst: ProblemInstance, items) -> float:
    """Definitional recomputation: a user counts a grid when any selected
    item on that grid uses a rate the user decodes."""
    dec = decodable(inst)
    total = 0.0
    for n in range(inst.n_users):
        for l in range(inst.n_grids):
            if any(li == l and dec[n, m] for li, m in items):
                total += inst.moi[n, l]
    return total


def two_rate_instance(budget_s: float = 1.0) -> ProblemInstance:
    """Two users (one strong, one weak), two grids, two rates."""
    table = McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 10.0))
    return ProblemInstance(
        moi=np.array([[1.0, 0.5], [1.0, 0.25]]),
        snr_db=(10.0, 0.0),
        mcs=table,
        grid_bytes=1600.0,
        bandwidth_hz=1e6,
        budget_s=budget_s,
    )


def test_empty_selection_utility_zero():
    inst = two_rate_instance()
    assert utility(inst, Selection(frozenset())) == 0.0


def test_single_user_single_grid():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    inst = ProblemInstance(moi=np.array([[0.8]]), snr_db=(5.0,), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0)
    assert utility(inst, Selection.from_pairs([(0, 0)])) == 0.8


def test_high_rate_covers_only_strong_user():
    inst = two_rate_instance()
    # rate index 1 decodes only for the strong user
    assert utility(inst, Selection.from_pairs([(0, 1)])) == 1.0
    # rate index 0 decodes for both
    assert utility(inst, Selection.from_pairs([(0, 0)])) == 2.0


def test_utility_matches_brute_force_random():
    rng = np.random.default_rng(21)
    for _ in range(100):
        inst = random_instance(rng)
        all_items = [(l, m) for l in range(inst.n_grids)
                     for m in range(inst.n_rates)]
        k = int(rng.integers(0, len(all_items) + 1))
        picks = [all_items[i] for i in rng.choice(len(all_items), size=k,
                                                  replace=False)]
        sel = Selection.from_pairs(picks)
        assert utility(inst, sel) == pytest.approx(brute_utility(inst, picks),
                                                   abs=1e-12)


def test_marginal_gain_definition_and_saturation():
    inst = two_rate_instance()
    state = CoverageState(inst)
    gain = marginal_gain(inst, state, (0, 0))
    assert gain == 2.0  # both users uncovered and decodable
    state.apply((0, 0))
    assert marginal_gain(inst, state, (0, 1)) == 0.0  # already covered


def test_marginal_gain_equals_utility_difference_random():
    rng = np.random.default_rng(22)
    for _ in range(100):
        inst = random_instance(rng)
        items = [(l, m) for l in range(inst.n_grids)
                 for m in range(inst.n_rates)]
        rng.shuffle(items)
        base = items[: int(rng.integers(0, len(items)))]
        state = CoverageState(inst)
        for it in base:
            state.apply(it)
        extra = [it for it in items if it not in set(base)]
        if not extra:
            continue
        e = extra[0]
        lhs = marginal_gain(inst, state, e)
        rhs = (utility(inst, Selection.from_pairs(base + [e]))
               - utility(inst, Selection.from_pairs(base)))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs >= 0.0


def test_apply_matches_from_scratch_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        inst = random_instance(rng)
        items = [(l, m) for l in range(inst.n_grids)
                 for m in range(inst.n_rates)]
        rng.shuffle(items)
        picks = items[: int(rng.integers(0, len(items) + 1))]
        state = CoverageState(inst)
        for it in picks:
            state.apply(it)
            state.apply(it)  # duplicate application is a no-op
        assert state.utility() == utility(inst, Selection.from_pairs(picks))


def test_apply_lower_rate_covers_superset():
    inst = two_rate_instance()
    high = CoverageState(inst)
    high.apply((0, 1))
    both = high.copy()
    both.apply((0, 0))
    assert np.all(high.covered <= both.covered)


def test_selection_cost_additive():
    inst = two_rate_instance()
    a = Selection.from_pairs([(0, 0)])
    b = Selection.from_pairs([(1, 1)])
    ab = Selection.from_pairs([(0, 0), (1, 1)])
    assert selection_cost(inst, Selection(frozenset())) == 0.0
    assert selection_cost(inst, ab) == pytest.approx(
        selection_cost(inst, a) + selection_cost(inst, b))


def test_selection_cost_example_rate():
    inst = ProblemInstance(
        moi=np.array([[1.0]]),
        snr_db=(40.0,),
        mcs=McsTable(rates=(5.33,), thresholds_db=(33.0,)),
        grid_bytes=1600.0,
        bandwidth_hz=100e6,
        budget_s=1.0,
    )
    c = selection_cost(inst, Selection.from_pairs([(0, 0)]))
    assert c == pytest.approx(12800 / 5.33e8)


def test_plan_from_selection_empty():
    inst = two_rate_instance()
    plan = plan_from_selection(inst, Selection(frozenset()))
    assert plan.n_groups == inst.n_rates
    ev = evaluate_plan(inst, plan)
    assert ev.utility == 0.0 and ev.latency_s == 0.0 and ev.feasible


def test_plan_from_selection_single_item():
    inst = two_rate_instance()
    plan = plan_from_selection(inst, Selection.from_pairs([(1, 0)]))
    # rate option 0 is decodable by everyone
    assert plan.groups[0] == (0, 1)
    assert list(plan.masks[0]) == [False, True]
    assert plan.rates_bps[0] == 1e6  # bottleneck member's max rate
    ev = evaluate_plan(inst, plan)
    assert ev.utility == utility(inst, Selection.from_pairs([(1, 0)]))


def test_plan_from_selection_rejects_infeasible():
    inst = two_rate_instance(budget_s=1e-6)
    with pytest.raises(ValueError):
        plan_from_selection(inst, Selection.from_pairs([(0, 0)]))


@pytest.mark.parametrize("item", [(2, 0), (-1, 0), (0, 2), (0, -1)])
def test_out_of_range_items_rejected(item):
    inst = two_rate_instance()  # L = 2, M = 2
    sel = Selection.from_pairs([(0, 0), item])
    for check in (utility, selection_cost, plan_from_selection):
        with pytest.raises(ValueError, match=r"out of range \(L=2, M=2\)"):
            check(inst, sel)


def test_plan_objective_matches_selection_exactly_random():
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 100:
        inst = random_instance(rng)
        items = [(l, m) for l in range(inst.n_grids)
                 for m in range(inst.n_rates)]
        rng.shuffle(items)
        picks, budget = [], inst.budget_s
        for l, m in items:
            c = float(inst.item_cost_s[m])
            if c <= budget:
                picks.append((l, m))
                budget -= c
        sel = Selection.from_pairs(picks)
        plan = plan_from_selection(inst, sel)
        ev = evaluate_plan(inst, plan)
        assert ev.utility == utility(inst, sel)  # exact, not approximate
        assert ev.latency_s <= selection_cost(inst, sel) + 1e-15
        assert ev.feasible
        checked += 1


def test_selection_from_plan_round_trip_objective():
    rng = np.random.default_rng(25)
    for _ in range(50):
        inst = random_instance(rng)
        items = [(l, m) for l in range(inst.n_grids)
                 for m in range(inst.n_rates)]
        rng.shuffle(items)
        picks, budget = [], inst.budget_s
        for l, m in items:
            c = float(inst.item_cost_s[m])
            if c <= budget:
                picks.append((l, m))
                budget -= c
        sel = Selection.from_pairs(picks)
        plan = plan_from_selection(inst, sel)
        back = selection_from_plan(inst, plan)
        assert utility(inst, back) == evaluate_plan(inst, plan).utility
        assert selection_cost(inst, back) <= evaluate_plan(inst, plan).latency_s + 1e-15


def test_selection_from_plan_dedups_same_grid_rate():
    inst = two_rate_instance()
    # two groups transmitting the same grid at the same (bottom) rate
    plan = MulticastPlan(
        groups=((0, 1), (0, 1)),
        masks=np.array([[True, False], [True, False]]),
        rates_bps=(1e6, 1e6),
    )
    back = selection_from_plan(inst, plan)
    assert back.items == frozenset({(0, 0)})
    assert selection_cost(inst, back) <= evaluate_plan(inst, plan).latency_s


def test_selection_from_plan_rejects_non_decoder():
    inst = two_rate_instance()
    plan = MulticastPlan(
        groups=((0, 1),),               # weak user cannot decode rate 1
        masks=np.array([[True, False]]),
        rates_bps=(2e6,),
    )
    with pytest.raises(ValueError):
        selection_from_plan(inst, plan)


def test_selection_from_plan_rejects_a_rate_that_is_no_option():
    inst = two_rate_instance()
    plan = MulticastPlan(groups=((0, 1),), masks=np.array([[True, False]]),
                         rates_bps=(1.5e6,))
    with pytest.raises(ValueError, match="not a rate option"):
        selection_from_plan(inst, plan)


@pytest.mark.parametrize("member", [-1, 4, 7])
def test_plan_member_outside_the_users_rejected(member):
    # fig1 has users 0..3; numpy would read -1 as user 3
    inst = fig1_instance()
    doc = accelerated_greedy(inst).plan.to_json()
    doc["groups"][0] = [0, 1, 2, member]
    plan = MulticastPlan.from_json(doc)
    with pytest.raises(ValueError, match="outside"):
        evaluate_plan(inst, plan)
    with pytest.raises(ValueError, match="outside"):
        selection_from_plan(inst, plan)


@pytest.mark.parametrize("member", [1.5, True, False])
def test_plan_document_member_that_is_no_integer_rejected(member):
    doc = {"groups": [[0, member]], "masks": [[1, 0]], "rate_bps": [1e6]}
    with pytest.raises(ValueError, match="integers"):
        MulticastPlan.from_json(doc)


@pytest.mark.parametrize("pair", [[0.5, 0], [1, True], [False, 0]])
def test_selection_document_index_that_is_no_integer_rejected(pair):
    with pytest.raises(ValueError, match="integers"):
        Selection.from_json([[0, 0], pair])


@pytest.mark.parametrize("edit", [
    {"masks": [[2, 0.5]], "rate_bps": [True]},  # read as [[True, True]], 1.0
    {"masks": [[2, 0]]},
    {"masks": [[1, -1]]},
    {"masks": [[0.5, 1]]},
    {"masks": [[True, False]]},
    {"rate_bps": [True]},
    {"rate_bps": ["1e6"]},
    {"masks": 5},
    {"masks": [5]},
    {"groups": 3},
])
def test_plan_document_that_is_no_plan_rejected(edit):
    # masks take the integers 0 and 1, as to_json writes them, rate_bps
    # takes numbers, and groups and masks are lists of lists
    doc = {"groups": [[0]], "masks": [[1, 0]], "rate_bps": [1e6], **edit}
    with pytest.raises(ValueError, match="masks|rate_bps|groups"):
        MulticastPlan.from_json(doc)


def test_plan_rejects_disagreeing_group_counts_and_flat_masks():
    with pytest.raises(ValueError, match="agree on K"):
        MulticastPlan(groups=((0,), (1,)), masks=np.ones((1, 2), dtype=bool),
                      rates_bps=(1e6, 2e6))
    with pytest.raises(ValueError, match="agree on K"):
        MulticastPlan(groups=((0,),), masks=np.ones((1, 2), dtype=bool),
                      rates_bps=(1e6, 2e6))
    with pytest.raises(ValueError, match="K x L"):
        MulticastPlan(groups=((0,),), masks=np.ones(2, dtype=bool),
                      rates_bps=(1e6,))


def test_evaluate_plan_counts_duplicates_once():
    inst = two_rate_instance()
    plan = MulticastPlan(
        groups=((0,), (0, 1)),
        masks=np.array([[True, False], [True, False]]),
        rates_bps=(2e6, 1e6),
    )
    ev = evaluate_plan(inst, plan)
    assert ev.utility == 2.0  # grid 0 counted once per user


def test_evaluate_plan_infeasible_budget():
    inst = two_rate_instance(budget_s=1e-6)
    plan = MulticastPlan(
        groups=((0, 1),),
        masks=np.array([[True, True]]),
        rates_bps=(1e6,),
    )
    ev = evaluate_plan(inst, plan)
    assert not ev.feasible


def test_evaluate_plan_flags_wrong_group_rate():
    inst = two_rate_instance()
    plan = MulticastPlan(
        groups=((0,),),                 # strong user's max rate is 2e6
        masks=np.array([[True, False]]),
        rates_bps=(1e6,),
    )
    assert not evaluate_plan(inst, plan).feasible


def test_evaluate_plan_group_at_non_positive_rate_covers_nothing():
    inst = two_rate_instance()
    for bad_rate in (0.0, -1e6):
        plan = MulticastPlan(
            groups=((0, 1), (0,)),
            masks=np.array([[True, False], [False, True]]),
            rates_bps=(bad_rate, 2e6),
        )
        ev = evaluate_plan(inst, plan)
        assert ev.utility == 0.5  # only user 0's grid 1, from group 1
        assert ev.latency_s == 8.0 * 1600.0 / 2e6
        assert not ev.feasible


def test_monotonicity_and_submodularity_random():
    rng = np.random.default_rng(26)
    for _ in range(200):
        inst = random_instance(rng)
        items = [(l, m) for l in range(inst.n_grids)
                 for m in range(inst.n_rates)]
        rng.shuffle(items)
        cut_a = int(rng.integers(0, len(items)))
        cut_b = int(rng.integers(cut_a, len(items)))
        a_items, b_items = items[:cut_a], items[:cut_b]
        rest = items[cut_b:]
        assert utility(inst, Selection.from_pairs(a_items)) <= \
            utility(inst, Selection.from_pairs(b_items))
        if not rest:
            continue
        e = rest[0]
        state_a = CoverageState(inst)
        for it in a_items:
            state_a.apply(it)
        state_b = CoverageState(inst)
        for it in b_items:
            state_b.apply(it)
        assert marginal_gain(inst, state_a, e) >= marginal_gain(inst, state_b, e)


def test_derived_fields_are_read_only_and_follow_replace():
    rng = np.random.default_rng(33)
    inst = random_instance(rng, max_rates=4)
    for name in ("top_rate", "rate_class_table"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[0] = 1
    snr = tuple(rng.uniform(-5.0, 30.0, size=inst.n_users))
    changed = dataclasses.replace(inst, snr_db=snr)
    fresh = ProblemInstance(inst.moi, snr, inst.mcs, inst.grid_bytes,
                            inst.bandwidth_hz, inst.budget_s)
    assert not np.array_equal(changed.top_rate, inst.top_rate)
    for name in ("item_cost_s", "top_rate", "rate_class_table"):
        assert np.array_equal(getattr(changed, name), getattr(fresh, name))


def test_rate_class_table_matches_coverage_reference():
    rng = np.random.default_rng(28)
    for _ in range(200):
        inst = random_instance(rng, max_rates=5)
        table = inst.rate_class_table
        assert table.shape == (inst.n_grids, inst.n_rates + 1)
        assert np.all(table[:, -1] == 0.0)
        assert np.all(np.diff(table, axis=1) <= 0.0)
        items = [(l, m) for l in range(inst.n_grids)
                 for m in range(inst.n_rates)]
        rng.shuffle(items)
        chosen = items[: int(rng.integers(0, len(items) + 1))]
        state = CoverageState(inst)
        rate = [inst.n_rates] * inst.n_grids
        for l, m in chosen:
            state.apply((l, m))
            rate[l] = min(rate[l], m)
        for l, m in items:
            gain = max(table[l, m] - table[l, rate[l]], 0.0)
            assert gain == pytest.approx(marginal_gain(inst, state, (l, m)),
                                         rel=1e-12, abs=0.0)


def test_redundant_higher_rate_has_zero_gain():
    inst = two_rate_instance()
    state = CoverageState(inst)
    state.apply((0, 0))
    assert marginal_gain(inst, state, (0, 1)) == 0.0


def test_instance_json_round_trip():
    rng = np.random.default_rng(27)
    inst = random_instance(rng)
    again = ProblemInstance.from_json(inst.to_json())
    assert np.array_equal(again.moi, inst.moi)
    assert again.snr_db == inst.snr_db
    assert again.mcs == inst.mcs
    assert np.array_equal(again.top_rate, inst.top_rate)
    assert again.budget_s == inst.budget_s


def instance_with_moi(moi) -> ProblemInstance:
    return ProblemInstance(moi=np.asarray(moi, dtype=np.float64),
                           snr_db=(10.0,) * len(moi),
                           mcs=McsTable(rates=(1.0, 2.0),
                                        thresholds_db=(0.0, 10.0)),
                           grid_bytes=1600.0, bandwidth_hz=1e6, budget_s=1.0)


FORMAT_CASES = {
    "negative_zero": [[0.5, -0.0, 0.0], [0.0, 0.25, 1.0]],
    "zero_user_row": [[0.0, 0.0, 0.0], [0.0, 0.25, 1.0]],
    "all_zero": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
}


@pytest.mark.parametrize("name", sorted(FORMAT_CASES))
def test_instance_file_round_trip_is_bit_exact(name):
    inst = instance_with_moi(FORMAT_CASES[name])
    text = json.dumps(inst.to_json())
    again = ProblemInstance.from_json(json.loads(text))
    assert again.moi.tobytes() == inst.moi.tobytes()
    assert again.to_json() == inst.to_json()


def test_instance_file_stores_row_major_triplets():
    inst = instance_with_moi(FORMAT_CASES["negative_zero"])
    doc = inst.to_json()
    assert doc["format"] == 2
    assert doc["moi"] == {"user": [0, 0, 1, 1], "grid": [0, 1, 1, 2],
                          "value": [0.5, -0.0, 0.25, 1.0]}
    assert np.signbit(doc["moi"]["value"][1])


def test_legacy_dense_instance_file_loads_the_same_instance():
    rng = np.random.default_rng(28)
    for _ in range(5):
        inst = random_instance(rng)
        doc = json.loads(json.dumps(legacy_dense_doc(inst)))
        again = ProblemInstance.from_json(doc)
        assert again.moi.tobytes() == inst.moi.tobytes()
        assert again.to_json() == inst.to_json()


@pytest.mark.parametrize("edit", sorted(MALFORMED_INSTANCE_EDITS))
def test_malformed_moi_triplets_rejected(edit):
    doc = instance_with_moi(FORMAT_CASES["zero_user_row"]).to_json()
    MALFORMED_INSTANCE_EDITS[edit](doc)
    with pytest.raises(ValueError):
        ProblemInstance.from_json(doc)


def test_selection_json_round_trip():
    sel = Selection.from_pairs([(3, 1), (0, 0)])
    assert Selection.from_json(sel.to_json()) == sel
    with pytest.raises(ValueError, match="selection: a list"):
        Selection.from_json(5)


def test_plan_json_round_trip():
    plan = MulticastPlan(groups=((1, 0), ()),
                         masks=np.array([[True, False], [False, False]]),
                         rates_bps=(1e6, 2e6))
    again = MulticastPlan.from_json(plan.to_json())
    assert again.groups == plan.groups
    assert np.array_equal(again.masks, plan.masks)
    assert again.rates_bps == plan.rates_bps


def test_instance_rejects_bad_inputs():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    with pytest.raises(ValueError):
        ProblemInstance(moi=np.array([[-1.0]]), snr_db=(0.0,), mcs=table,
                        grid_bytes=1.0, bandwidth_hz=1.0, budget_s=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(moi=np.array([[1.0]]), snr_db=(0.0, 1.0), mcs=table,
                        grid_bytes=1.0, bandwidth_hz=1.0, budget_s=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(moi=np.array([[1.0]]), snr_db=(0.0,), mcs=table,
                        grid_bytes=1.0, bandwidth_hz=1.0, budget_s=0.0)
    good = dict(moi=np.array([[1.0]]), snr_db=(0.0,), mcs=table,
                grid_bytes=1.0, bandwidth_hz=1.0, budget_s=1.0)
    for key in ("budget_s", "grid_bytes", "bandwidth_hz"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ProblemInstance(**{**good, key: bad})
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            ProblemInstance(**{**good, "snr_db": (bad,)})


@pytest.mark.parametrize("doc", [[], None, "instance", 3.0])
def test_instance_document_that_is_no_object_rejected(doc):
    with pytest.raises(ValueError, match="JSON object"):
        ProblemInstance.from_json(doc)


def test_instance_without_grids_rejected():
    with pytest.raises(ValueError, match="at least one grid"):
        instance_with_moi(np.zeros((2, 0)))
    # an instance without users stays valid
    assert instance_with_moi(np.zeros((0, 3))).n_grids == 3


def test_dense_document_with_inconsistent_dimensions_rejected():
    doc = legacy_dense_doc(fig1_instance())
    doc["n_users"] += 1
    with pytest.raises(ValueError, match="dimensions are inconsistent"):
        ProblemInstance.from_json(doc)


@pytest.mark.parametrize("n_users", [2.5, -1])
def test_instance_document_user_count_that_is_no_count_rejected(n_users):
    doc = fig1_instance().to_json()
    doc["n_users"] = n_users
    with pytest.raises(ValueError, match="n_users must be a non-negative"):
        ProblemInstance.from_json(doc)
