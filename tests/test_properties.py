"""Property tests on tiny random instances, drawn by hypothesis."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from birdcast import (  # noqa: E402
    CoverageState,
    McsTable,
    MulticastPlan,
    ProblemInstance,
    Selection,
    accelerated_greedy,
    evaluate_plan,
    exact_solve,
    lp_bound,
    plan_from_selection,
    refined_greedy,
    remove_redundant,
    selection_cost,
    selection_from_plan,
    utility,
)
from birdcast.instance import FEASIBILITY_RTOL, is_budget_feasible  # noqa: E402
from birdcast.oracle import _bound_rtol  # noqa: E402

# few distinct weights and rates, so that equal ratios, and the tie-breaks
# both greedy solvers must share, come up often
WEIGHTS = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0))
RATE_STEPS = st.sampled_from((0.5, 1.0, 2.0))
SNRS = st.sampled_from((-3.0, 0.0, 4.0, 8.0, 12.0))


@st.composite
def instances(draw) -> ProblemInstance:
    n_rates = draw(st.integers(1, 3))
    n_users = draw(st.integers(1, 4))
    n_grids = draw(st.integers(1, 5))
    steps = draw(st.lists(RATE_STEPS, min_size=n_rates, max_size=n_rates))
    table = McsTable(rates=tuple(np.cumsum(steps)),
                     thresholds_db=tuple(4.0 * np.arange(n_rates)))
    moi = draw(st.lists(WEIGHTS, min_size=n_users * n_grids,
                        max_size=n_users * n_grids))
    snr = draw(st.lists(SNRS, min_size=n_users, max_size=n_users))
    slowest_cost = 8.0 * 1000.0 / (1e6 * table.rates[0])
    budget = slowest_cost * draw(st.floats(0.3, 2.0 * n_grids))
    return ProblemInstance(moi=np.reshape(moi, (n_users, n_grids)),
                           snr_db=tuple(snr), mcs=table, grid_bytes=1000.0,
                           bandwidth_hz=1e6, budget_s=budget)


@st.composite
def instances_with_selections(draw) -> tuple[ProblemInstance, Selection]:
    inst = draw(instances())
    # any item set, so a grid often holds several rates at once
    items = draw(st.sets(st.tuples(st.integers(0, inst.n_grids - 1),
                                   st.integers(0, inst.n_rates - 1))))
    return inst, Selection(frozenset(items))


PROPERTY_SETTINGS = hypothesis.settings(max_examples=100, deadline=None,
                                        derandomize=True, database=None)


@PROPERTY_SETTINGS
@hypothesis.given(instances_with_selections())
def test_selection_utility_matches_coverage_reference(case):
    inst, sel = case
    state = CoverageState(inst)
    for item in sel.sorted_items():
        state.apply(item)
    assert utility(inst, sel) == state.utility()


@PROPERTY_SETTINGS
@hypothesis.given(instances_with_selections())
def test_remove_redundant_keeps_utility_and_reclaims_dropped_cost(case):
    inst, sel = case
    kept, reclaimed = remove_redundant(inst, sel)
    grids = [l for l, _ in kept.items]
    assert len(grids) == len(set(grids))
    assert kept.items <= sel.items
    assert utility(inst, kept) == utility(inst, sel)
    assert reclaimed == selection_cost(inst, Selection(sel.items - kept.items))


@PROPERTY_SETTINGS
@hypothesis.given(instances_with_selections())
def test_plan_from_selection_keeps_utility(case):
    inst, sel = case
    if not is_budget_feasible(inst, selection_cost(inst, sel)):
        with pytest.raises(ValueError, match="exceeds budget"):
            plan_from_selection(inst, sel)
        return
    assert evaluate_plan(inst, plan_from_selection(inst, sel)).utility == \
        utility(inst, sel)


@PROPERTY_SETTINGS
@hypothesis.given(instances_with_selections())
def test_plan_file_maps_back_to_an_equal_or_cheaper_selection(case):
    inst, sel = case
    cost = selection_cost(inst, sel)
    inst = dataclasses.replace(inst, budget_s=max(inst.budget_s, cost))
    doc = json.loads(json.dumps(plan_from_selection(inst, sel).to_json()))
    back = selection_from_plan(inst, MulticastPlan.from_json(doc))
    # not an identity: a group's rate is its slowest member's, which can
    # be faster than the option it was built for
    assert utility(inst, back) == utility(inst, sel)
    assert selection_cost(inst, back) <= cost * (1.0 + FEASIBILITY_RTOL)


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_refined_and_accelerated_select_the_same_set(inst):
    refined = refined_greedy(inst)
    accelerated = accelerated_greedy(inst)
    assert refined.selection == accelerated.selection
    assert refined.utility == accelerated.utility


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_lp_bound_caps_the_optimum_which_caps_the_greedy(inst):
    opt = exact_solve(inst).opt_utility
    greedy = accelerated_greedy(inst).utility
    # the same float slack the oracle's search prunes with
    assert lp_bound(inst) * (1.0 + _bound_rtol(inst)) >= opt
    assert opt >= greedy >= (1.0 - 1.0 / math.sqrt(math.e)) * opt
