"""Property tests on tiny random instances, drawn by hypothesis."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import heapq
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from birdcast import (  # noqa: E402
    DEFAULT_MCS_TABLE,
    GenParams,
    GridMap,
    McsTable,
    MulticastPlan,
    ProblemInstance,
    Selection,
    SolveResult,
    accelerated_greedy,
    evaluate_plan,
    exact_solve,
    fig1_instance,
    generate,
    lp_bound,
    marginal_util_solve,
    plan_from_selection,
    refined_greedy,
    selection_cost,
    selection_from_plan,
    utility,
)
from birdcast import baselines  # noqa: E402
from birdcast.baselines import _best_of, _joint_greedy  # noqa: E402
from birdcast.cli import (  # noqa: E402
    SOLVERS,
    SWEEP_VARIABLES,
    _genparams_from_dict,
    _genparams_to_dict,
    _sweep_cells,
    main,
)
from birdcast.instance import (  # noqa: E402
    FEASIBILITY_RTOL,
    _canonical_plan,
    is_budget_feasible,
)
from birdcast.oracle import _bound_rtol  # noqa: E402
from birdcast.solvers import _argmax_pass, _lazy_pass  # noqa: E402
from birdcast import moi, scenario  # noqa: E402
from conftest import (equal_weights_instance,  # noqa: E402
                      unwanted_grids_instance)
from reference import (  # noqa: E402
    CoverageState,
    decodable,
    remove_redundant,
    segment_blocked,
)
import reference  # noqa: E402

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


def reference_top(inst):
    """Each user's highest decodable rate index from the SNR thresholds,
    -1 when it decodes none."""
    return [max(np.flatnonzero(row).tolist(), default=-1)
            for row in decodable(inst)]


def member_scan_plan(inst, groups, masks, rate_idx):
    """Reference plan: group k's rate is the least maximum rate of its
    members, scanned one by one, or the nominal rate of option rate_idx[k]
    when it is empty."""
    top = reference_top(inst)
    rates = [min(inst.bandwidth_hz * inst.mcs.rates[top[n]] for n in members)
             if len(members) else inst.bandwidth_hz * inst.mcs.rates[k]
             for members, k in zip(groups, rate_idx)]
    return MulticastPlan(groups=tuple(groups), masks=masks,
                         rates_bps=tuple(rates))


def reference_groups(inst):
    """Canonical groups and group rates from the SNR thresholds: group k
    holds the users that decode rate k, at its slowest member's top rate
    (k when it is empty)."""
    dec = decodable(inst)
    top = reference_top(inst)
    groups = tuple(tuple(np.flatnonzero(dec[:, k]).tolist())
                   for k in range(inst.n_rates))
    return groups, tuple(min((top[n] for n in g), default=k)
                         for k, g in enumerate(groups))


NO_USERS = ProblemInstance(moi=np.zeros((0, 2)), snr_db=(),
                           mcs=McsTable(rates=(1.0, 2.0),
                                        thresholds_db=(0.0, 4.0)),
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0)


@PROPERTY_SETTINGS
@hypothesis.given(instances())
@hypothesis.example(NO_USERS)
def test_instance_groups_match_the_decodability_reference(inst):
    groups, rates = reference_groups(inst)
    assert inst.groups == groups
    assert all(type(n) is int for g in inst.groups for n in g)
    assert inst.group_rate == rates
    assert all(type(k) is int for k in inst.group_rate)


@PROPERTY_SETTINGS
@hypothesis.given(instances_with_selections())
def test_canonical_plan_matches_the_per_group_reference(case):
    inst, sel = case
    masks = np.zeros((inst.n_rates, inst.n_grids), dtype=bool)
    for l, m in sel.items:
        masks[m, l] = True
    ref = member_scan_plan(inst, reference_groups(inst)[0], masks,
                           range(inst.n_rates))
    new = _canonical_plan(inst, masks, 0.0)
    assert new.groups == ref.groups
    assert repr(new.rates_bps) == repr(ref.rates_bps)
    assert new.masks.tobytes() == ref.masks.tobytes()


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


def dense_argmax_pass(table, costs, rate, budget_left, grid_exclusive=False):
    """Reference pass: rebuilds the masked ratio matrix and recounts the
    candidates at every step."""
    n_rates = costs.size
    current = table[np.arange(table.shape[0]), rate]
    ratios = np.maximum(table[:, :n_rates] - current[:, None], 0.0) / costs
    candidates = np.arange(n_rates)[None, :] != np.asarray(rate)[:, None]
    picks = []
    evals = 0
    while candidates.any() and budget_left > 0:
        evals += int(candidates.sum())
        flat = int(np.argmax(np.where(candidates, ratios, -np.inf)))
        l, m = divmod(flat, n_rates)
        if ratios[l, m] <= 0.0:
            break
        if costs[m] <= budget_left:
            picks.append((l, m))
            rate[l] = m
            ratios[l] = np.maximum(table[l, :n_rates] - table[l, m], 0.0) / costs
            budget_left -= costs[m]
            if grid_exclusive:
                candidates[l, :] = False
        candidates[l, m] = False
    return budget_left, evals, picks


@st.composite
def pass_starts(draw) -> tuple[ProblemInstance, list[int], float]:
    inst = draw(instances())
    rate = draw(st.lists(st.integers(0, inst.n_rates), min_size=inst.n_grids,
                         max_size=inst.n_grids))
    budget = float(inst.item_cost_s.max()) * draw(st.floats(0.0, 2.0 * inst.n_grids))
    return inst, rate, budget


# a pass whose only candidate is worth sending, which random draws seldom
# produce
ONE_ITEM_START = (
    ProblemInstance(moi=np.ones((1, 1)), snr_db=(4.0,),
                    mcs=McsTable(rates=(1.0,), thresholds_db=(0.0,)),
                    grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0),
    [1],
    1.0,
)


@PROPERTY_SETTINGS
@hypothesis.given(pass_starts())
@hypothesis.example(ONE_ITEM_START)
def test_argmax_pass_matches_the_dense_reference(start):
    inst, rate, budget = start
    table, costs = inst.rate_class_table, inst.item_cost_s
    ref_rate, new_rate = list(rate), list(rate)
    ref = dense_argmax_pass(table, costs, ref_rate, budget)
    new = _argmax_pass(table, costs, new_rate, budget, 0)
    assert new_rate == ref_rate
    assert new[1:] == ref[1:]  # evals and picks
    assert np.float64(new[0]).tobytes() == np.float64(ref[0]).tobytes()


def push_pop_lazy_pass(table, costs, rate, budget_left):
    """Reference lazy pass: heapify, then a separate pop and push for every
    candidate whose fresh ratio loses to the head."""
    n_rates = costs.size
    current = table[np.arange(table.shape[0]), rate]
    gains = np.maximum(table[:, :n_rates] - current[:, None], 0.0)
    valid = (gains > 0.0) & (costs <= budget_left)[None, :]
    ls, ms = np.nonzero(valid)
    neg = -(gains[ls, ms] / costs[ms])
    heap = list(zip(neg.tolist(), ls.tolist(), ms.tolist()))
    heapq.heapify(heap)
    evals = gains.size - sum(r < n_rates for r in rate)
    picks = []
    rows = table.tolist()
    cost_list = costs.tolist()
    while heap and budget_left > 0:
        _, l, m = heapq.heappop(heap)
        r = rate[l]
        if m >= r or cost_list[m] > budget_left:
            continue
        ratio = (rows[l][m] - rows[l][r]) / cost_list[m]
        evals += 1
        if heap:
            head = heap[0]
            accept = (ratio > -head[0]
                      or (ratio == -head[0] and (l, m) < (head[1], head[2])))
        else:
            accept = True
        if accept:
            if ratio <= 0.0:
                break
            picks.append((l, m))
            rate[l] = m
            budget_left -= cost_list[m]
        else:
            heapq.heappush(heap, (-ratio, l, m))
    return budget_left, evals, picks


def rsu_frame_starts():
    """A pass-1 and a pass-2 start on a scene of the per-frame shape (N=24,
    L=250, 5 ms budget): the budget binds while hundreds of candidates
    remain, which random draws seldom produce."""
    _, inst = generate(GenParams(n_users=24, budget_s=0.005, seed=0))
    table, costs = inst.rate_class_table, inst.item_cost_s
    rate = [inst.n_rates] * inst.n_grids
    budget_left, _, picks = push_pop_lazy_pass(table, costs, rate,
                                               inst.budget_s)
    reclaimed = float(sum(costs[m] for l, m in sorted(picks) if rate[l] != m))
    return ((inst, [inst.n_rates] * inst.n_grids, inst.budget_s),
            (inst, rate, budget_left + reclaimed))


PASS_1_START, PASS_2_START = rsu_frame_starts()

# two grids worth the same; after the first pick the budget left equals
# the cheapest rate's cost exactly, so the second grid must still be sent
_TWO_GRIDS = ProblemInstance(
    moi=np.ones((1, 2)), snr_db=(4.0,),
    mcs=McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 3.0)),
    grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0)
EXACT_BUDGET_START = (_TWO_GRIDS, [2, 2],
                      2.0 * float(_TWO_GRIDS.item_cost_s.min()))

# after (1, 1) is sent, (1, 0)'s fresh ratio exactly ties (0, 0), the
# stream's head, which must go first as the lower grid
TIE_START = (
    ProblemInstance(moi=np.array([[0.0, 1.5], [1.0, 1.0]]), snr_db=(4.0, 1.0),
                    mcs=McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 3.0)),
                    grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0),
    [2, 2],
    1.0,
)


@PROPERTY_SETTINGS
@hypothesis.given(pass_starts())
@hypothesis.example(ONE_ITEM_START)
@hypothesis.example(PASS_1_START)
@hypothesis.example(PASS_2_START)
@hypothesis.example(EXACT_BUDGET_START)
@hypothesis.example(TIE_START)
def test_lazy_pass_matches_the_push_pop_reference(start):
    inst, rate, budget = start
    table, costs = inst.rate_class_table, inst.item_cost_s
    ref_rate, new_rate = list(rate), list(rate)
    ref = push_pop_lazy_pass(table, costs, ref_rate, budget)
    new = _lazy_pass(table, costs, new_rate, budget, 0)
    assert new_rate == ref_rate
    assert new[1:] == ref[1:]  # evals and picks
    assert np.float64(new[0]).tobytes() == np.float64(ref[0]).tobytes()


def two_pass_reference(inst, run_pass):
    """Selection and gain evaluations of the two-pass driver with a
    reference pass on the full L x M table, then the single-item check
    over every item that fits."""
    table, costs = inst.rate_class_table, inst.item_cost_s
    rate = [inst.n_rates] * inst.n_grids
    budget_left, evals, picks = run_pass(table, costs, rate, inst.budget_s)
    reclaimed = float(sum(costs[m] for l, m in sorted(picks) if rate[l] != m))
    if reclaimed > 0.0:
        _, pass_evals, _ = run_pass(table, costs, rate, budget_left + reclaimed)
        evals += pass_evals
    sel = Selection.from_pairs((l, m) for l, m in enumerate(rate)
                               if m < inst.n_rates)
    singles = [(utility(inst, Selection.from_pairs([(l, m)])), (l, m))
               for l in range(inst.n_grids) for m in range(inst.n_rates)
               if costs[m] <= inst.budget_s]
    if singles:
        best = max(value for value, _ in singles)
        if best > utility(inst, sel):
            # sent at the slowest top rate of the users the item reaches
            l, m = min(e for v, e in singles if v == best)
            top = min(int(inst.top_rate[n]) for n in range(inst.n_users)
                      if inst.moi[n, l] > 0 and inst.top_rate[n] >= m)
            sel = Selection.from_pairs([(l, top)])
    return sel, evals


# no grid is wanted: one user wants grid 1 but decodes no rate
NO_WANTED_GRID = ProblemInstance(
    moi=np.array([[0.0, 0.0], [0.0, 1.0]]), snr_db=(4.0, -3.0),
    mcs=McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 4.0)),
    grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0)
# one rate and one wanted grid: once it is sent, the dense pass still
# takes one closing step over the unwanted grid's item
CLOSING_STEP = ProblemInstance(
    moi=np.array([[1.0, 0.0]]), snr_db=(4.0,),
    mcs=McsTable(rates=(1.0,), thresholds_db=(0.0,)),
    grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0)
# one rate and three wanted grids at 8 ms an item, under a budget of
# exactly one item's cost, then of two: each pass must stop once the
# budget is spent exactly, and no sooner
ONE_ITEM_BUDGET, TWO_ITEM_BUDGET = (
    ProblemInstance(moi=np.array([[1.0, 0.5, 0.25]]), snr_db=(4.0,),
                    mcs=McsTable(rates=(1.0,), thresholds_db=(0.0,)),
                    grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=budget)
    for budget in (0.008, 0.016))


@PROPERTY_SETTINGS
@hypothesis.given(instances())
@hypothesis.example(NO_WANTED_GRID)
@hypothesis.example(CLOSING_STEP)
@hypothesis.example(ONE_ITEM_BUDGET)
@hypothesis.example(TWO_ITEM_BUDGET)
def test_solvers_on_the_active_grids_match_the_full_table(inst):
    for solve, run_pass in ((refined_greedy, dense_argmax_pass),
                            (accelerated_greedy, push_pop_lazy_pass)):
        res = solve(inst)
        assert (res.selection, res.gain_evaluations) == \
            two_pass_reference(inst, run_pass)
    rate = [inst.n_rates] * inst.n_grids
    _, evals, _ = dense_argmax_pass(inst.rate_class_table, inst.item_cost_s,
                                    rate, inst.budget_s, grid_exclusive=True)
    res = marginal_util_solve(inst)
    assert res.selection == Selection.from_pairs(
        (l, m) for l, m in enumerate(rate) if m < inst.n_rates)
    assert res.gain_evaluations == evals


def build_every_plan_best_of(inst, candidates, evals):
    """Reference best-of: prices each group by a scan of its members'
    top rates, then builds and evaluates every candidate's plan."""
    top = reference_top(inst)
    best = None
    moi = inst.moi[:, inst.active]
    for groups, meta in candidates:
        rate_idx = [min(top[n] for n in g) for g in groups]
        masks, pass_evals, _, _ = _joint_greedy(inst, groups, rate_idx, moi)
        evals += pass_evals
        plan = member_scan_plan(inst, groups, masks, rate_idx)
        evaluation = evaluate_plan(inst, plan)
        if best is None or evaluation.utility > best[0].utility:
            best = (evaluation, plan, meta)
    if best is None:
        return None
    evaluation, plan, meta = best
    return SolveResult(selection=selection_from_plan(inst, plan), plan=plan,
                       utility=evaluation.utility,
                       latency_s=evaluation.latency_s,
                       gain_evaluations=evals, meta=meta)


@st.composite
def partition_instances(draw) -> ProblemInstance:
    """A tiny instance, or a tie-heavy one: every user wanting the same
    grids by 0.25, or all-zero grids and users with weights in quarters."""
    kind = draw(st.sampled_from(("tiny", "equal_weights", "quarters")))
    if kind == "tiny":
        return draw(instances())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "equal_weights":
        return equal_weights_instance(rng, int(rng.integers(1, 13)),
                                      draw(st.sampled_from((0.3, 0.6, 1.0))))
    inst = unwanted_grids_instance(rng)
    return dataclasses.replace(inst, moi=np.round(inst.moi * 4.0) / 4.0)


@st.composite
def partition_candidates(draw) -> tuple[ProblemInstance, list]:
    inst = draw(partition_instances())
    users = np.flatnonzero(inst.top_rate >= 0)
    candidates = []
    for c in range(draw(st.integers(0, 6))):
        if candidates and draw(st.booleans()):
            # an earlier candidate's groups in another order
            groups, _ = candidates[draw(st.integers(0, len(candidates) - 1))]
            groups = [groups[k] for k in
                      draw(st.permutations(range(len(groups))))]
        else:
            # label -1 leaves a user out of every group
            labels = np.array(draw(st.lists(st.integers(-1, 3),
                                            min_size=users.size,
                                            max_size=users.size)),
                              dtype=np.int64)
            groups = [users[labels == g]
                      for g in np.unique(labels[labels >= 0])]
        candidates.append((groups, {"candidate": c}))
    return inst, candidates


def result_fields(res):
    if res is None:
        return None
    plan = res.plan
    return (res.selection, plan.groups, plan.masks.tobytes(),
            repr(plan.rates_bps), repr(res.utility), repr(res.latency_s),
            res.gain_evaluations, res.meta)


@PROPERTY_SETTINGS
@hypothesis.given(partition_candidates(), st.integers(0, 50))
def test_best_of_matches_the_build_every_plan_reference(case, evals):
    inst, candidates = case
    ref = build_every_plan_best_of(inst, candidates, evals)
    new = _best_of(inst, candidates, evals)
    assert result_fields(new) == result_fields(ref)


def tied_groups_instance() -> ProblemInstance:
    """User 0 decodes only rate 0 and wants grid 0 by 1.0; user 1 decodes
    rate 1, which costs exactly half as much, and wants grid 0 by 0.5 and
    grid 1 by 0.45. As singleton groups they tie at grid 0 (ratio 125), and
    the budget pays for one rate-0 item or two rate-1 items."""
    table = McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 10.0))
    return ProblemInstance(moi=np.array([[1.0, 0.0], [0.5, 0.45]]),
                           snr_db=(0.0, 10.0), mcs=table, grid_bytes=1000.0,
                           bandwidth_hz=1e6, budget_s=0.008)


def counted_joint_greedy(monkeypatch) -> list:
    """Record every joint greedy _best_of runs."""
    calls = []

    def joint_greedy(*args):
        calls.append(_joint_greedy(*args))
        return calls[-1]

    monkeypatch.setattr(baselines, "_joint_greedy", joint_greedy)
    return calls


def test_best_of_runs_a_repeat_whose_groups_tie_at_a_grid(monkeypatch):
    inst = tied_groups_instance()
    slow, fast = np.array([0]), np.array([1])
    # the tie goes to the group listed first: listed first, the fast user
    # is sent grids 0 and 1 (0.95); listed first, the slow user is sent
    # grid 0, which spends the budget (1.0)
    candidates = [([fast, slow], {"candidate": 0}),
                  ([slow, fast], {"candidate": 1})]
    calls = counted_joint_greedy(monkeypatch)
    res = _best_of(inst, candidates, 0)
    assert [tied for *_, tied in calls] == [True, True]
    assert res.meta == {"candidate": 1} and res.utility == 1.0
    ref = build_every_plan_best_of(inst, candidates, 0)
    assert result_fields(res) == result_fields(ref)


def test_best_of_skips_a_repeat_without_a_tie(monkeypatch):
    # user 1 wants grid 0 by 0.4 only: ratio 100 against user 0's 125
    inst = dataclasses.replace(tied_groups_instance(),
                               moi=np.array([[1.0, 0.0], [0.4, 0.45]]))
    both, slow, fast = np.array([0, 1]), np.array([0]), np.array([1])
    candidates = [([fast, slow], {"candidate": 0}), ([both], {"candidate": 1}),
                  ([slow, fast], {"candidate": 2}), ([both], {"candidate": 3})]
    calls = counted_joint_greedy(monkeypatch)
    res = _best_of(inst, candidates, 5)
    assert [len(masks) for masks, *_ in calls] == [2, 1]
    ref = build_every_plan_best_of(inst, candidates, 5)
    assert result_fields(res) == result_fields(ref)


# values with repeats, all equal (no second centre to draw), one value,
# and magnitudes from 1e-300 to 1e300, whose squared gaps underflow to 0 or
# overflow to inf
MAGNITUDES = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                       st.integers(-300, 299))
KMEANS_VALUES = st.one_of(
    st.lists(st.sampled_from((3.1e7, 6.2e7, 6.2e7, 1.3e8, 5.33e8)),
             min_size=1, max_size=40),
    st.builds(lambda v, n: [v] * n, MAGNITUDES, st.integers(1, 20)),
    st.lists(MAGNITUDES, min_size=1, max_size=1),
    st.lists(MAGNITUDES, min_size=1, max_size=40),
)


@hypothesis.settings(PROPERTY_SETTINGS, max_examples=400)
@hypothesis.given(KMEANS_VALUES, st.integers(1, 15), st.integers(0, 2 ** 32 - 1))
@hypothesis.example([1e-300, 1e300], 2, 0)
def test_kmeanspp_draws_match_generator_choice(values, k, seed):
    outcomes = []
    for kmeans in (baselines._kmeanspp_1d, reference.kmeanspp_1d_by_choice):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                labels = kmeans(np.array(values), k, rng).tolist()
            except ValueError as err:  # an overflowed gap: NaN or zero p
                labels = str(err)
        outcomes.append((labels, rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))
SCALARS = ("grid_bytes", "bandwidth_hz", "budget_s")


@st.composite
def non_finite_value(draw, doc: dict) -> None:
    field = draw(st.sampled_from(("moi", "snr_db", *SCALARS)))
    bad = draw(NON_FINITE)
    if field == "snr_db":
        doc["snr_db"][draw(st.integers(0, doc["n_users"] - 1))] = bad
    elif field != "moi":
        doc[field] = bad
    elif doc["moi"]["value"]:
        values = doc["moi"]["value"]
        values[draw(st.integers(0, len(values) - 1))] = bad
    else:
        doc["moi"] = {"user": [0], "grid": [0], "value": [bad]}


@st.composite
def non_positive_size(draw, doc: dict) -> None:
    doc[draw(st.sampled_from(SCALARS))] = draw(
        st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))


@st.composite
def malformed_triplets(draw, doc: dict) -> None:
    moi = doc["moi"]
    if not moi["value"]:
        moi.update(user=[0], grid=[0], value=[0.5])
    at = draw(st.integers(0, len(moi["value"]) - 1))
    defect = draw(st.sampled_from(
        ("unequal_lengths", "out_of_range", "not_an_int", "repeated_pair",
         "negative_weight")))
    if defect == "unequal_lengths":
        moi[draw(st.sampled_from(("user", "grid", "value")))].pop(at)
    elif defect == "out_of_range":
        key = draw(st.sampled_from(("user", "grid")))
        size = doc["n_users" if key == "user" else "n_grids"]
        moi[key][at] = draw(st.integers(-10 ** 6, -1)
                            | st.integers(size, size + 10 ** 6))
    elif defect == "not_an_int":
        key = draw(st.sampled_from(("user", "grid")))
        moi[key][at] = draw(st.sampled_from((0.5, 1.0, "0", None, True, [0])))
    elif defect == "repeated_pair":
        for key in ("user", "grid", "value"):
            moi[key].append(moi[key][at])
    else:
        moi["value"][at] = -draw(st.floats(min_value=1e-300, max_value=1e300))


@st.composite
def invalid_instance_docs(draw) -> dict:
    doc = draw(instances()).to_json()
    defect = draw(st.sampled_from(
        (non_finite_value, non_positive_size, malformed_triplets)))
    draw(defect(doc))
    return doc


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(invalid_instance_docs())
def test_invalid_instance_is_rejected_with_exit_code_1(doc):
    text = json.dumps(doc)  # non-finite floats as NaN/Infinity, as json reads them
    with pytest.raises(ValueError):
        ProblemInstance.from_json(json.loads(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["solve", str(path), "--solver", "birdcast_accel"])
    assert code == 1
    assert err.getvalue().startswith("error:")


# entries a plan document must not hold, by key: groups take integers,
# masks the integers 0 and 1, and rate_bps numbers
BAD_PLAN_ENTRIES = {"groups": (True, False, 0.5, "1", None),
                    "masks": (True, False, 0.5, "1", None, 2),
                    "rate_bps": (True, False, "1", None)}


@st.composite
def invalid_plan_docs(draw) -> dict:
    """A solver's plan document with one entry of groups, masks or
    rate_bps replaced by a bad one, so the document keeps its shape."""
    doc = accelerated_greedy(draw(instances())).plan.to_json()
    key = draw(st.sampled_from(sorted(BAD_PLAN_ENTRIES)))
    bad = draw(st.sampled_from(BAD_PLAN_ENTRIES[key]))
    entries = (doc[key] if key == "rate_bps"
               else doc[key][draw(st.integers(0, len(doc[key]) - 1))])
    if entries:
        entries[draw(st.integers(0, len(entries) - 1))] = bad
    else:  # an empty group
        entries.append(bad)
    return doc


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(invalid_plan_docs())
def test_invalid_plan_document_is_rejected(doc):
    with pytest.raises(ValueError):
        MulticastPlan.from_json(json.loads(json.dumps(doc)))


# what a mutation may put in place of any node of a JSON document
MUTANT_NODES = (None, True, False, 0, -1, 2 ** 63, 10 ** 30, 10 ** 400, 1e308,
                -1e308, 5e-324, math.nan, math.inf, -math.inf, "", "x", [],
                {})


def json_nodes(tree, path=()):
    """(path, node) of every node of a JSON tree, the root first."""
    yield path, tree
    children = (tree.items() if isinstance(tree, dict)
                else enumerate(tree) if isinstance(tree, list) else ())
    for key, child in children:
        yield from json_nodes(child, (*path, key))


@st.composite
def mutated(draw, doc):
    """A copy of the JSON tree doc with one node mutated: a key deleted, a
    list entry duplicated or popped, or the node replaced by one of
    MUTANT_NODES."""
    doc = copy.deepcopy(doc)
    path, node = draw(st.sampled_from(list(json_nodes(doc))))
    kinds = ["replace"]
    if node and isinstance(node, dict):
        kinds.append("delete")
    if node and isinstance(node, list):
        kinds += ["duplicate", "pop"]
    kind = draw(st.sampled_from(kinds))
    if kind == "replace":
        new = copy.deepcopy(draw(st.sampled_from(MUTANT_NODES)))
        if not path:
            return new
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    elif kind == "delete":
        del node[draw(st.sampled_from(sorted(node)))]
    else:
        at = draw(st.integers(0, len(node) - 1))
        if kind == "pop":
            node.pop(at)
        else:
            node.insert(at, copy.deepcopy(node[at]))
    return doc


FIG1 = fig1_instance()
FIG1_RESULT = accelerated_greedy(FIG1)

# every reader of a JSON document: the reader, its writer and a valid
# document to mutate
READERS = {
    "instance": (ProblemInstance.from_json, ProblemInstance.to_json,
                 FIG1.to_json()),
    "plan": (MulticastPlan.from_json, MulticastPlan.to_json,
             FIG1_RESULT.plan.to_json()),
    "selection": (Selection.from_json, Selection.to_json,
                  FIG1_RESULT.selection.to_json()),
    "grid_map": (GridMap.from_json, GridMap.to_json,
                 GridMap(np.array([[0.0, 0.5, 1.0],
                                   [0.25, -1.0, 2.0]])).to_json()),
    "mcs_table": (McsTable.from_json, McsTable.to_json,
                  DEFAULT_MCS_TABLE.to_json()),
    "params": (_genparams_from_dict, _genparams_to_dict,
               _genparams_to_dict(GenParams())),
}


@pytest.mark.parametrize("name", sorted(READERS))
@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data())
def test_mutated_document_is_rejected_or_reads_back(name, data):
    # the reader raises ValueError, and nothing else, or what it read
    # writes a document that reads back the same
    read, write, valid = READERS[name]
    doc = json.loads(json.dumps(data.draw(mutated(valid))))
    try:
        obj = read(doc)
    except ValueError:
        return
    text = json.dumps(write(obj), sort_keys=True)
    assert json.dumps(write(read(json.loads(text))), sort_keys=True) == text


SWEEP_SPEC = {"variable": "n_grids", "values": [20, 40],
              "solvers": ["birdcast", "unicast"], "repetitions": 2, "seed": 3,
              "params": {"n_users": 3, "grid_w": 10, "budget_s": 0.002}}


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(mutated(SWEEP_SPEC))
@hypothesis.example({**SWEEP_SPEC, "repetitions": 2 ** 63})
def test_mutated_sweep_spec_is_rejected_or_read_as_cells(doc):
    # the spec reader raises ValueError, and nothing else, or returns one
    # cell per value and repetition; no writer exists to read back
    doc = json.loads(json.dumps(doc))
    try:
        variable, solver_ids, cells = _sweep_cells(doc)
    except ValueError:
        return
    assert variable in SWEEP_VARIABLES and set(solver_ids) <= set(SOLVERS)
    assert len(cells) == len(doc["values"]) * int(doc.get("repetitions", 1))
    for value, params in cells:
        assert value in doc["values"] and isinstance(params, GenParams)


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(mutated(FIG1.to_json()))
# a rate of 0 Hz (5e-324 Hz times a rate below 1), item costs of 0, a
# budget that pays for more items than a float counts, and one that no
# float holds
@hypothesis.example({**FIG1.to_json(), "bandwidth_hz": 5e-324,
                     "mcs_table": DEFAULT_MCS_TABLE.to_json()})
@hypothesis.example({**FIG1.to_json(), "grid_bytes": 5e-324})
@hypothesis.example({**FIG1.to_json(), "budget_s": 1e308})
@hypothesis.example({**FIG1.to_json(), "budget_s": 10 ** 400})
def test_mutated_instance_file_solves_or_exits_1_with_an_error_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(doc))
        for solver in (*SOLVERS, "oracle"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["solve", str(path), "--solver", solver])
            lines = err.getvalue().splitlines()
            assert code == 0 or (code == 1 and len(lines) == 1
                                 and lines[0].startswith("error:")), \
                (solver, code, lines)
            assert "Traceback" not in err.getvalue()


GRID_COORD = st.integers(-3, 8)


@st.composite
def occlusion_cases(draw):
    """Integer starts, cells and 0-3 rectangles, some of zero width; every
    start is also a cell (a segment of length zero), and starts on the
    rectangles' edges are drawn on purpose."""
    rects = draw(st.lists(
        st.tuples(st.lists(GRID_COORD, min_size=2, max_size=2).map(sorted),
                  st.lists(GRID_COORD, min_size=2, max_size=2).map(sorted))
        .map(lambda xy: (*xy[0], *xy[1])), max_size=3))
    point = st.tuples(GRID_COORD, GRID_COORD)
    starts = draw(st.lists(point, min_size=1, max_size=4))
    for xmin, xmax, ymin, ymax in rects:
        if draw(st.booleans()):  # on an x edge, then on a y edge
            starts.append((draw(st.sampled_from((xmin, xmax))),
                           draw(GRID_COORD)))
            starts.append((draw(GRID_COORD),
                           draw(st.sampled_from((ymin, ymax)))))
    cells = draw(st.lists(point, max_size=4)) + starts
    return starts, cells, rects


@PROPERTY_SETTINGS
@hypothesis.given(occlusion_cases())
def test_segments_blocked_matches_the_exact_reference(case):
    starts, cells, rects = case
    want = [[any(segment_blocked(s, c, r) for r in rects) for c in cells]
            for s in starts]
    args = (np.array(starts, dtype=np.float64),
            np.array(cells, dtype=np.float64),
            [tuple(map(float, r)) for r in rects])
    assert scenario._segments_blocked(*args).tolist() == want
    # one start per block, as at scales past a block's pairs
    with mock.patch.object(scenario, "_CLIP_BLOCK_PAIRS", 1):
        assert scenario._segments_blocked(*args).tolist() == want


@st.composite
def correlation_cases(draw):
    """An h x w feature map, 1 <= h <= 12 and 1 <= w <= 30, and a window of
    1 to 9, larger than the map on some draws; the map is normal noise at
    one of four scales, or holds few distinct values, so that
    differences of zero come up."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.normal(size=(h, w)) * draw(
            st.sampled_from((0.01, 1.0, 10.0, 300.0)))
    else:
        values = rng.integers(-1, 2, size=(h, w)) * 0.5
    return GridMap(values), draw(st.integers(1, 9))


@PROPERTY_SETTINGS
@hypothesis.given(correlation_cases())
# a window larger than the map, and at the default block size, a map
# whose 81 offsets take two blocks
@hypothesis.example((GridMap(np.arange(6.0).reshape(2, 3)), 9))
@hypothesis.example((GridMap(np.sin(np.arange(360.0)).reshape(12, 30)), 9))
def test_local_correlation_blocks_match_one_offset_at_a_time(case):
    compressed, window = case
    want = reference.local_correlation(compressed, window).tobytes()
    assert moi.local_correlation(compressed, window).values.tobytes() == want
    # one offset per block, and two, so that the last block of an odd
    # window ** 2 holds one
    for terms in (1, 2 * compressed.values.size):
        with mock.patch.object(moi, "_CORRELATION_BLOCK_TERMS", terms):
            got = moi.local_correlation(compressed, window).values
        assert got.tobytes() == want
