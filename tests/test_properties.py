"""Property tests on tiny random instances, drawn by hypothesis."""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from birdcast import (  # noqa: E402
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
    selection_cost,
    selection_from_plan,
    utility,
)
from birdcast.baselines import _best_of, _joint_greedy, _result  # noqa: E402
from birdcast.cli import main  # noqa: E402
from birdcast.instance import (  # noqa: E402
    FEASIBILITY_RTOL,
    _canonical_plan,
    _group_plan,
    is_budget_feasible,
)
from birdcast.oracle import _bound_rtol  # noqa: E402
from birdcast.solvers import _argmax_pass, _lazy_pass  # noqa: E402
from reference import CoverageState, decodable, remove_redundant  # noqa: E402

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
def test_canonical_plan_matches_the_per_group_reference(case):
    inst, sel = case
    masks = np.zeros((inst.n_rates, inst.n_grids), dtype=bool)
    for l, m in sel.items:
        masks[m, l] = True
    dec = decodable(inst)
    groups = [np.flatnonzero(dec[:, k]) for k in range(inst.n_rates)]
    ref = _group_plan(inst, groups, masks, range(inst.n_rates))
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
@hypothesis.given(pass_starts(), st.booleans())
@hypothesis.example(ONE_ITEM_START, False)
def test_argmax_pass_matches_the_dense_reference(start, grid_exclusive):
    inst, rate, budget = start
    table, costs = inst.rate_class_table, inst.item_cost_s
    ref_rate, new_rate = list(rate), list(rate)
    ref = dense_argmax_pass(table, costs, ref_rate, budget, grid_exclusive)
    new = _argmax_pass(table, costs, new_rate, budget, grid_exclusive)
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


@PROPERTY_SETTINGS
@hypothesis.given(pass_starts())
@hypothesis.example(ONE_ITEM_START)
def test_lazy_pass_matches_the_push_pop_reference(start):
    inst, rate, budget = start
    table, costs = inst.rate_class_table, inst.item_cost_s
    ref_rate, new_rate = list(rate), list(rate)
    ref = push_pop_lazy_pass(table, costs, ref_rate, budget)
    new = _lazy_pass(table, costs, new_rate, budget)
    assert new_rate == ref_rate
    assert new[1:] == ref[1:]  # evals and picks
    assert np.float64(new[0]).tobytes() == np.float64(ref[0]).tobytes()


def build_every_plan_best_of(inst, candidates, evals, t0):
    """Reference best-of: builds and evaluates every candidate's plan."""
    best = None
    for groups, rate_idx, meta in candidates:
        masks, pass_evals = _joint_greedy(inst, groups, rate_idx, inst.budget_s)
        evals += pass_evals
        plan = _group_plan(inst, groups, masks, rate_idx)
        evaluation = evaluate_plan(inst, plan)
        if best is None or evaluation.utility > best[1].utility:
            best = (plan, evaluation, meta)
    return None if best is None else _result(inst, *best, evals, t0)


@st.composite
def partition_candidates(draw) -> tuple[ProblemInstance, list]:
    inst = draw(instances())
    max_idx = inst.top_rate
    users = np.flatnonzero(max_idx >= 0)
    candidates = []
    for c in range(draw(st.integers(0, 4))):
        # label -1 leaves a user out of every group
        labels = np.array(draw(st.lists(st.integers(-1, 2), min_size=users.size,
                                        max_size=users.size)), dtype=np.int64)
        groups = [users[labels == g] for g in np.unique(labels[labels >= 0])]
        candidates.append((groups, [int(max_idx[g].min()) for g in groups],
                           {"candidate": c}))
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
    ref = build_every_plan_best_of(inst, candidates, evals, 0.0)
    new = _best_of(inst, candidates, evals, 0.0)
    assert result_fields(new) == result_fields(ref)


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
