"""Comparison schedulers sharing the ProblemInstance interface.

Each baseline fixes a grouping policy first (everyone, singletons,
channel-quality clusters, or a sorted contiguous partition) and then
spends the latency budget greedily given that policy; the marginal-utility
heuristic works on grid-rate items directly but commits to a single rate
per grid. Broadcast, unicast and the joint greedy that shares the budget
among fixed groups spend it by one ordered scan (_budget_scan): each item
in turn is sent if the budget left pays for it. k-means++ and the DP
propose candidate partitions and leave through one best-of exit
(_best_of), which runs the joint greedy on each candidate, scores it on
its coverage matrix, keeps the first of highest utility and builds only
that one's plan. Every scheme returns a SolveResult whose utility
is the objective of its own plan, so free riders outside a scheme's groups
earn it no credit.
"""

from __future__ import annotations

import logging
import time
from typing import Iterable

import numpy as np

from .instance import (
    MulticastPlan,
    PlanEvaluation,
    ProblemInstance,
    _group_plan,
    _rates_utility,
    coverage_utility,
    evaluate_plan,
    selection_from_plan,
)
from .solvers import SolveResult, _argmax_pass, _result_from_rates

logger = logging.getLogger(__name__)

BASELINE_IDS = ("broadcast", "unicast", "marginal_util", "kmeanspp", "dp", "dp_fair")

# k-means++ seeding and Lloyd iterations
_RNG_SEED = 0
_LLOYD_MAX_ITER = 100
_LLOYD_TOL = 1e-9


# the most groups a DP partition may have
_DP_MAX_GROUPS = 8
# dp_fair's floor: the least share of each member's total interest that
# the group's valuation must serve. 0.1 is not checked against the
# paper's fairness baseline, whose text is not at hand (PAPER.md holds
# only the abstract); on many scenes no partition meets it and dp_fair
# falls back to dp's schedule (see CHANGES.md).
_FAIRNESS_FLOOR = 0.1

# a _best_of candidate: disjoint groups, each group's rate index, and meta
_Candidate = tuple[list[np.ndarray], list[int], dict]


def _decodable_users(inst: ProblemInstance) -> np.ndarray:
    return np.flatnonzero(inst.user_max_rate_index() >= 0)


def _result(inst: ProblemInstance, plan: MulticastPlan,
            evaluation: PlanEvaluation, meta: dict, evals: int,
            t0: float) -> SolveResult:
    """The one exit of the group baselines: `plan` and its evaluation."""
    return SolveResult(
        selection=selection_from_plan(inst, plan),
        plan=plan,
        utility=evaluation.utility,
        latency_s=evaluation.latency_s,
        gain_evaluations=evals,
        wall_time_s=time.perf_counter() - t0,
        meta=meta,
    )


def _budget_scan(costs: np.ndarray,
                 budget_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Send the items in order, each one the budget left still pays for.

    costs[i] is the cost of the i-th item. Returns the positions of the
    items sent, in order, and the budget before each of them followed by
    the budget left at the end. Each run of items that fit is paid by one
    np.subtract.accumulate, which subtracts in the order a loop would. The
    budget only shrinks, so an item it cannot pay for is dropped for good.
    """
    pos = np.arange(costs.size)
    budget_left = budget_s
    sent = [pos[:0]]
    budgets_before = []
    while pos.size:
        item_costs = costs[pos]
        # the budget before each item, were every item from here on sent
        before = np.subtract.accumulate(np.concatenate(([budget_left], item_costs)))
        short = np.flatnonzero(item_costs > before[:-1])
        stop = int(short[0]) if short.size else pos.size
        sent.append(pos[:stop])
        budgets_before.append(before[:stop])
        budget_left = before[stop]
        pos = pos[stop + 1:]
        pos = pos[costs[pos] <= budget_left]
    return np.concatenate(sent), np.concatenate([*budgets_before, [budget_left]])


def broadcast_solve(inst: ProblemInstance) -> SolveResult:
    """One group of every decodable user at the worst member's rate.

    Grids go in descending total member weight (ties to the lower grid)
    while the budget pays for them; each grid looked at, and the one that
    stops the scan, counts one gain evaluation.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    meta: dict = {}
    if users.size < inst.n_users:
        dropped = sorted(set(range(inst.n_users)) - set(users.tolist()))
        meta["dropped_users"] = dropped
        logger.warning("broadcast: dropping %d user(s) with no decodable rate",
                       len(dropped))
    if users.size == 0:
        return _best_of(inst, [([], [], meta)], 0, t0)
    rate_idx = int(inst.user_max_rate_index()[users].min())
    weights = inst.moi[users].sum(axis=0)
    order = np.argsort(-weights, kind="stable")[:int((weights > 0.0).sum())]
    sent, _ = _budget_scan(np.full(order.size, inst.item_cost_s[rate_idx]),
                           inst.budget_s)
    masks = np.zeros((1, inst.n_grids), dtype=bool)
    masks[0, order[sent]] = True
    plan = _group_plan(inst, [users], masks, [rate_idx])
    return _result(inst, plan, evaluate_plan(inst, plan), meta,
                   min(sent.size + 1, inst.n_grids), t0)


def unicast_solve(inst: ProblemInstance) -> SolveResult:
    """Dedicated per-user links, ranked by weight per unit of link time.

    Every positive (user, grid) pair is scanned once, by ratio descending,
    then the lower user, then the lower grid. Each transmission benefits
    exactly one user, so the same grid sent to two users costs twice; the
    reported selection collapses duplicates but latency and utility follow
    the dedicated plan.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    max_idx = inst.user_max_rate_index()[users]
    weights = inst.moi[users]
    user_cost = inst.item_cost_s[max_idx]
    rows, grids = np.nonzero(weights > 0.0)
    ratios = weights[rows, grids] / user_cost[rows]
    order = np.lexsort((grids, rows, -ratios))
    sent, _ = _budget_scan(user_cost[rows[order]], inst.budget_s)
    picked = np.zeros(weights.shape, dtype=bool)
    picked[rows[order[sent]], grids[order[sent]]] = True
    served = picked.any(axis=1)
    plan = _group_plan(inst, list(users[served, None]), picked[served],
                       max_idx[served].tolist())
    return _result(inst, plan, evaluate_plan(inst, plan), {}, rows.size, t0)


def marginal_util_solve(inst: ProblemInstance) -> SolveResult:
    """Single ratio-greedy pass that never revisits a grid.

    Once a grid is sent at any rate, its other rates leave the candidate
    pool for good, so utility stops growing once every worthwhile grid has
    been committed — no matter how much budget remains.
    """
    t0 = time.perf_counter()
    rate = [inst.n_rates] * inst.n_grids
    _, evals, _ = _argmax_pass(inst.rate_class_table(), inst.item_cost_s, rate,
                               inst.budget_s, grid_exclusive=True)
    return _result_from_rates(inst, rate, evals, t0, _rates_utility(inst, rate))


def _joint_greedy(inst: ProblemInstance, groups: list[np.ndarray],
                  rate_idx: list[int], budget_s: float
                  ) -> tuple[np.ndarray, int]:
    """Greedy (grid, group) allocation for disjoint groups.

    Each step sends the affordable item of highest uncovered member weight
    per second (ties to the lower grid, then the lower group). Groups are
    disjoint, so an item's ratio stays fixed until it is sent, and the
    budget only shrinks, so _budget_scan over the positive items in
    descending ratio order makes the step-by-step argmax's choices. That
    holds while every positive weight gives a positive ratio, which fails
    only for a subnormal weight over a cost above one second. Each step
    counts the affordable groups times L gain evaluations, and so does the
    closing step that finds nothing left to send.
    """
    n_groups = len(groups)
    masks = np.zeros((n_groups, inst.n_grids), dtype=bool)
    if not n_groups:
        return masks, 0
    uncovered = np.stack([inst.moi[g].sum(axis=0) for g in groups], axis=1)
    costs = inst.item_cost_s[rate_idx]
    ratios = (uncovered / costs[None, :]).ravel()
    order = np.argsort(-ratios, kind="stable")
    order = order[:int((ratios > 0.0).sum())]
    sent, steps = _budget_scan(costs[order % n_groups], budget_s)
    items = order[sent]
    masks[items % n_groups, items // n_groups] = True
    affordable = (costs[None, :] <= steps[:, None]).sum(axis=1)
    return masks, int(affordable.sum()) * inst.n_grids


def _best_of(inst: ProblemInstance, candidates: Iterable[_Candidate],
             evals: int, t0: float) -> SolveResult | None:
    """The best candidate partition once the joint greedy shares the full
    budget among its groups: the first of highest utility, with its meta.

    A candidate is scored by coverage_utility on its N x L coverage, each
    member's row its group's mask (the groups are disjoint): the matrix
    evaluate_plan derives from the plan, so the score is bit-identical to
    the plan's utility. Only the winner's plan is built and evaluated.
    evals counts the gain evaluations spent before; every joint greedy
    adds its own. None when there is no candidate.
    """
    best = None
    for groups, rate_idx, meta in candidates:
        masks, pass_evals = _joint_greedy(inst, groups, rate_idx, inst.budget_s)
        evals += pass_evals
        covered = np.zeros((inst.n_users, inst.n_grids), dtype=bool)
        for members, mask in zip(groups, masks):
            covered[members] = mask
        value = coverage_utility(inst, covered)
        if best is None or value > best[0]:
            best = (value, groups, masks, rate_idx, meta)
    if best is None:
        return None
    _, groups, masks, rate_idx, meta = best
    plan = _group_plan(inst, groups, masks, rate_idx)
    return _result(inst, plan, evaluate_plan(inst, plan), meta, evals, t0)


def _kmeanspp_1d(values: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Deterministic-by-seed 1-D k-means++ labels (may use < k clusters).

    A Lloyd step moves each centre to its members' mean, one np.bincount
    pair for all clusters; an empty cluster keeps its centre.
    """
    n = values.size
    centers = [float(values[rng.integers(n)])]
    while len(centers) < k:
        d2 = np.min((values[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = float(d2.sum())
        if total <= 0.0:
            break  # fewer distinct values than requested clusters
        centers.append(float(values[rng.choice(n, p=d2 / total)]))
    centers_arr = np.asarray(centers)
    for _ in range(_LLOYD_MAX_ITER):
        labels = np.argmin(np.abs(values[:, None] - centers_arr[None, :]), axis=1)
        counts = np.bincount(labels, minlength=centers_arr.size)
        sums = np.bincount(labels, weights=values, minlength=centers_arr.size)
        new_centers = np.where(counts > 0, sums / np.maximum(counts, 1),
                               centers_arr)
        if np.max(np.abs(new_centers - centers_arr)) < _LLOYD_TOL:
            centers_arr = new_centers
            break
        centers_arr = new_centers
    return np.argmin(np.abs(values[:, None] - centers_arr[None, :]), axis=1)


def kmeanspp_solve(inst: ProblemInstance) -> SolveResult:
    """Cluster users on achievable rate, then allocate grids per group.

    Sweeps the cluster count k over 1..min(decodable users, M) and keeps
    the best outcome, which favors the baseline.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    if users.size == 0:
        return _best_of(inst, [([], [], {})], 0, t0)
    max_idx = inst.user_max_rate_index()
    rates = inst.user_max_rate_bps()[users]
    rng = np.random.default_rng(_RNG_SEED)

    def clusterings() -> Iterable[_Candidate]:
        for k in range(1, min(users.size, inst.n_rates) + 1):
            labels = _kmeanspp_1d(rates, k, rng)
            groups = [users[labels == c] for c in np.unique(labels)]
            yield groups, [int(max_idx[g].min()) for g in groups], {"k": k}

    return _best_of(inst, clusterings(), 0, t0)


def _below_floor(members: np.ndarray, chosen: np.ndarray, floor: float) -> bool:
    """Whether sending `chosen` serves some member (a row of `members`)
    less than `floor` of their total interest."""
    totals = members.sum(axis=1)
    served = members[:, chosen].sum(axis=1)
    fraction = np.where(totals > 0.0, served / np.maximum(totals, 1e-300), 1.0)
    return bool(np.any(fraction < floor))


def _segment_values(inst: ProblemInstance, ordered: np.ndarray,
                    max_idx: np.ndarray, budgets: list[float],
                    floor: float) -> tuple[np.ndarray, np.ndarray | None,
                                           np.ndarray]:
    """Stand-alone greedy value of every contiguous run of sorted users.

    For sorted users i..j the grid order by summed member weight is the
    same under every budget; only how many grids fit the group's budget
    slice changes. values[k, i, j] is the sum of the run's top
    min(fit, positive) grid weights, where fit counts the grids budgets[k]
    pays for at the run's rate (its slowest member's) and positive the
    grids of positive weight; entries with j < i are -inf. The runs that
    start at user i are valued in one pass over an (n - i) x L array, so
    memory stays O(n L + K n^2).

    With floor > 0 the second table repeats values but is -inf wherever
    the run's chosen grids serve some member less than `floor` of their
    total interest; it is None otherwise. The third result is each run's
    rate index.
    """
    n = ordered.size
    n_grids = inst.n_grids
    fit = np.array([[min(n_grids, int(b // c)) if c > 0 else n_grids
                     for c in inst.item_cost_s.tolist()] for b in budgets],
                   dtype=np.int64)
    weights = inst.moi[ordered]
    prefix = np.zeros((n + 1, n_grids))
    np.cumsum(weights, axis=0, out=prefix[1:])
    totals = weights.sum(axis=1)
    denom = np.maximum(totals, 1e-300)
    slack = 4 * n_grids * np.finfo(float).eps * floor + np.finfo(float).tiny
    values = np.full((len(budgets), n, n), -np.inf)
    fair = values.copy() if floor > 0.0 else None
    seg_rate = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        w = prefix[i + 1:] - prefix[i]  # row r: the run i..i+r
        cum = np.cumsum(np.sort(w, axis=1)[:, ::-1], axis=1)
        rate = np.minimum.accumulate(max_idx[ordered[i:]])
        seg_rate[i, i:] = rate
        n_top = np.minimum(fit[:, rate], (w > 0.0).sum(axis=1))
        top = cum[np.arange(n - i), np.maximum(n_top - 1, 0)]
        values[:, i, i:] = np.where(n_top > 0, top, 0.0)
        if fair is None:
            continue
        order = np.argsort(-w, axis=1, kind="stable")
        # share[u, r, k]: the part of user i+u's interest that run i..i+r
        # serves under budgets[k], for every run at once by one product.
        # Two summation orders of the same p <= L non-negative terms agree
        # to within about L ulp, so only shares that close to the floor
        # need the exact per-run sum.
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n_grids), axis=1)
        picked = rank[:, None, :] < n_top.T[:, :, None]
        served = weights[i:] @ picked.reshape(-1, n_grids).T
        share = served.reshape(n - i, n - i, -1) / denom[i:, None, None]
        counted = (np.triu(np.ones((n - i, n - i), dtype=bool))
                   & (totals[i:] > 0.0)[:, None])[:, :, None]
        reject = ((share < floor) & counted).any(axis=0)
        near = ((np.abs(share - floor) <= slack) & counted).any(axis=0)
        for r, k in zip(*np.nonzero(near)):
            reject[r, k] = _below_floor(weights[i:i + r + 1],
                                        order[r, :n_top[k, r]], floor)
        fair[:, i, i:] = np.where(reject.T, -np.inf, values[:, i, i:])
    return values, fair, seg_rate


def _best_split(seg_value: np.ndarray,
                n_groups: int) -> list[tuple[int, int]] | None:
    """Bounds (i, j) of the best split of the sorted users into n_groups
    runs, or None when every split holds a -inf run.

    Classic boundary recurrence: table[g, j] is the best value of the
    first j users in g runs, and each cell keeps the first i that reaches
    its maximum.
    """
    n = seg_value.shape[0]
    table = np.full((n_groups + 1, n + 1), -np.inf)
    table[0, 0] = 0.0
    choice = np.zeros((n_groups + 1, n + 1), dtype=np.int64)
    for g in range(1, n_groups + 1):
        cand = table[g - 1, :n, None] + seg_value  # [i, j - 1]
        start = np.argmax(cand, axis=0)
        best = cand[start, np.arange(n)]
        reached = best > -np.inf
        table[g, 1:][reached] = best[reached]
        choice[g, 1:][reached] = start[reached]
    if not np.isfinite(table[n_groups, n]):
        return None
    bounds = []
    j = n
    for g in range(n_groups, 0, -1):
        i = int(choice[g, j])
        bounds.append((i, j))
        j = i
    bounds.reverse()
    return bounds


def _partitions(ordered: np.ndarray, values: np.ndarray,
                seg_rate: np.ndarray, fair: bool) -> Iterable[_Candidate]:
    """The best split of the sorted users for each group count, as
    _best_of candidates; a group count with no split is skipped."""
    for k_groups, seg_value in enumerate(values, start=1):
        bounds = _best_split(seg_value, k_groups)
        if bounds is not None:
            yield ([ordered[i:j] for i, j in bounds],
                   [int(seg_rate[i, j - 1]) for i, j in bounds],
                   {"k": k_groups, "fair": fair})


def dp_solve(inst: ProblemInstance, fair: bool = False) -> SolveResult:
    """Contiguous partition of rate-sorted users via dynamic programming.

    Users are sorted by achievable rate (descending); candidate groups are
    contiguous runs valued by their stand-alone greedy utility under an
    equal budget split, and the best partition into each group count up
    to _DP_MAX_GROUPS is found by the classic boundary recurrence. Each of
    those partitions then shares the full budget in the joint greedy, and
    _best_of keeps the first of highest utility. With fair=True a
    partition is only admissible if its valuation serves every member at
    least _FAIRNESS_FLOOR of their total interest mass. When no partition
    meets it, the plain dp schedule is returned flagged
    meta["fair_infeasible"]; at a 5 ms budget that held on 24 to 32 of 42
    scenes of N=32, L=250 on each of four sets of scene seeds.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    if users.size == 0:
        return _best_of(inst, [([], [], {})], 0, t0)
    max_idx = inst.user_max_rate_index()
    rates = inst.user_max_rate_bps()
    ordered = np.asarray(sorted(users.tolist(), key=lambda n: (-rates[n], n)))
    n_groups = min(_DP_MAX_GROUPS, ordered.size)
    budgets = [inst.budget_s / k for k in range(1, n_groups + 1)]
    floor = _FAIRNESS_FLOOR if fair else 0.0
    values, fair_values, seg_rate = _segment_values(inst, ordered, max_idx,
                                                    budgets, floor)
    # every group count values every contiguous run once
    evals = n_groups * ordered.size * (ordered.size + 1) // 2
    admissible = values if fair_values is None else fair_values
    result = _best_of(inst, _partitions(ordered, admissible, seg_rate, fair),
                      evals, t0)
    if result is None:
        result = _best_of(inst, _partitions(ordered, values, seg_rate, False),
                          evals, t0)
        result.meta["fair_infeasible"] = True
    return result
