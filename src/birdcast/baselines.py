"""Comparison schedulers sharing the ProblemInstance interface.

Each baseline fixes a grouping policy first (everyone, singletons,
channel-quality clusters, or a sorted contiguous partition) and then
spends the latency budget greedily given that policy; the marginal-utility
heuristic works on grid-rate items directly but commits to a single rate
per grid. Every scheme returns a SolveResult whose utility is the
objective of its own plan, so free riders outside a scheme's groups earn
it no credit.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .instance import (
    MulticastPlan,
    ProblemInstance,
    Selection,
    _group_plan,
    evaluate_plan,
    selection_from_plan,
)
from .solvers import SolveResult, _argmax_pass, _result_from_rates

logger = logging.getLogger(__name__)

BASELINE_IDS = ("broadcast", "unicast", "marginal_util", "kmeanspp", "dp", "dp_fair")


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs for the clustering and partitioning baselines."""

    kmeans_k_range: tuple[int, int] | None = None  # inclusive; default [1, min(N, M)]
    dp_max_groups: int = 8
    fairness_floor: float = 0.1
    rng_seed: int = 0
    lloyd_max_iter: int = 100
    lloyd_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.fairness_floor <= 1.0:
            raise ValueError("fairness_floor must lie in [0, 1]")
        if self.dp_max_groups < 1:
            raise ValueError("dp_max_groups must be >= 1")


DEFAULT_CONFIG = BaselineConfig()


def _decodable_users(inst: ProblemInstance) -> np.ndarray:
    return np.flatnonzero(inst.user_max_rate_index() >= 0)


def _empty_result(inst: ProblemInstance, t0: float, meta: dict) -> SolveResult:
    plan = MulticastPlan(groups=(), masks=np.zeros((0, inst.n_grids), bool),
                         rates_bps=())
    return SolveResult(
        selection=Selection(frozenset()),
        plan=plan,
        utility=0.0,
        latency_s=0.0,
        gain_evaluations=0,
        wall_time_s=time.perf_counter() - t0,
        meta=meta,
    )


def _result_from_groups(inst: ProblemInstance, groups: list[np.ndarray],
                        masks: np.ndarray, rate_idx: list[int], evals: int,
                        t0: float, meta: dict) -> SolveResult:
    plan = _group_plan(inst, groups, masks, rate_idx)
    evaluation = evaluate_plan(inst, plan)
    return SolveResult(
        selection=selection_from_plan(inst, plan),
        plan=plan,
        utility=evaluation.utility,
        latency_s=evaluation.latency_s,
        gain_evaluations=evals,
        wall_time_s=time.perf_counter() - t0,
        meta=meta,
    )


def broadcast_solve(inst: ProblemInstance) -> SolveResult:
    """One group of every decodable user at the worst member's rate."""
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    meta: dict = {}
    if users.size < inst.n_users:
        dropped = sorted(set(range(inst.n_users)) - set(users.tolist()))
        meta["dropped_users"] = dropped
        logger.warning("broadcast: dropping %d user(s) with no decodable rate",
                       len(dropped))
    if users.size == 0:
        return _empty_result(inst, t0, meta)
    rate_idx = int(inst.user_max_rate_index()[users].min())
    cost = float(inst.item_cost_s[rate_idx])
    weights = inst.moi[users].sum(axis=0)
    order = np.argsort(-weights, kind="stable")
    mask = np.zeros(inst.n_grids, dtype=bool)
    budget_left = inst.budget_s
    evals = 0
    for l in order:
        evals += 1
        if weights[l] <= 0.0 or cost > budget_left:
            break
        mask[l] = True
        budget_left -= cost
    masks = mask[None, :]
    return _result_from_groups(inst, [users], masks, [rate_idx], evals, t0, meta)


def unicast_solve(inst: ProblemInstance) -> SolveResult:
    """Dedicated per-user links, ranked by weight per unit of link time.

    Each transmission benefits exactly one user, so the same grid sent to
    two users costs twice; the reported selection collapses duplicates but
    latency and utility follow the dedicated plan.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    if users.size == 0:
        return _empty_result(inst, t0, {})
    max_idx = inst.user_max_rate_index()
    pairs = []
    for n in users:
        cost = float(inst.item_cost_s[max_idx[n]])
        for l in range(inst.n_grids):
            w = float(inst.moi[n, l])
            if w > 0.0:
                pairs.append((-w / cost, int(n), l, cost, w))
    pairs.sort()
    budget_left = inst.budget_s
    served: dict[int, list[int]] = {}
    total = 0.0
    evals = len(pairs)
    for _, n, l, cost, w in pairs:
        if cost <= budget_left:
            budget_left -= cost
            served.setdefault(n, []).append(l)
            total += w
    groups = []
    mask_rows = []
    rate_idx = []
    for n in sorted(served):
        row = np.zeros(inst.n_grids, dtype=bool)
        row[served[n]] = True
        groups.append(np.array([n]))
        mask_rows.append(row)
        rate_idx.append(int(max_idx[n]))
    masks = (np.stack(mask_rows) if mask_rows
             else np.zeros((0, inst.n_grids), dtype=bool))
    return _result_from_groups(inst, groups, masks, rate_idx, evals, t0, {})


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
    return _result_from_rates(inst, rate, evals, t0)


def _joint_greedy(inst: ProblemInstance, groups: list[np.ndarray],
                  rate_idx: list[int], budget_s: float
                  ) -> tuple[np.ndarray, int]:
    """Greedy (grid, group) allocation for disjoint groups.

    Each step sends the affordable item of highest uncovered member weight
    per second (ties to the lower grid, then the lower group). Groups are
    disjoint, so an item's ratio stays fixed until it is sent, and the
    budget only shrinks, so an item the budget cannot pay for never
    becomes affordable again: one scan in descending ratio order makes
    the step-by-step argmax's choices. That holds while every positive
    weight gives a positive ratio, which fails only for a subnormal weight
    over a cost above one second. Each step counts the affordable groups
    times L gain evaluations, and so does the closing step that finds
    nothing left to send.
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
    budget_left = budget_s
    sent = [order[:0]]
    budgets_before = []
    while order.size:
        item_costs = costs[order % n_groups]
        # the budget before each item, were every item from here on sent
        before = np.subtract.accumulate(np.concatenate(([budget_left], item_costs)))
        short = np.flatnonzero(item_costs > before[:-1])
        stop = int(short[0]) if short.size else order.size
        sent.append(order[:stop])
        budgets_before.append(before[:stop])
        budget_left = before[stop]
        order = order[stop + 1:]
        order = order[costs[order % n_groups] <= budget_left]
    sent_items = np.concatenate(sent)
    masks[sent_items % n_groups, sent_items // n_groups] = True
    steps = np.concatenate([*budgets_before, [budget_left]])
    affordable = (costs[None, :] <= steps[:, None]).sum(axis=1)
    return masks, int(affordable.sum()) * inst.n_grids


def _kmeanspp_1d(values: np.ndarray, k: int, rng: np.random.Generator,
                 max_iter: int, tol: float) -> np.ndarray:
    """Deterministic-by-seed 1-D k-means++ labels (may use < k clusters)."""
    n = values.size
    centers = [float(values[rng.integers(n)])]
    while len(centers) < k:
        d2 = np.min((values[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = float(d2.sum())
        if total <= 0.0:
            break  # fewer distinct values than requested clusters
        centers.append(float(values[rng.choice(n, p=d2 / total)]))
    centers_arr = np.asarray(centers)
    for _ in range(max_iter):
        labels = np.argmin(np.abs(values[:, None] - centers_arr[None, :]), axis=1)
        new_centers = centers_arr.copy()
        for c in range(centers_arr.size):
            members = values[labels == c]
            if members.size:
                new_centers[c] = members.mean()
        if np.max(np.abs(new_centers - centers_arr)) < tol:
            centers_arr = new_centers
            break
        centers_arr = new_centers
    return np.argmin(np.abs(values[:, None] - centers_arr[None, :]), axis=1)


def kmeanspp_solve(inst: ProblemInstance,
                   cfg: BaselineConfig = DEFAULT_CONFIG) -> SolveResult:
    """Cluster users on achievable rate, then allocate grids per group.

    Sweeps the configured cluster-count range and keeps the best outcome,
    which favors the baseline.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    if users.size == 0:
        return _empty_result(inst, t0, {})
    max_idx = inst.user_max_rate_index()
    rates = inst.user_max_rate_bps()[users]
    lo, hi = cfg.kmeans_k_range or (1, min(users.size, inst.n_rates))
    hi = min(hi, users.size, inst.n_rates)
    if lo < 1 or lo > hi:
        raise ValueError("kmeans_k_range must satisfy 1 <= lo <= hi <= min(N, M)")
    rng = np.random.default_rng(cfg.rng_seed)
    best = None
    evals = 0
    for k in range(lo, hi + 1):
        labels = _kmeanspp_1d(rates, k, rng, cfg.lloyd_max_iter, cfg.lloyd_tol)
        groups = []
        rate_idx = []
        for c in sorted(set(labels.tolist())):
            members = users[labels == c]
            groups.append(members)
            rate_idx.append(int(max_idx[members].min()))
        masks, pass_evals = _joint_greedy(inst, groups, rate_idx, inst.budget_s)
        evals += pass_evals
        value = evaluate_plan(inst, _group_plan(inst, groups, masks,
                                                rate_idx)).utility
        if best is None or value > best[0]:
            best = (value, groups, masks, rate_idx, k)
    assert best is not None
    _, groups, masks, rate_idx, k = best
    return _result_from_groups(inst, groups, masks, rate_idx, evals, t0, {"k": k})


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


def _best_partition(inst: ProblemInstance, ordered: np.ndarray,
                    values: np.ndarray, seg_rate: np.ndarray, t0: float,
                    fair: bool) -> SolveResult | None:
    """Best split for each group count, shared out by the joint greedy;
    the highest-utility one wins. None when no group count has a split."""
    n = ordered.size
    best = None
    evals = 0
    for k_groups, seg_value in enumerate(values, start=1):
        evals += n * (n + 1) // 2
        bounds = _best_split(seg_value, k_groups)
        if bounds is None:
            continue
        groups = [ordered[i:j] for i, j in bounds]
        rate_idx = [int(seg_rate[i, j - 1]) for i, j in bounds]
        masks, pass_evals = _joint_greedy(inst, groups, rate_idx, inst.budget_s)
        evals += pass_evals
        value = evaluate_plan(inst, _group_plan(inst, groups, masks,
                                                rate_idx)).utility
        if best is None or value > best[0]:
            best = (value, groups, masks, rate_idx, k_groups)
    if best is None:
        return None
    _, groups, masks, rate_idx, k_groups = best
    return _result_from_groups(inst, groups, masks, rate_idx, evals, t0,
                               {"k": k_groups, "fair": fair})


def dp_solve(inst: ProblemInstance, cfg: BaselineConfig = DEFAULT_CONFIG,
             fair: bool = False) -> SolveResult:
    """Contiguous partition of rate-sorted users via dynamic programming.

    Users are sorted by achievable rate (descending); candidate groups are
    contiguous runs valued by their stand-alone greedy utility under an
    equal budget split, and the best partition per group count is found by
    the classic boundary recurrence. The chosen partition then shares the
    full budget in a joint greedy. With fair=True a partition is only
    admissible if its valuation serves every member at least the
    configured fraction of their total interest mass. When no partition
    meets fairness_floor, the plain dp schedule is returned flagged
    meta["fair_infeasible"]; at a 5 ms budget that held on 24 to 32 of 42
    scenes of N=32, L=250 on each of four sets of scene seeds.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    if users.size == 0:
        return _empty_result(inst, t0, {})
    max_idx = inst.user_max_rate_index()
    rates = inst.user_max_rate_bps()
    ordered = np.asarray(sorted(users.tolist(), key=lambda n: (-rates[n], n)))
    n_groups = min(cfg.dp_max_groups, ordered.size)
    budgets = [inst.budget_s / k for k in range(1, n_groups + 1)]
    floor = cfg.fairness_floor if fair else 0.0
    values, fair_values, seg_rate = _segment_values(inst, ordered, max_idx,
                                                    budgets, floor)
    if fair_values is None:
        return _best_partition(inst, ordered, values, seg_rate, t0, fair)
    result = _best_partition(inst, ordered, fair_values, seg_rate, t0, fair)
    if result is None:
        result = _best_partition(inst, ordered, values, seg_rate, t0, False)
        result.meta["fair_infeasible"] = True
    return result
