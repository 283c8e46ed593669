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

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .instance import (
    MulticastPlan,
    ProblemInstance,
    Selection,
    evaluate_plan,
    plan_from_selection,
    selection_cost,
    selection_from_plan,
)
from .solvers import SolveResult, _argmax_pass

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
    rates = inst.user_max_rate_bps()
    rates_bps = []
    for k, members in enumerate(groups):
        if len(members):
            rates_bps.append(float(rates[members].min()))
        else:
            rates_bps.append(float(inst.bandwidth_hz * inst.mcs.rates[rate_idx[k]]))
    plan = MulticastPlan(
        groups=tuple(tuple(int(n) for n in g) for g in groups),
        masks=masks,
        rates_bps=tuple(rates_bps),
    )
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
        warnings.warn(f"broadcast: dropping {len(dropped)} user(s) with no "
                      "decodable rate", stacklevel=2)
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
    selected = np.zeros((inst.n_grids, inst.n_rates), dtype=bool)
    _, evals = _argmax_pass(inst.rate_class_table(), inst.item_cost_s,
                            [inst.n_rates] * inst.n_grids, selected,
                            inst.budget_s, grid_exclusive=True)
    sel = Selection.from_pairs(np.argwhere(selected))
    plan = plan_from_selection(inst, sel)
    evaluation = evaluate_plan(inst, plan)
    return SolveResult(
        selection=sel,
        plan=plan,
        utility=evaluation.utility,
        latency_s=selection_cost(inst, sel),
        gain_evaluations=evals,
        wall_time_s=time.perf_counter() - t0,
    )


def _joint_greedy(inst: ProblemInstance, groups: list[np.ndarray],
                  rate_idx: list[int], budget_s: float):
    """Greedy (grid, group) allocation for disjoint groups.

    Gain of sending grid l to group k is the members' weight not yet
    delivered; groups are disjoint, so a delivery only zeroes its own
    group's entry and the uncovered-weight table stays exact in O(1).
    """
    n_groups = len(groups)
    uncovered = np.stack([inst.moi[g].sum(axis=0) for g in groups], axis=1) \
        if n_groups else np.zeros((inst.n_grids, 0))
    costs = np.array([inst.item_cost_s[m] for m in rate_idx], dtype=np.float64)
    masks = np.zeros((n_groups, inst.n_grids), dtype=bool)
    budget_left = budget_s
    evals = 0
    while n_groups:
        affordable = costs <= budget_left
        if not affordable.any():
            break
        ratios = np.where(affordable[None, :], uncovered / costs[None, :], -np.inf)
        evals += int(affordable.sum()) * inst.n_grids
        flat = int(np.argmax(ratios))
        l, k = divmod(flat, n_groups)
        if uncovered[l, k] <= 0.0:
            break
        masks[k, l] = True
        uncovered[l, k] = 0.0
        budget_left -= costs[k]
    return masks, evals, budget_s - budget_left


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
        masks, pass_evals, _ = _joint_greedy(inst, groups, rate_idx, inst.budget_s)
        evals += pass_evals
        cand = _result_from_groups(inst, groups, masks, rate_idx, 0, t0, {"k": k})
        if best is None or cand.utility > best[0].utility:
            best = (cand, groups, masks, rate_idx, k)
    assert best is not None
    _, groups, masks, rate_idx, k = best
    return _result_from_groups(inst, groups, masks, rate_idx, evals, t0, {"k": k})


class _SegmentTable:
    """Per-contiguous-segment greedy precompute shared across group counts.

    For sorted users i..j-1 the grid ordering by member weight never
    changes; only how many grids fit the per-group budget slice does.
    """

    def __init__(self, inst: ProblemInstance, ordered: np.ndarray,
                 max_idx: np.ndarray) -> None:
        self.inst = inst
        self.ordered = ordered
        n = ordered.size
        prefix = np.zeros((n + 1, inst.n_grids))
        np.cumsum(inst.moi[ordered], axis=0, out=prefix[1:])
        self.rate = np.zeros((n, n), dtype=np.int64)
        self.order: dict[tuple[int, int], np.ndarray] = {}
        self.cum: dict[tuple[int, int], np.ndarray] = {}
        self.weights: dict[tuple[int, int], np.ndarray] = {}
        for i in range(n):
            for j in range(i, n):
                self.rate[i, j] = int(max_idx[ordered[i:j + 1]].min())
                w = prefix[j + 1] - prefix[i]
                order = np.argsort(-w, kind="stable")
                self.order[(i, j)] = order
                self.weights[(i, j)] = w
                self.cum[(i, j)] = np.cumsum(w[order])

    def chosen_grids(self, i: int, j: int, budget_s: float) -> np.ndarray:
        cost = float(self.inst.item_cost_s[self.rate[i, j]])
        order = self.order[(i, j)]
        n_fit = min(len(order), int(budget_s // cost)) if cost > 0 else len(order)
        w = self.weights[(i, j)]
        positive = int((w[order[:n_fit]] > 0.0).sum())
        return order[:positive]

    def value(self, i: int, j: int, budget_s: float,
              fairness_floor: float) -> float:
        chosen = self.chosen_grids(i, j, budget_s)
        value = float(self.cum[(i, j)][len(chosen) - 1]) if len(chosen) else 0.0
        if fairness_floor > 0.0:
            members = self.ordered[i:j + 1]
            totals = self.inst.moi[members].sum(axis=1)
            served = (self.inst.moi[members][:, chosen].sum(axis=1)
                      if len(chosen) else np.zeros(members.size))
            fraction = np.where(totals > 0.0,
                                served / np.maximum(totals, 1e-300), 1.0)
            if np.any(fraction < fairness_floor):
                return -np.inf
        return value


def dp_solve(inst: ProblemInstance, cfg: BaselineConfig = DEFAULT_CONFIG,
             fair: bool = False) -> SolveResult:
    """Contiguous partition of rate-sorted users via dynamic programming.

    Users are sorted by achievable rate (descending); candidate groups are
    contiguous runs valued by their stand-alone greedy utility under an
    equal budget split, and the best partition per group count is found by
    the classic boundary recurrence. The chosen partition then shares the
    full budget in a joint greedy. With fair=True a partition is only
    admissible if its valuation serves every member at least the
    configured fraction of their total interest mass; if no partition
    qualifies the unconstrained result is returned flagged.
    """
    t0 = time.perf_counter()
    users = _decodable_users(inst)
    if users.size == 0:
        return _empty_result(inst, t0, {})
    max_idx = inst.user_max_rate_index()
    rates = inst.user_max_rate_bps()
    order = sorted(users.tolist(), key=lambda n: (-rates[n], n))
    ordered = np.asarray(order)
    n = ordered.size
    floor = cfg.fairness_floor if fair else 0.0
    segments = _SegmentTable(inst, ordered, max_idx)
    best = None
    evals = 0
    for k_groups in range(1, min(cfg.dp_max_groups, n) + 1):
        slice_budget = inst.budget_s / k_groups
        # seg_value[i][j] for group of sorted users i..j (rate set by user j)
        seg_value = np.full((n, n), -np.inf)
        for i in range(n):
            for j in range(i, n):
                seg_value[i, j] = segments.value(i, j, slice_budget, floor)
                evals += 1
        table = np.full((k_groups + 1, n + 1), -np.inf)
        table[0, 0] = 0.0
        choice = np.zeros((k_groups + 1, n + 1), dtype=np.int64)
        for g in range(1, k_groups + 1):
            for j in range(1, n + 1):
                for i in range(g - 1, j):
                    v = table[g - 1, i] + seg_value[i, j - 1]
                    if v > table[g, j]:
                        table[g, j] = v
                        choice[g, j] = i
        if not np.isfinite(table[k_groups, n]):
            continue  # no admissible partition with this many groups
        bounds = []
        j = n
        for g in range(k_groups, 0, -1):
            i = int(choice[g, j])
            bounds.append((i, j))
            j = i
        bounds.reverse()
        groups = [ordered[i:j] for i, j in bounds]
        rate_idx = [int(segments.rate[i, j - 1]) for i, j in bounds]
        masks, pass_evals, _ = _joint_greedy(inst, groups, rate_idx, inst.budget_s)
        evals += pass_evals
        cand = _result_from_groups(inst, groups, masks, rate_idx, 0, t0,
                                   {"k": k_groups, "fair": fair})
        if best is None or cand.utility > best[0].utility:
            best = (cand, groups, masks, rate_idx, k_groups)
    if best is None:
        if fair:
            relaxed = dp_solve(inst, cfg, fair=False)
            meta = dict(relaxed.meta)
            meta["fair_infeasible"] = True
            return SolveResult(
                selection=relaxed.selection, plan=relaxed.plan,
                utility=relaxed.utility, latency_s=relaxed.latency_s,
                gain_evaluations=relaxed.gain_evaluations,
                wall_time_s=time.perf_counter() - t0, meta=meta,
            )
        return _empty_result(inst, t0, {})
    _, groups, masks, rate_idx, k_groups = best
    return _result_from_groups(inst, groups, masks, rate_idx, evals, t0,
                               {"k": k_groups, "fair": fair})
