"""Comparison schedulers sharing the ProblemInstance interface.

Each baseline fixes a grouping policy first (everyone, singletons,
channel-quality clusters, or a sorted contiguous partition) and then
spends the latency budget greedily given that policy; the marginal-utility
heuristic works on grid-rate items directly but commits to a single rate
per grid. Broadcast, unicast and the joint greedy that shares the budget
among fixed groups spend it by one ordered scan (_budget_scan): each item
in turn is sent if the budget left pays for it. Marginal utility scans by
ratio too, passing over the items of grids it has sent. k-means++ and the
DP propose candidate partitions and leave through one best-of exit
(_best_of), which prices each candidate's groups, runs the joint greedy
on each candidate, scores it on its coverage matrix and keeps the first
of highest utility. Every group baseline builds its one plan in _result,
each group at its slowest member's top rate. Every scheme returns a
SolveResult whose utility is the objective of its own plan, so free
riders outside a scheme's groups earn it no credit.
"""

from __future__ import annotations

import logging
from typing import Iterable

import numpy as np

from .instance import (
    ProblemInstance,
    _group_plan,
    _rates_utility,
    coverage_utility,
    evaluate_plan,
    selection_from_plan,
)
from .solvers import SolveResult, _result_from_rates

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

# a _best_of candidate: disjoint groups and meta
_Candidate = tuple[list[np.ndarray], dict]


def _result(inst: ProblemInstance, groups: list[np.ndarray], masks: np.ndarray,
            rate_idx: list[int], meta: dict, evals: int) -> SolveResult:
    """The one exit of the group baselines: the plan in which group k
    sends masks[k] at rate option rate_idx[k] (_group_plan), its
    evaluation, `evals` gain evaluations and `meta`, in a result built
    whole. Broadcast, unicast and _best_of each pass their groups, masks
    and prices."""
    plan = _group_plan(inst, groups, masks, rate_idx)
    evaluation = evaluate_plan(inst, plan)
    return SolveResult(
        selection=selection_from_plan(inst, plan),
        plan=plan,
        utility=evaluation.utility,
        latency_s=evaluation.latency_s,
        gain_evaluations=evals,
        meta=meta,
    )


def _budget_scan(costs: np.ndarray,
                 budget_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Send the items in order, each one the budget left still pays for.

    costs[i] is the cost of the i-th item. Returns the positions of the
    items sent, in order, and the budget before each of them followed by
    the budget left at the end. The scan stops once the budget left is
    below the cheapest cost, since the budget only shrinks.
    """
    cheapest = float(costs.min(initial=np.inf))
    budget_left = budget_s
    sent = []
    budgets_before = []
    for pos, cost in enumerate(costs.tolist()):
        if budget_left < cheapest:
            break
        if cost <= budget_left:
            sent.append(pos)
            budgets_before.append(budget_left)
            budget_left -= cost
    budgets_before.append(budget_left)
    return np.array(sent, dtype=np.intp), np.array(budgets_before)


def broadcast_solve(inst: ProblemInstance) -> SolveResult:
    """One group of every decodable user at the worst member's rate.

    Grids go in descending total member weight (ties to the lower grid)
    while the budget pays for them; each grid looked at, and the one that
    stops the scan, counts one gain evaluation.
    """
    users = np.flatnonzero(inst.top_rate >= 0)
    dropped = np.flatnonzero(inst.top_rate < 0)
    meta: dict = {}
    if dropped.size:
        meta["dropped_users"] = dropped.tolist()
        logger.warning("broadcast: dropping %d user(s) with no decodable rate",
                       dropped.size)
    if users.size == 0:
        return _result(inst, [], np.zeros((0, inst.n_grids), dtype=bool), [],
                       meta, 0)
    # every decodable user is the instance's canonical group 0
    rate_idx = inst.group_rate[0]
    weights = inst.moi[users].sum(axis=0)
    order = np.argsort(-weights, kind="stable")[:int((weights > 0.0).sum())]
    sent, _ = _budget_scan(np.full(order.size, inst.item_cost_s[rate_idx]),
                           inst.budget_s)
    masks = np.zeros((1, inst.n_grids), dtype=bool)
    masks[0, order[sent]] = True
    return _result(inst, [users], masks, [rate_idx], meta,
                   min(sent.size + 1, inst.n_grids))


def unicast_solve(inst: ProblemInstance) -> SolveResult:
    """Dedicated per-user links, ranked by weight per unit of link time.

    Every positive (user, grid) pair is scanned once, by ratio descending,
    then the lower user, then the lower grid. Each transmission benefits
    exactly one user, so the same grid sent to two users costs twice; the
    reported selection collapses duplicates but latency and utility follow
    the dedicated plan.
    """
    users = np.flatnonzero(inst.top_rate >= 0)
    max_idx = inst.top_rate[users]
    weights = inst.moi[users]
    user_cost = inst.item_cost_s[max_idx]
    rows, grids = np.nonzero(weights > 0.0)
    ratios = weights[rows, grids] / user_cost[rows]
    order = np.lexsort((grids, rows, -ratios))
    sent, _ = _budget_scan(user_cost[rows[order]], inst.budget_s)
    picked = np.zeros(weights.shape, dtype=bool)
    picked[rows[order[sent]], grids[order[sent]]] = True
    served = picked.any(axis=1)
    return _result(inst, list(users[served, None]), picked[served],
                   max_idx[served].tolist(), {}, rows.size)


def marginal_util_solve(inst: ProblemInstance) -> SolveResult:
    """Single ratio-greedy pass that never revisits a grid.

    Once a grid is sent at any rate, its other rates leave the candidate
    pool for good, so utility stops growing once every worthwhile grid is
    committed, whatever budget remains. No item's gain changes before its
    grid is sent, so the step-by-step argmax is one scan of the active
    grids' positive items by ratio descending (ties to the lower grid, then
    rate), each sent if its grid is unsent and the budget left pays for it.
    Gain evaluations count as the argmax's: a step counts the live items of
    all L x M, the item scanned leaves, and a pick takes out its grid's
    unscanned items. The scan stops uncounted once the budget left is <= 0;
    if the positive items run out first, a closing step counts those live.
    """
    n_rates, costs = inst.n_rates, inst.item_cost_s.tolist()
    ratios = (inst.active_table[:, :n_rates] / inst.item_cost_s).ravel()
    order = np.argsort(-ratios, kind="stable")[:int((ratios > 0.0).sum())]
    rate = [n_rates] * inst.n_grids
    unscanned = [n_rates] * inst.n_grids
    live, evals, budget_left = inst.n_items, 0, inst.budget_s
    for l, m in zip(inst.active[order // n_rates].tolist(),
                    (order % n_rates).tolist()):
        if rate[l] < n_rates:
            continue  # its grid is sent
        evals += live
        live -= 1
        unscanned[l] -= 1
        if costs[m] <= budget_left:
            rate[l] = m
            live -= unscanned[l]
            budget_left -= costs[m]
            if budget_left <= 0:
                break
    else:
        evals += live
    return _result_from_rates(inst, rate, evals, _rates_utility(inst, rate))


def _joint_greedy(inst: ProblemInstance, groups: list[np.ndarray],
                  rate_idx: list[int],
                  moi: np.ndarray) -> tuple[np.ndarray, int]:
    """Greedy (grid, group) allocation for disjoint groups.

    Each step sends the affordable item of highest uncovered member weight
    per second (ties to the lower grid, then the lower group). Groups are
    disjoint, so an item's ratio stays fixed until it is sent, and the
    budget only shrinks, so _budget_scan over the positive items in
    descending ratio order makes the step-by-step argmax's choices. That
    holds while every positive weight gives a positive ratio, which fails
    only for a subnormal weight over a cost above one second. The groups
    hold users that decode a rate, so only the active grids can have
    positive weight, and only they are ranked: moi is inst.moi's active
    columns. Each step counts the affordable groups times L gain
    evaluations, and so does the closing step that finds nothing left to
    send.
    """
    n_groups = len(groups)
    masks = np.zeros((n_groups, inst.n_grids), dtype=bool)
    if not n_groups:
        return masks, 0
    uncovered = np.stack([moi[g].sum(axis=0) for g in groups], axis=1)
    costs = inst.item_cost_s[rate_idx]
    ratios = (uncovered / costs[None, :]).ravel()
    order = np.argsort(-ratios, kind="stable")
    order = order[:int((ratios > 0.0).sum())]
    sent, steps = _budget_scan(costs[order % n_groups], inst.budget_s)
    items = order[sent]
    masks[items % n_groups, inst.active[items // n_groups]] = True
    affordable = (costs[None, :] <= steps[:, None]).sum(axis=1)
    return masks, int(affordable.sum()) * inst.n_grids


def _best_of(inst: ProblemInstance, candidates: Iterable[_Candidate],
             evals: int) -> SolveResult | None:
    """The best candidate partition once the joint greedy shares the full
    budget among its groups: the first of highest utility, with its meta.

    A candidate is its groups of decodable users, and each group is priced
    here, once, at its slowest member's top rate. A candidate is scored by
    coverage_utility on its N x L coverage, each member's row its group's
    mask (the groups are disjoint): the matrix evaluate_plan derives from
    the plan, so the score is bit-identical to the plan's utility. The
    matrix is one row gather: each user's label (group k's members k,
    everyone else the group count) indexes the masks stacked over one
    all-false row. The active columns of inst.moi are taken once for every
    joint greedy. Only the winner's plan is built and evaluated, by
    _result, with the winner's meta. evals counts the gain evaluations
    spent before; every joint greedy adds its own. None when there is no
    candidate.
    """
    moi = inst.moi.take(inst.active, axis=1)
    unsent = np.zeros((1, inst.n_grids), dtype=bool)
    best = None
    for groups, meta in candidates:
        rate_idx = [int(inst.top_rate[g].min()) for g in groups]
        masks, pass_evals = _joint_greedy(inst, groups, rate_idx, moi)
        evals += pass_evals
        label = np.full(inst.n_users, len(groups))
        for k, members in enumerate(groups):
            label[members] = k
        value = coverage_utility(inst, np.concatenate((masks, unsent))[label])
        if best is None or value > best[0]:
            best = (value, groups, masks, rate_idx, meta)
    return None if best is None else _result(inst, *best[1:], evals)


def _kmeanspp_1d(values: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Deterministic-by-seed 1-D k-means++ labels (may use < k clusters).

    Seeding keeps each value's squared distance to its nearest centre,
    d2, and lowers it by the newest centre's before each draw: a minimum
    is exact, so every draw's probabilities, and with them the random
    stream, are those of the minimum over all centres. A Lloyd step moves
    each centre to its members' mean, one np.bincount pair for all
    clusters; an empty cluster keeps its centre.
    """
    n = values.size
    centers = [float(values[rng.integers(n)])]
    d2 = np.full(n, np.inf)
    while len(centers) < k:
        np.minimum(d2, (values - centers[-1]) ** 2, out=d2)
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
    users = np.flatnonzero(inst.top_rate >= 0)
    if users.size == 0:
        return _best_of(inst, [([], {})], 0)
    rates = inst.user_max_rate_bps()[users]
    rng = np.random.default_rng(_RNG_SEED)

    def clusterings() -> Iterable[_Candidate]:
        for k in range(1, min(users.size, inst.n_rates) + 1):
            labels = _kmeanspp_1d(rates, k, rng)
            groups = [users[labels == c] for c in np.unique(labels)]
            yield groups, {"k": k}

    return _best_of(inst, clusterings(), 0)


def _below_floor(members: np.ndarray, chosen: np.ndarray, floor: float) -> bool:
    """Whether sending `chosen` serves some member (a row of `members`)
    less than `floor` of their total interest."""
    totals = members.sum(axis=1)
    served = members[:, chosen].sum(axis=1)
    fraction = np.where(totals > 0.0, served / np.maximum(totals, 1e-300), 1.0)
    return bool(np.any(fraction < floor))


def _segment_values(inst: ProblemInstance, ordered: np.ndarray,
                    budgets: list[float], floor: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Stand-alone greedy value of every contiguous run of sorted users,
    `ordered`: every user that decodes a rate.

    For sorted users i..j the grid order by summed member weight is the
    same under every budget; only how many grids fit the group's budget
    slice changes. values[k, i, j] is the sum of the run's top
    min(fit, positive) grid weights, where fit counts the grids budgets[k]
    pays for at the run's rate and positive the grids of positive weight;
    entries with j < i are -inf. The users are sorted by top rate,
    descending, so a run's rate, its slowest member's, is its last
    member's.

    A run's top grids all have positive weight, so only the instance's A
    active grids (ProblemInstance.active), the only ones of positive weight
    for some sorted user, are ranked and summed (A may be 0): the runs that
    start at user i are valued in one pass over an (n - i) x A array, so
    the table costs O(n^2 A log A) time and O(n L + K n^2) memory.

    With floor > 0 the second table repeats values but is -inf wherever
    the run's chosen grids serve some member less than `floor` of their
    total interest; it is None otherwise. A run's chosen grids are its
    top n_top in stable order (ties to the lower grid). They are the
    grids of weight at least the n_top-th largest, its threshold, unless
    the next largest ties it and the tie straddles the cut; only such a
    run is ranked by a stable argsort. n_top = 0 picks nothing. Per start
    user the share product costs O(n^2 K A) time and O(K n (n + A))
    memory. Each member's total and the exact recheck near the floor read
    the member's full row of L grids.
    """
    n = ordered.size
    n_grids = inst.n_grids
    # fit[k, u]: the grids budgets[k] pays for at sorted user u's rate; a
    # huge budget's b // c is inf, which min caps before int
    fit = np.array([[int(min(n_grids, b // c))
                     for c in inst.item_cost_s.tolist()] for b in budgets],
                   dtype=np.int64)[:, inst.top_rate[ordered]]
    weights = inst.moi[ordered]
    totals = weights.sum(axis=1)
    denom = np.maximum(totals, 1e-300)
    n_cols = inst.active.size
    active = weights.take(inst.active, axis=1)
    prefix = np.zeros((n + 1, n_cols))
    np.cumsum(active, axis=0, out=prefix[1:])
    slack = 4 * n_grids * np.finfo(float).eps * floor + np.finfo(float).tiny
    values = np.full((len(budgets), n, n), -np.inf)
    fair = values.copy() if floor > 0.0 else None
    # counted[u, r]: run r holds member u, whose share the floor checks
    counted = np.triu(np.ones((n, n), dtype=bool)) & (totals > 0.0)[:, None]
    for i in range(n):
        w = prefix[i + 1:] - prefix[i]  # row r: the run i..i+r
        runs = np.arange(n - i)
        asc = np.sort(w, axis=1)
        # cum[r, p]: the run's p largest active weights, cum[r, 0] = 0
        cum = np.zeros((n - i, n_cols + 1))
        np.cumsum(asc[:, ::-1], axis=1, out=cum[:, 1:])
        n_top = np.minimum(fit[:, i:], (w > 0.0).sum(axis=1))
        values[:, i, i:] = cum[runs, n_top]
        if fair is None:
            continue
        # edge[r]: asc[r] between a -inf and an inf column, so run r's p-th
        # largest weight is edge[r, n_cols + 1 - p], inf for p = 0
        edge = np.empty((n - i, n_cols + 2))
        edge[:, 0], edge[:, -1] = -np.inf, np.inf
        edge[:, 1:-1] = asc
        # thr[r, k]: the n_top-th largest weight of run r under budgets[k];
        # the picks are the weights at least thr unless the next largest
        # ties it
        top = n_top.T
        thr = edge[runs[:, None], n_cols + 1 - top]
        picked = w[:, None, :] >= thr[:, :, None]
        straddled = (edge[runs[:, None], n_cols - top] == thr).any(axis=1)
        for r in np.flatnonzero(straddled):
            rank = np.empty(n_cols, dtype=np.intp)
            rank[np.argsort(-w[r], kind="stable")] = np.arange(n_cols)
            picked[r] = rank < top[r, :, None]
        # share[u, r, k]: the part of user i+u's interest that run i..i+r
        # serves under budgets[k], for every run at once by one product.
        # Two summation orders of the same p <= L non-negative terms agree
        # to within about L ulp, so only shares that close to the floor
        # need the exact per-run sum.
        # the row count is spelled out: reshape(-1, 0) has no answer; the
        # division is in place, so the product is the one (n - i)^2 K array
        share = (active[i:] @ picked.reshape(n_top.size, n_cols).T
                 ).reshape(n - i, n - i, -1)
        share /= denom[i:, None, None]
        in_run = counted[i:, i:, None]
        reject = ((share < floor) & in_run).any(axis=0)
        near = ((np.abs(share - floor) <= slack) & in_run).any(axis=0)
        for r, k in zip(*np.nonzero(near)):
            chosen = np.argsort(-w[r], kind="stable")[:top[r, k]]
            reject[r, k] = _below_floor(weights[i:i + r + 1],
                                        inst.active[chosen], floor)
        fair[:, i, i:] = np.where(reject.T, -np.inf, values[:, i, i:])
    return values, fair


def _best_splits(values: np.ndarray) -> list[list[tuple[int, int]] | None]:
    """For each k, the bounds (i, j) of the best split of the sorted users
    into k + 1 runs valued by values[k], or None when every such split
    holds a -inf run.

    Classic boundary recurrence, run for every group count at once:
    table[k, g, j] is the best value of the first j users in g runs under
    values[k], step g advances every count of g runs or more, and each
    cell keeps the first i that reaches its maximum. Its candidates take
    one K x n x n array at the first step.
    """
    n_counts, n = values.shape[:2]
    table = np.full((n_counts, n_counts + 1, n + 1), -np.inf)
    table[:, 0, 0] = 0.0
    choice = np.zeros(table.shape, dtype=np.int64)
    for g in range(1, n_counts + 1):
        cand = table[g - 1:, g - 1, :n, None] + values[g - 1:]  # [k, i, j - 1]
        table[g - 1:, g, 1:] = cand.max(axis=1)
        choice[g - 1:, g, 1:] = np.argmax(cand, axis=1)
    splits = []
    for k in range(n_counts):
        if not np.isfinite(table[k, k + 1, n]):
            splits.append(None)
            continue
        bounds = []
        j = n
        for g in range(k + 1, 0, -1):
            i = int(choice[k, g, j])
            bounds.append((i, j))
            j = i
        bounds.reverse()
        splits.append(bounds)
    return splits


def _partitions(ordered: np.ndarray, values: np.ndarray,
                meta: dict) -> Iterable[_Candidate]:
    """The best split of the sorted users for each group count, as
    _best_of candidates whose meta is {"k": group count, **meta}; a group
    count with no split is skipped. _best_of prices each run at its
    slowest member's top rate, which is its last member's, since the users
    are sorted by top rate, descending."""
    for k_groups, bounds in enumerate(_best_splits(values), start=1):
        if bounds is not None:
            yield [ordered[i:j] for i, j in bounds], {"k": k_groups, **meta}


def dp_solve(inst: ProblemInstance, fair: bool = False) -> SolveResult:
    """Contiguous partition of rate-sorted users via dynamic programming.

    Users are sorted by achievable rate (descending); candidate groups are
    contiguous runs valued by their stand-alone greedy utility under an
    equal budget split (_segment_values, which ranks only the grids some
    decodable user wants), and the best partition into each group count up
    to _DP_MAX_GROUPS is found by the classic boundary recurrence. Each of
    those partitions then shares the full budget in the joint greedy, and
    _best_of keeps the first of highest utility. With fair=True a
    partition is only admissible if its valuation serves every member at
    least _FAIRNESS_FLOOR of their total interest mass. When no partition
    meets it, the plain dp schedule is returned, its meta flagged
    {"fair": False, "fair_infeasible": True} as _partitions builds it; at
    a 5 ms budget that held on 24 to 32 of 42 scenes of N=32, L=250 on each
    of four sets of scene seeds.
    """
    users = np.flatnonzero(inst.top_rate >= 0)
    if users.size == 0:
        return _best_of(inst, [([], {})], 0)
    # users ascend, so ties in top rate stay in user order
    ordered = users[np.argsort(-inst.top_rate[users], kind="stable")]
    n_groups = min(_DP_MAX_GROUPS, ordered.size)
    budgets = [inst.budget_s / k for k in range(1, n_groups + 1)]
    floor = _FAIRNESS_FLOOR if fair else 0.0
    values, fair_values = _segment_values(inst, ordered, budgets, floor)
    # every group count values every contiguous run once
    evals = n_groups * ordered.size * (ordered.size + 1) // 2
    admissible = values if fair_values is None else fair_values
    # _best_of gives None when no partition meets the floor: then dp's
    # schedule, flagged
    flagged = {"fair": False, "fair_infeasible": True}
    return (_best_of(inst, _partitions(ordered, admissible, {"fair": fair}),
                     evals)
            or _best_of(inst, _partitions(ordered, values, flagged), evals))
