"""Greedy solvers for the grid-rate selection problem.

refined_greedy runs two ratio-greedy passes: after the first pass every
grid holding several rates keeps only its slowest one (higher-rate
duplicates reach a subset of users and add nothing), and the reclaimed
time is reinvested by a second pass over the refreshed candidate pool.
The result is then compared against the best feasible single item, which
secures the worst-case approximation bound for knapsack-constrained
monotone submodular objectives.

accelerated_greedy computes the same solution with far fewer gain
evaluations: cached marginal-utility ratios are upper bounds on the
current ones (diminishing returns), so a max-priority queue re-evaluates
only the most promising candidate per step, and items offering a grid at
a faster rate than one already accepted for that grid are discarded
outright since their gain is zero from then on.

Both run the same two-pass driver, whose only state is rate[l], the
slowest rate selected for grid l (M when none is). Decodability is nested,
so that rate alone decides grid l's coverage, and the gain of item (l, m)
is S[l, m] - S[l, rate[l]] (clamped at 0) on the instance's rate-class
table S. The solvers differ only in how a pass picks the next item: a
dense argmax over the L x M ratio matrix, or a lazy heap. Both read the
same float gains, so exact ratio ties resolve the same way, and a cached
ratio is a true upper bound on the fresh one (S rows are non-increasing).
Ties between equal ratios prefer the lower grid index, then the lower
rate index; with that shared rule the two solvers select identical sets,
which the tests exploit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .instance import (
    Item,
    MulticastPlan,
    ProblemInstance,
    Selection,
    _canonical_plan,
    _rates_utility,
)


@dataclass(frozen=True)
class SolveResult:
    """A solver's schedule plus bookkeeping for benchmarks."""

    selection: Selection
    plan: MulticastPlan
    utility: float
    latency_s: float
    gain_evaluations: int
    wall_time_s: float
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "selection": self.selection.to_json(),
            "plan": self.plan.to_json(),
            "utility": self.utility,
            "latency_s": self.latency_s,
            "gain_evaluations": self.gain_evaluations,
            "wall_time_s": self.wall_time_s,
            "meta": self.meta,
        }


def _gains(table: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """L x M marginal gains of every item given each grid's slowest rate."""
    n_rates = table.shape[1] - 1
    current = table[np.arange(table.shape[0]), rate]
    return np.maximum(table[:, :n_rates] - current[:, None], 0.0)


def _argmax_pass(table: np.ndarray, costs: np.ndarray, rate: list[int],
                 budget_left: float, grid_exclusive: bool = False
                 ) -> tuple[float, int, list[Item]]:
    """One greedy pass; every iteration evaluates all remaining candidates.

    Candidates are every item but each grid's current (l, rate[l]); each
    step scans the whole L x M ratio matrix, with -inf at non-candidates,
    and counts every live candidate as one evaluation. The masked matrix
    and the candidate count persist between steps: a selection rewrites
    only its grid's row, and an unaffordable item only its own entry.
    grid_exclusive drops a grid's other rates permanently once any rate is
    selected for it (the behaviour of the marginal-utility baseline).
    Returns the budget left, the gain evaluations and the items picked.
    """
    n_rates = costs.size
    rate_idx = np.asarray(rate)
    candidates = np.arange(n_rates)[None, :] != rate_idx[:, None]
    masked = np.where(candidates, _gains(table, rate_idx) / costs, -np.inf)
    live = int(candidates.sum())
    picks: list[Item] = []
    evals = 0
    while live and budget_left > 0:
        evals += live
        l, m = divmod(int(np.argmax(masked)), n_rates)
        if masked[l, m] <= 0.0:
            break
        candidates[l, m] = False
        live -= 1
        if costs[m] > budget_left:
            masked[l, m] = -np.inf
            continue
        picks.append((l, m))
        rate[l] = m
        budget_left -= costs[m]
        if grid_exclusive:
            live -= int(candidates[l].sum())
            candidates[l] = False
            masked[l] = -np.inf
        else:
            ratios = np.maximum(table[l, :n_rates] - table[l, m], 0.0) / costs
            masked[l] = np.where(candidates[l], ratios, -np.inf)
    return budget_left, evals, picks


def _lazy_pass(table: np.ndarray, costs: np.ndarray, rate: list[int],
               budget_left: float) -> tuple[float, int, list[Item]]:
    """One lazy-evaluation pass over a heap of cached ratios.

    The heap starts from fresh gains of the positive, affordable items;
    every item but each grid's current (l, rate[l]) counts as one
    evaluation. A popped candidate is re-evaluated once and accepted
    immediately when its fresh ratio still beats the best cached bound
    left in the queue; otherwise it goes back with the fresh value, and
    the same heapreplace yields the next candidate. Candidates whose grid
    already carries an equal-or-slower rate, or that the budget left
    cannot pay for, are dropped on sight. The stdlib min-heap holds
    (neg ratio, grid, rate), so it pops the largest ratio first and, among
    equal ratios, the lower grid, then the lower rate.
    Returns the budget left, the gain evaluations and the items picked.
    """
    rate_idx = np.asarray(rate)
    gains = _gains(table, rate_idx)
    valid = (gains > 0.0) & (costs <= budget_left)[None, :]
    evals = gains.size - int(np.count_nonzero(rate_idx < costs.size))
    picks: list[Item] = []
    if not valid.any():
        return budget_left, evals, picks
    ls, ms = np.divmod(np.flatnonzero(valid), costs.size)
    neg = -(gains[ls, ms] / costs[ms])
    # the items come grid-major, so a stable sort on neg puts them in
    # heap-key order, and a sorted list already is a heap
    order = np.argsort(neg, kind="stable")
    grid_list = ls[order].tolist()
    heap = list(zip(neg[order].tolist(), grid_list, ms[order].tolist()))
    grids = sorted(set(grid_list))
    rows = dict(zip(grids, table[grids].tolist()))  # only rows a pop reads
    cost_list = costs.tolist()
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    while heap and budget_left > 0:
        _, l, m = heappop(heap)
        while m < rate[l] and cost_list[m] <= budget_left:
            row = rows[l]
            # the key holds the negated fresh ratio; a - b is exactly -(b - a)
            key = ((row[rate[l]] - row[m]) / cost_list[m], l, m)
            evals += 1
            if heap and heap[0] < key:
                _, l, m = heapreplace(heap, key)
                continue
            if key[0] >= 0.0:
                return budget_left, evals, picks
            picks.append((l, m))
            rate[l] = m
            budget_left -= cost_list[m]
            break
    return budget_left, evals, picks


def best_single_item(inst: ProblemInstance) -> tuple[Item | None, float]:
    """Highest-utility single item that fits the whole budget.

    Ties break toward the lower grid index, then the lower rate index.
    Returns (None, 0.0) when no item fits; the value reported goes through
    the canonical coverage evaluator.
    """
    fits = inst.item_cost_s <= inst.budget_s
    if not fits.any():
        return None, 0.0
    standalone = inst.rate_class_table[:, :inst.n_rates]
    flat = int(np.argmax(np.where(fits[None, :], standalone, -np.inf)))
    item = divmod(flat, inst.n_rates)
    return item, _rates_utility(inst, _single_item_rates(inst, item))


def _single_item_rates(inst: ProblemInstance, item: Item) -> np.ndarray:
    """Rate vector of the schedule that sends only `item`."""
    rate = np.full(inst.n_grids, inst.n_rates)
    rate[item[0]] = item[1]
    return rate


def _result_from_rates(inst: ProblemInstance, rate: np.ndarray | list[int],
                       evals: int, t0: float, value: float) -> SolveResult:
    """The result of sending each grid l at rate index rate[l] (M: unsent),
    whose objective, _rates_utility(inst, rate), is `value`.

    Latency adds the item costs one by one in grid order, the order of
    Selection.sorted_items; raises ValueError when it exceeds the budget.
    """
    rate = np.asarray(rate)
    sent = np.flatnonzero(rate < inst.n_rates)
    sent_rate = rate[sent]
    latency = (float(np.cumsum(inst.item_cost_s[sent_rate])[-1]) if sent.size
               else 0.0)
    masks = np.zeros((inst.n_rates, inst.n_grids), dtype=bool)
    masks[sent_rate, sent] = True
    return SolveResult(
        selection=Selection(frozenset(zip(sent.tolist(), sent_rate.tolist()))),
        plan=_canonical_plan(inst, masks, latency),
        utility=value,
        latency_s=latency,
        gain_evaluations=evals,
        wall_time_s=time.perf_counter() - t0,
    )


def _two_pass_greedy(inst: ProblemInstance,
                     run_pass: Callable[..., tuple[float, int, list[Item]]]
                     ) -> SolveResult:
    """Pass 1, duplicate removal, reinvestment pass, single-item check.

    run_pass(S, costs, rate, budget_left) lowers `rate` in place and
    returns the budget left, its gain evaluations and the items it picked.
    Pass 1's picks that no longer set their grid's rate are the faster
    duplicates; their cost funds pass 2.
    """
    t0 = time.perf_counter()
    table, costs = inst.rate_class_table, inst.item_cost_s
    rate = [inst.n_rates] * inst.n_grids
    budget_left, evals, picks = run_pass(table, costs, rate, inst.budget_s)
    reclaimed = float(sum(costs[m] for l, m in sorted(picks) if rate[l] != m))
    if reclaimed > 0.0:
        _, pass_evals, _ = run_pass(table, costs, rate, budget_left + reclaimed)
        evals += pass_evals
    rate = np.asarray(rate)
    value = _rates_utility(inst, rate)
    single, single_value = best_single_item(inst)
    if single is not None and single_value > value:
        rate, value = _single_item_rates(inst, single), single_value
    return _result_from_rates(inst, rate, evals, t0, value)


def refined_greedy(inst: ProblemInstance) -> SolveResult:
    """Two-pass ratio greedy with duplicate-rate removal and reinvestment."""
    return _two_pass_greedy(inst, _argmax_pass)


def accelerated_greedy(inst: ProblemInstance) -> SolveResult:
    """Lazy-evaluation greedy; same output as refined_greedy, fewer evals."""
    return _two_pass_greedy(inst, _lazy_pass)
