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
    plan_from_selection,
    selection_cost,
    utility,
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


def _gains(table: np.ndarray, rate: list[int]) -> np.ndarray:
    """L x M marginal gains of every item given each grid's slowest rate."""
    n_rates = table.shape[1] - 1
    current = table[np.arange(table.shape[0]), rate]
    return np.maximum(table[:, :n_rates] - current[:, None], 0.0)


def _argmax_pass(table: np.ndarray, costs: np.ndarray, rate: list[int],
                 selected: np.ndarray, budget_left: float,
                 grid_exclusive: bool = False) -> tuple[float, int]:
    """One greedy pass; every iteration evaluates all remaining candidates.

    Candidates are the items not yet selected. A selection rewrites only
    its grid's row of the ratio matrix. grid_exclusive drops a grid's other
    rates permanently once any rate is selected for it (the behaviour of
    the marginal-utility baseline).
    """
    n_rates = costs.size
    ratios = _gains(table, rate) / costs
    candidates = ~selected
    evals = 0
    while candidates.any() and budget_left > 0:
        evals += int(candidates.sum())
        flat = int(np.argmax(np.where(candidates, ratios, -np.inf)))
        l, m = divmod(flat, n_rates)
        if ratios[l, m] <= 0.0:
            break
        if costs[m] <= budget_left:
            selected[l, m] = True
            rate[l] = m
            ratios[l] = np.maximum(table[l, :n_rates] - table[l, m], 0.0) / costs
            budget_left -= costs[m]
            if grid_exclusive:
                candidates[l, :] = False
        candidates[l, m] = False
    return budget_left, evals


def _lazy_pass(table: np.ndarray, costs: np.ndarray, rate: list[int],
               selected: np.ndarray, budget_left: float) -> tuple[float, int]:
    """One lazy-evaluation pass over a heap of cached ratios.

    The heap starts from fresh gains of the unselected, positive,
    affordable items (each counts as one evaluation). A popped candidate is
    re-evaluated once and accepted immediately when its fresh ratio still
    beats the best cached bound left in the queue; otherwise it is
    re-inserted with the fresh value. Candidates whose grid already
    carries an equal-or-slower rate are dropped on sight. The stdlib
    min-heap holds (neg ratio, grid, rate), so it pops the largest ratio
    first and, among equal ratios, the lower grid, then the lower rate.
    """
    gains = _gains(table, rate)
    valid = (gains > 0.0) & (costs <= budget_left)[None, :] & ~selected
    ls, ms = np.nonzero(valid)
    neg = -(gains[ls, ms] / costs[ms])
    heap = list(zip(neg.tolist(), ls.tolist(), ms.tolist()))
    heapq.heapify(heap)
    evals = selected.size - int(selected.sum())
    grids = np.unique(ls)
    rows = dict(zip(grids.tolist(), table[grids].tolist()))  # only rows a pop reads
    cost_list = costs.tolist()
    while heap and budget_left > 0:
        _, l, m = heapq.heappop(heap)
        r = rate[l]
        if m >= r:
            continue  # dominated: a slower rate already serves this grid
        if cost_list[m] > budget_left:
            continue
        row = rows[l]
        ratio = (row[m] - row[r]) / cost_list[m]
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
            selected[l, m] = True
            rate[l] = m
            budget_left -= cost_list[m]
        else:
            heapq.heappush(heap, (-ratio, l, m))
    return budget_left, evals


def best_single_item(inst: ProblemInstance) -> tuple[Item | None, float]:
    """Highest-utility single item that fits the whole budget.

    Ties break toward the lower grid index, then the lower rate index.
    Returns (None, 0.0) when no item fits; the value reported goes through
    the canonical coverage evaluator.
    """
    return _best_single_item(inst, inst.rate_class_table())


def _best_single_item(inst: ProblemInstance,
                      table: np.ndarray) -> tuple[Item | None, float]:
    """best_single_item on the instance's rate-class table `table`."""
    fits = inst.item_cost_s <= inst.budget_s
    if not fits.any():
        return None, 0.0
    standalone = table[:, :inst.n_rates]
    flat = int(np.argmax(np.where(fits[None, :], standalone, -np.inf)))
    item = divmod(flat, inst.n_rates)
    return item, utility(inst, Selection(frozenset({item})))


def remove_redundant(inst: ProblemInstance, sel: Selection) -> tuple[Selection, float]:
    """Keep only the slowest-rate item per grid; report the reclaimed time.

    Utility is unchanged: nested decodability makes every faster duplicate
    reach a subset of the users the slowest one reaches.
    """
    sel.validate(inst)
    keep: dict[int, int] = {}
    for l, m in sel.items:
        if l not in keep or m < keep[l]:
            keep[l] = m
    kept = frozenset((l, m) for l, m in keep.items())
    reclaimed = float(sum(inst.item_cost_s[m] for l, m in sel.sorted_items()
                          if (l, m) not in kept))
    return Selection(kept), reclaimed


def _two_pass_greedy(inst: ProblemInstance,
                     run_pass: Callable[..., tuple[float, int]]) -> SolveResult:
    """Pass 1, duplicate removal, reinvestment pass, single-item check.

    run_pass(S, costs, rate, selected, budget_left) adds items to the L x M
    mask `selected`, lowers `rate` in place, and returns the budget left
    and its gain evaluations.
    """
    t0 = time.perf_counter()
    table = inst.rate_class_table()
    costs = inst.item_cost_s
    n_rates = inst.n_rates
    rate = [n_rates] * inst.n_grids
    selected = np.zeros((inst.n_grids, n_rates), dtype=bool)
    budget_left, evals = run_pass(table, costs, rate, selected, inst.budget_s)
    ls, ms = np.nonzero(selected)
    kept, reclaimed = remove_redundant(
        inst, Selection(frozenset(zip(ls.tolist(), ms.tolist()))))
    if reclaimed > 0.0:
        _, pass_evals = run_pass(table, costs, rate,
                                 kept.dense(inst).astype(bool),
                                 budget_left + reclaimed)
        evals += pass_evals
    greedy = Selection(frozenset((l, m) for l, m in enumerate(rate)
                                 if m < n_rates))
    final, value = greedy, utility(inst, greedy)
    single, single_value = _best_single_item(inst, table)
    if single is not None and single_value > value:
        final, value = Selection(frozenset({single})), single_value
    return SolveResult(
        selection=final,
        plan=plan_from_selection(inst, final),
        utility=value,
        latency_s=selection_cost(inst, final),
        gain_evaluations=evals,
        wall_time_s=time.perf_counter() - t0,
    )


def refined_greedy(inst: ProblemInstance) -> SolveResult:
    """Two-pass ratio greedy with duplicate-rate removal and reinvestment."""
    return _two_pass_greedy(inst, _argmax_pass)


def accelerated_greedy(inst: ProblemInstance) -> SolveResult:
    """Lazy-evaluation greedy; same output as refined_greedy, fewer evals."""
    return _two_pass_greedy(inst, _lazy_pass)
