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

Ties between equal ratios always prefer the lower grid index, then the
lower rate index; with that shared rule the two solvers select identical
sets, which the tests exploit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .instance import (
    CoverageState,
    Item,
    MulticastPlan,
    ProblemInstance,
    Selection,
    coverage_utility,
    evaluate_plan,
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


def _gains_given_coverage(inst: ProblemInstance, covered: np.ndarray,
                          dec_f: np.ndarray) -> np.ndarray:
    """L x M marginal gains of every item against a coverage matrix."""
    return (inst.moi * ~covered).T @ dec_f


def _redundant_items(selected: np.ndarray) -> list[Item]:
    """Items other than the slowest-rate one on every multi-rate grid."""
    removed: list[Item] = []
    for l in np.flatnonzero(selected.sum(axis=1) > 1):
        rates = np.flatnonzero(selected[l])
        removed.extend((int(l), int(m)) for m in rates[1:])
    return removed


def _state_from_selected(inst: ProblemInstance, selected: np.ndarray) -> CoverageState:
    state = CoverageState(inst)
    for l, m in zip(*np.nonzero(selected)):
        state.apply((int(l), int(m)))
    return state


def _ratio_greedy_pass(inst: ProblemInstance, state: CoverageState,
                       selected: np.ndarray, candidates: np.ndarray,
                       budget_left: float, dec_f: np.ndarray,
                       grid_exclusive: bool = False):
    """One greedy pass; every iteration evaluates all remaining candidates.

    Returns (budget_left, evaluations, first_gains) where first_gains is
    the gain matrix of the first iteration (standalone gains when the pass
    starts from empty coverage).

    grid_exclusive drops a grid's other rates permanently once any rate is
    selected for it (the behaviour of the marginal-utility baseline).
    """
    n_rates = inst.n_rates
    costs = inst.item_cost_s
    evals = 0
    first_gains = None
    while candidates.any() and budget_left > 0:
        gains = _gains_given_coverage(inst, state.covered, dec_f)
        if first_gains is None:
            first_gains = gains
        evals += int(candidates.sum())
        ratios = np.where(candidates, gains / costs[None, :], -np.inf)
        flat = int(np.argmax(ratios))
        l, m = divmod(flat, n_rates)
        if gains[l, m] <= 0.0:
            break
        if costs[m] <= budget_left:
            selected[l, m] = True
            state.apply((l, m))
            budget_left -= costs[m]
            if grid_exclusive:
                candidates[l, :] = False
        candidates[l, m] = False
    return budget_left, evals, first_gains


def _feasible_single_argmax(inst: ProblemInstance,
                            standalone: np.ndarray) -> tuple[Item | None, float]:
    fits = inst.item_cost_s <= inst.budget_s
    if not fits.any():
        return None, 0.0
    masked = np.where(fits[None, :], standalone, -np.inf)
    flat = int(np.argmax(masked))
    l, m = divmod(flat, inst.n_rates)
    return (l, m), float(standalone[l, m])


def best_single_item(inst: ProblemInstance) -> tuple[Item | None, float]:
    """Highest-utility single item that fits the whole budget.

    Ties break toward the lower grid index, then the lower rate index.
    Returns (None, 0.0) when no item fits; the value reported goes through
    the canonical coverage evaluator.
    """
    dec_f = inst.decodable.astype(np.float64)
    standalone = inst.moi.T @ dec_f
    item, _ = _feasible_single_argmax(inst, standalone)
    if item is None:
        return None, 0.0
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
    reclaimed = float(sum(inst.item_cost_s[m] for l, m in sel.items
                          if (l, m) not in kept))
    return Selection(kept), reclaimed


def _assemble_result(inst: ProblemInstance, selected: np.ndarray,
                     standalone: np.ndarray, evals: int,
                     t0: float) -> SolveResult:
    """Canonicalize, run the single-item check, and map to a plan."""
    for l, m in _redundant_items(selected):
        selected[l, m] = False
    items = frozenset((int(l), int(m)) for l, m in zip(*np.nonzero(selected)))
    greedy_sel = Selection(items)
    greedy_util = coverage_utility(
        inst, _state_from_selected(inst, selected).covered)
    single_item, single_util = _feasible_single_argmax(inst, standalone)
    if single_item is not None and single_util > greedy_util:
        final = Selection(frozenset({single_item}))
    else:
        final = greedy_sel
    plan = plan_from_selection(inst, final)
    evaluation = evaluate_plan(inst, plan)
    return SolveResult(
        selection=final,
        plan=plan,
        utility=evaluation.utility,
        latency_s=selection_cost(inst, final),
        gain_evaluations=evals,
        wall_time_s=time.perf_counter() - t0,
    )


def refined_greedy(inst: ProblemInstance) -> SolveResult:
    """Two-pass ratio greedy with duplicate-rate removal and reinvestment."""
    t0 = time.perf_counter()
    n_grids, n_rates = inst.n_grids, inst.n_rates
    dec_f = inst.decodable.astype(np.float64)
    costs = inst.item_cost_s
    state = CoverageState(inst)
    selected = np.zeros((n_grids, n_rates), dtype=bool)
    candidates = np.ones((n_grids, n_rates), dtype=bool)
    budget_left = inst.budget_s
    evals = 0
    standalone = None
    for iteration in (1, 2):
        budget_left, pass_evals, first_gains = _ratio_greedy_pass(
            inst, state, selected, candidates, budget_left, dec_f)
        evals += pass_evals
        if standalone is None:
            # pass 1 starts from empty coverage, so its first gain matrix
            # is exactly the standalone single-item utilities
            standalone = (first_gains if first_gains is not None
                          else _gains_given_coverage(inst, state.covered, dec_f))
        if iteration == 1:
            removed = _redundant_items(selected)
            reclaimed = float(sum(costs[m] for _, m in removed))
            if reclaimed <= 0.0:
                break
            for l, m in removed:
                selected[l, m] = False
            state = _state_from_selected(inst, selected)
            budget_left += reclaimed
            candidates = ~selected
    return _assemble_result(inst, selected, standalone, evals, t0)


def _build_heap(gains: np.ndarray, costs: np.ndarray, budget: float,
                exclude: np.ndarray | None = None) -> list[tuple]:
    """Heap of (neg ratio, grid, rate) tuples for the positive, affordable items.

    The stdlib min-heap pops the largest ratio first, and ties between
    equal ratios pop the lower grid index, then the lower rate index.
    """
    valid = (gains > 0.0) & (costs <= budget)[None, :]
    if exclude is not None:
        valid &= ~exclude
    ls, ms = np.nonzero(valid)
    neg = -(gains[ls, ms] / costs[ms])
    heap = list(zip(neg.tolist(), ls.tolist(), ms.tolist()))
    heapq.heapify(heap)
    return heap


def accelerated_greedy(inst: ProblemInstance) -> SolveResult:
    """Lazy-evaluation greedy; same output as refined_greedy, fewer evals.

    A popped candidate is re-evaluated once and accepted immediately when
    its fresh ratio still beats the best cached bound left in the queue;
    otherwise it is re-inserted with the fresh value. Candidates whose
    grid already carries an equal-or-slower rate are dropped on sight.
    """
    t0 = time.perf_counter()
    n_grids, n_rates = inst.n_grids, inst.n_rates
    dec_f = inst.decodable.astype(np.float64)
    costs = inst.item_cost_s
    cost_list = costs.tolist()
    selected = np.zeros((n_grids, n_rates), dtype=bool)
    budget_left = inst.budget_s
    no_coverage = np.zeros((inst.n_users, n_grids), dtype=bool)
    standalone = _gains_given_coverage(inst, no_coverage, dec_f)
    evals = n_grids * n_rates
    heap = _build_heap(standalone, costs, inst.budget_s)
    # hot-loop state: per-grid uncovered member weight and strictest rate
    weight_t = inst.moi.T.copy(order="C")  # (L, N), zeroed as users covered
    dec_t = np.ascontiguousarray(dec_f.T)        # (M, N)
    keep_t = np.ascontiguousarray(~inst.decodable.T)  # (M, N) uncovered survivors
    min_rate = [n_rates] * n_grids
    for iteration in (1, 2):
        while heap and budget_left > 0:
            _, l, m = heapq.heappop(heap)
            if m >= min_rate[l]:
                continue  # dominated: a slower rate already serves this grid
            if cost_list[m] > budget_left:
                continue
            gain = float(np.dot(weight_t[l], dec_t[m]))
            evals += 1
            ratio = gain / cost_list[m]
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
                weight_t[l] *= keep_t[m]
                min_rate[l] = m
                budget_left -= cost_list[m]
            else:
                heapq.heappush(heap, (-ratio, l, m))
        if iteration == 1:
            removed = _redundant_items(selected)
            reclaimed = float(sum(costs[m] for _, m in removed))
            if reclaimed <= 0.0:
                break
            for l, m in removed:
                selected[l, m] = False
            budget_left += reclaimed
            covered = _state_from_selected(inst, selected).covered
            gains = _gains_given_coverage(inst, covered, dec_f)
            evals += n_grids * n_rates - int(selected.sum())
            heap = _build_heap(gains, costs, budget_left, exclude=selected)
            weight_t = (inst.moi * ~covered).T.copy(order="C")
            min_rate = _selected_min_rates(selected, n_rates)
    return _assemble_result(inst, selected, standalone, evals, t0)


def _selected_min_rates(selected: np.ndarray, n_rates: int) -> list[int]:
    """Per-grid slowest selected rate index; sentinel n_rates when empty."""
    return np.where(selected.any(axis=1), selected.argmax(axis=1),
                    n_rates).tolist()
