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
current ones (diminishing returns), so only the most promising candidate
is re-evaluated per step. The candidates are sorted once by cached ratio
and read as a stream; one whose fresh ratio loses to the best left waits
in a small heap of re-evaluated candidates, and each step takes the better
of the stream's head and that heap's top. Items offering a grid at a
faster rate than one already accepted for that grid are discarded
outright since their gain is zero from then on, and a pass ends once the
budget left cannot pay for the cheapest rate.

Both run the same two-pass driver, whose only state is rate[l], the
slowest rate selected for grid l (M when none is). Decodability is nested,
so that rate alone decides grid l's coverage, and the gain of item (l, m)
is S[l, m] - S[l, rate[l]] (clamped at 0) on the instance's rate-class
table S. A grid that no decoding user wants has an all-zero row of S and
gains nothing, so the passes read only the A rows of the active grids,
taken once when the instance is built (ProblemInstance.active_table), and
the driver maps their rates back through ProblemInstance.active; a pass
still counts the (L - A) M items of the other grids as evaluations, as if
it had scanned them. The solvers differ only in how a pass picks the next
item: a dense argmax over the A x M ratio matrix, or the lazy stream. Both
read the same float gains, so exact ratio ties resolve the same way, and a
cached ratio is a true upper bound on the fresh one (S rows never rise).
Ties between equal ratios prefer the lower grid index, then the lower
rate index; with that shared rule the two solvers select identical sets,
which the tests exploit.
"""

from __future__ import annotations

import heapq
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
    """A solver's schedule plus the counters that explain it. It carries
    no clock: a caller that wants the wall time times the call."""

    selection: Selection
    plan: MulticastPlan
    utility: float
    latency_s: float
    gain_evaluations: int
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "selection": self.selection.to_json(),
            "plan": self.plan.to_json(),
            "utility": self.utility,
            "latency_s": self.latency_s,
            "gain_evaluations": self.gain_evaluations,
            "meta": self.meta,
        }


def _gains(table: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """L x M marginal gains of every item given each grid's slowest rate."""
    n_rates = table.shape[1] - 1
    current = table[np.arange(table.shape[0]), rate]
    return np.maximum(table[:, :n_rates] - current[:, None], 0.0)


def _argmax_pass(table: np.ndarray, costs: np.ndarray, rate: list[int],
                 budget_left: float, unwanted: int
                 ) -> tuple[float, int, list[Item]]:
    """One greedy pass; every iteration evaluates all remaining candidates.

    Candidates are every item but each grid's current (l, rate[l]), plus
    `unwanted` items of grids left out of the table, whose gain is 0; each
    step scans the whole ratio matrix, -inf exactly at non-candidates
    (every ratio is >= 0), and counts every live candidate as one
    evaluation. Matrix and count persist between steps: an item taken or
    unaffordable gets -inf once, and a selection rewrites its grid's row.
    Returns the budget left, the gain evaluations and the items picked.
    """
    n_rates = costs.size
    rate_idx = np.asarray(rate, dtype=np.intp)
    masked = _gains(table, rate_idx) / costs
    sent = np.flatnonzero(rate_idx < n_rates)
    masked[sent, rate_idx[sent]] = -np.inf
    live = masked.size - sent.size + unwanted
    picks: list[Item] = []
    evals = 0
    while live and budget_left > 0:
        evals += live
        if live == unwanted:
            break  # every item left has gain 0
        l, m = divmod(int(np.argmax(masked)), n_rates)
        if masked[l, m] <= 0.0:
            break
        masked[l, m] = -np.inf
        live -= 1
        if costs[m] > budget_left:
            continue
        picks.append((l, m))
        rate[l] = m
        budget_left -= costs[m]
        ratios = np.maximum(table[l, :n_rates] - table[l, m], 0.0) / costs
        masked[l] = np.where(masked[l] > -np.inf, ratios, -np.inf)
    return budget_left, evals, picks


def _lazy_pass(table: np.ndarray, costs: np.ndarray, rate: list[int],
               budget_left: float, unwanted: int
               ) -> tuple[float, int, list[Item]]:
    """One lazy-evaluation pass over a sorted stream of cached ratios.

    Every candidate is keyed (neg ratio, grid, rate), so the smallest key
    has the largest ratio and, among equal ratios, the lower grid, then
    the lower rate. The keys of the positive, affordable items start as a
    stream sorted once from fresh gains; every item but each grid's
    current (l, rate[l]) counts as one evaluation, and so do the `unwanted`
    items of grids left out of the table, whose gain is 0. The next
    candidate is the smaller of the stream's head and the top of a small
    heap that holds only re-evaluated keys. It is re-evaluated once and
    accepted immediately when its fresh key still beats the best one left
    in either; otherwise its fresh key goes onto the heap. Candidates whose
    grid already carries an equal-or-slower rate, or that the budget left
    cannot pay for, are dropped on sight, and the pass ends once the
    budget left is below the cheapest rate's cost, since the budget only
    shrinks and every candidate left would be dropped unevaluated.
    Returns the budget left, the gain evaluations and the items picked.
    """
    rate_idx = np.asarray(rate, dtype=np.intp)
    gains = _gains(table, rate_idx)
    valid = (gains > 0.0) & (costs <= budget_left)[None, :]
    evals = (gains.size + unwanted
             - int(np.count_nonzero(rate_idx < costs.size)))
    picks: list[Item] = []
    ls, ms = np.divmod(np.flatnonzero(valid), costs.size)
    neg = -(gains[ls, ms] / costs[ms])
    # the items come grid-major, so a stable sort on neg puts them in key
    # order; reversed, list.pop() reads the stream from its smallest key
    order = np.argsort(neg, kind="stable")[::-1]
    stream = list(zip(neg[order].tolist(), ls[order].tolist(),
                      ms[order].tolist()))
    reheap: list[tuple[float, int, int]] = []
    rows: dict[int, list[float]] = {}  # read when a grid is first evaluated
    cost_list = costs.tolist()
    cheapest = min(cost_list)
    heappop, heappush = heapq.heappop, heapq.heappush
    while stream or reheap:
        if reheap and (not stream or reheap[0] < stream[-1]):
            _, l, m = heappop(reheap)
        else:
            _, l, m = stream.pop()
        cost = cost_list[m]
        if m >= rate[l] or cost > budget_left:
            continue
        row = rows.get(l)
        if row is None:
            row = rows[l] = table[l].tolist()
        # the key holds the negated fresh ratio; a - b is exactly -(b - a)
        key = ((row[rate[l]] - row[m]) / cost, l, m)
        evals += 1
        if (stream and stream[-1] < key) or (reheap and reheap[0] < key):
            heappush(reheap, key)
            continue
        if key[0] >= 0.0:
            break
        picks.append((l, m))
        rate[l] = m
        budget_left -= cost
        if budget_left < cheapest:
            break
    return budget_left, evals, picks


def _best_item(inst: ProblemInstance) -> tuple[Item | None, float]:
    """Highest-utility single item that fits the whole budget, and its
    value as the rate-class table S holds it; (None, 0.0) when none fits.
    Ties break toward the lower grid index, then the lower rate index."""
    fits = inst.item_cost_s <= inst.budget_s
    if not fits.any():
        return None, 0.0
    # costs fall as the rate index rises and rows of S never rise, so the
    # items that fit are those of rates m >= the slowest one that fits, and
    # that rate is the first best of every grid
    m = int(np.argmax(fits))
    l = int(np.argmax(inst.rate_class_table[:, m]))
    return (l, m), float(inst.rate_class_table[l, m])


def best_single_item(inst: ProblemInstance) -> tuple[Item | None, float]:
    """Highest-utility single item that fits the whole budget.

    Ties break toward the lower grid index, then the lower rate index.
    Returns (None, 0.0) when no item fits; the value reported goes through
    the canonical coverage evaluator.
    """
    item, _ = _best_item(inst)
    if item is None:
        return None, 0.0
    return item, _rates_utility(inst, _single_item_rates(inst, item))


def _estimate_may_win(inst: ProblemInstance, estimate: float,
                      value: float) -> bool:
    """Whether a schedule whose value `estimate` sums in another order may
    beat `value` through the canonical evaluator; when False it cannot.

    Two uses: the two-pass driver's best single item, whose estimate is
    its entry of S, and baselines._best_of's candidates, whose estimate is
    the joint greedy's sum of the uncovered weights it sent. Each estimate
    sums the same non-negative weights as the canonical evaluator, exactly
    in real arithmetic, with at most N + M - 2 float additions on any
    leaf's path (S: the class sums, then the reverse cumulative sum) or
    N + N * L - 2 (a group's column sums, then the items sent, at most one
    per grid and group, and at most N disjoint groups); the canonical
    evaluator uses at most N * L - 1 (products by 0 and 1 are exact). So
    each lies within k * 2^-53 of the exact sum, relatively and to first
    order, k its count of additions, and the two counts add up to less
    than 2 (N * L + N + M). A margin of 2^-51, four units in the last
    place, for each of the N * L + N + M terms covers both errors and the
    rounding of the product below; the test passes through an overflow to
    inf, which only opens it.
    """
    margin = (inst.n_users * inst.n_grids + inst.n_users + inst.n_rates) \
        * 2.0 ** -51
    return estimate * (1.0 + margin) > value


def _single_item_rates(inst: ProblemInstance, item: Item) -> np.ndarray:
    """Rate vector of the schedule that sends only `item`."""
    rate = np.full(inst.n_grids, inst.n_rates)
    rate[item[0]] = item[1]
    return rate


def _result_from_rates(inst: ProblemInstance, rate: np.ndarray | list[int],
                       evals: int, value: float) -> SolveResult:
    """The result of sending each grid l at rate index rate[l] (M: unsent),
    whose objective, _rates_utility(inst, rate), is `value`, found with
    `evals` gain evaluations; built whole here, with an empty meta.

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
    )


def _two_pass_greedy(inst: ProblemInstance,
                     run_pass: Callable[..., tuple[float, int, list[Item]]]
                     ) -> SolveResult:
    """Pass 1, duplicate removal, reinvestment pass, single-item check.

    run_pass(S, costs, rate, budget_left, unwanted=...) lowers `rate` in
    place and returns the budget left, its gain evaluations and the items
    it picked; both run on ProblemInstance.active_table, rate[a] being
    grid active[a]'s, and count the (L - A) M idle items as `unwanted`.
    Pass 1's picks that no longer set their grid's rate are the faster
    duplicates; their cost funds pass 2.
    """
    table, costs = inst.active_table, inst.item_cost_s
    unwanted = (inst.n_grids - inst.active.size) * inst.n_rates
    rate = [inst.n_rates] * table.shape[0]
    budget_left, evals, picks = run_pass(table, costs, rate, inst.budget_s,
                                         unwanted=unwanted)
    reclaimed = float(sum(costs[m] for l, m in sorted(picks) if rate[l] != m))
    if reclaimed > 0.0:
        _, pass_evals, _ = run_pass(table, costs, rate,
                                    budget_left + reclaimed, unwanted=unwanted)
        evals += pass_evals
    rate, active_rate = np.full(inst.n_grids, inst.n_rates), rate
    rate[inst.active] = active_rate
    value = _rates_utility(inst, rate)
    single, table_value = _best_item(inst)
    # the canonical evaluation of the single item runs only when S says it
    # may win; it wins when its canonical value beats the passes'
    if single is not None and _estimate_may_win(inst, table_value, value):
        single_value = _rates_utility(inst, _single_item_rates(inst, single))
        if single_value > value:
            # send the grid at the slowest top rate of the users it
            # reaches: the same users, at no more cost than the item's rate
            l, m = single
            reached = inst.top_rate[(inst.moi[:, l] > 0)
                                    & (inst.top_rate >= m)]
            rate = _single_item_rates(inst, (l, int(reached.min())))
            value = single_value
    return _result_from_rates(inst, rate, evals, value)


def refined_greedy(inst: ProblemInstance) -> SolveResult:
    """Two-pass ratio greedy with duplicate-rate removal and reinvestment."""
    return _two_pass_greedy(inst, _argmax_pass)


def accelerated_greedy(inst: ProblemInstance) -> SolveResult:
    """Lazy-evaluation greedy; same output as refined_greedy, fewer evals."""
    return _two_pass_greedy(inst, _lazy_pass)
