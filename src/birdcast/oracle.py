"""Exact solver, guarded on the nodes it explores, and an upper bound on
the optimum.

Because a user's coverage of a grid depends only on the slowest rate
selected for that grid, and a faster duplicate rate on the same grid can
only waste budget, an optimal schedule assigns at most one rate per grid.
With S = ProblemInstance.rate_class_table, the problem is then a
multiple-choice knapsack (MCKP; Sinha & Zoltners 1979): pick at most one
option (l, m) per grid, worth S[l, m] at the cost item_cost_s[m] that all
grids share, under the budget. Its LP relaxation fills the budget with
the increments of each grid's upper convex hull of (cost, value), in
order of slope; the oracle's branch and bound (Dyer, Kayal & Walker 1984)
prunes on that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .instance import ProblemInstance, Selection, utility

# the most search nodes exact_solve explores before it gives up
ENUMERATION_CAP = 2 ** 18


class EnumerationCapExceeded(ValueError):
    """The exact search needs more nodes than ENUMERATION_CAP."""


@dataclass(frozen=True)
class OracleResult:
    opt_utility: float
    opt_selection: Selection
    nodes_explored: int

    def to_json(self) -> dict:
        return {
            "opt_utility": self.opt_utility,
            "opt_selection": self.opt_selection.to_json(),
            "nodes_explored": self.nodes_explored,
        }


# (slope, search position of the grid, cost, value) of one hull increment
_Increment = tuple[float, int, float, float]
# (grid, its Pareto options (rate, cost, value) from the slowest rate)
_GridOptions = tuple[int, list[tuple[int, float, float]]]


def _mckp(inst: ProblemInstance
          ) -> tuple[list[_GridOptions], list[_Increment], list[int]]:
    """Pareto options of every grid that has one, in search order, the
    increments of their upper convex hulls, in fill order, and for each
    search position the fill-order index of its grid's first increment.

    An option is Pareto when it fits the budget and is worth strictly more
    than every cheaper option, the skip (0, 0) included; only the active
    grids have one. Grids are ordered by their first hull slope, steepest
    first; increments by slope, steepest first, so each grid's come in
    hull order. Every increment before position p's first belongs to an
    earlier position: it is steeper than p's first slope, so its grid's
    first slope is steeper too, or it ties that slope and comes from an
    earlier position (the sort is stable).
    """
    costs = inst.item_cost_s.tolist()
    fits = [m for m, cost in enumerate(costs) if cost <= inst.budget_s]
    grids = []
    for l, row in zip(inst.active.tolist(), inst.active_table.tolist()):
        # cost falls as m rises and S[l, m] never rises, so option m is
        # worth more than every cheaper one exactly when it is worth more
        # than m + 1; S[l, M] = 0 stands for the skip
        options = [(m, costs[m], row[m]) for m in fits if row[m] > row[m + 1]]
        if not options:
            continue
        # (cost, value, slope from the previous point); slopes fall
        # strictly, and costs rise strictly, so no slope divides by 0
        hull = [(0.0, 0.0, math.inf)]
        for _, cost, value in reversed(options):  # cheapest first
            while True:
                prev_cost, prev_value, prev_slope = hull[-1]
                slope = (value - prev_value) / (cost - prev_cost)
                if slope < prev_slope:
                    break
                hull.pop()
            hull.append((cost, value, slope))
        grids.append((-hull[1][2], l, options, hull))
    grids.sort()  # by first hull slope, steepest first, then by grid
    increments = [(slope, pos, cost - prev[0], value - prev[1])
                  for pos, (_, _, _, hull) in enumerate(grids)
                  for prev, (cost, value, slope) in zip(hull, hull[1:])]
    increments.sort(key=lambda inc: -inc[0])  # stable: ties by position
    # first increments come in position order: that is the order of their
    # slopes, ties by position
    firsts: list[int] = []
    for i, inc in enumerate(increments):
        if inc[1] == len(firsts):
            firsts.append(i)
    return [(l, options) for _, l, options, _ in grids], increments, firsts


def _lp_fill(increments: list[_Increment], budget: float, start: int,
             first: int) -> float:
    """LP optimum over the grids at search positions >= start: whole
    increments in slope order while they fit, then one in part. Every
    increment before index `first` must be of a position below start."""
    total = 0.0
    for _, pos, cost, value in islice(increments, first, None):
        if pos < start:
            continue
        if cost > budget:
            return total + value * (budget / cost)
        budget -= cost
        total += value
    return total


def lp_bound(inst: ProblemInstance) -> float:
    """Upper bound on the optimum: the MCKP's LP relaxation.

    Fills the budget with hull increments in slope order, at most one of
    them in part. Exact up to float rounding (see exact_solve), and cheap
    at any instance size.
    """
    return _lp_fill(_mckp(inst)[1], inst.budget_s, 0, 0)


def _bound_rtol(inst: ProblemInstance) -> float:
    """Relative slack that covers the float rounding of the LP bound and of
    the incumbent: fewer than 2(L*M + L) roundings of non-negative terms,
    each within eps/2."""
    return 2 * (inst.n_items + inst.n_grids) * float(np.finfo(np.float64).eps)


def exact_solve(inst: ProblemInstance) -> OracleResult:
    """True optimum over one-rate-per-grid assignments.

    Branch and bound over the MCKP, depth first on an explicit stack. It
    branches only on each grid's Pareto options (see _mckp), so a slower
    rate that costs more for no more interest is never tried; grids without
    one are always skipped. Grids are fixed in order of first hull slope;
    at each, the options are tried from the slowest rate (highest value) to
    the fastest, then the skip. Every option taken within the budget
    updates the incumbent, as the assignment that skips all later grids. A
    node is pruned when its value plus the LP fill of the grids not yet
    fixed (lp_bound's fill, over the remaining budget) cannot beat the
    incumbent once the bound is inflated by _bound_rtol, 2(L*M + L) eps:
    rounding never cuts a branch that is truly better, and a branch that
    only ties the incumbent is explored. nodes_explored counts the nodes
    entered: the root and every branch whose cost fits. Past
    ENUMERATION_CAP nodes the search raises EnumerationCapExceeded.

    Among assignments of equal value (float sums in search order), the
    lexicographically smallest sorted item list is kept; it never holds an
    option that a cheaper rate of the same grid matches in value.
    """
    options, increments, firsts = _mckp(inst)
    budget = inst.budget_s
    inflate = 1.0 + _bound_rtol(inst)
    best_value = 0.0
    best_items: list[tuple[int, int]] = []
    nodes = 0
    path: list[tuple[int, int]] = []  # the items taken above the node
    # (position, value, cost, items taken above the parent, item or None);
    # a parent pushes its skip first, then its options fastest first, so
    # they pop in the order slowest rate first, skip last
    stack = [(0, 0.0, 0.0, 0, None)]
    while stack:
        pos, value, cost, depth, item = stack.pop()
        del path[depth:]
        if item is not None:
            path.append(item)
            if value >= best_value:
                items = sorted(path)
                if value > best_value or items < best_items:
                    best_value, best_items = value, items
        nodes += 1
        if nodes > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"exact search with M={inst.n_rates}, L={inst.n_grids} "
                f"explores more than the cap of {ENUMERATION_CAP} nodes")
        if pos == len(options):
            continue
        bound = value + _lp_fill(increments, budget - cost, pos, firsts[pos])
        if bound * inflate <= best_value:
            continue
        l, grid_options = options[pos]
        depth = len(path)
        stack.append((pos + 1, value, cost, depth, None))
        for m, item_cost, item_value in reversed(grid_options):
            if cost + item_cost <= budget:
                stack.append((pos + 1, value + item_value, cost + item_cost,
                              depth, (l, m)))

    opt_sel = Selection(frozenset(best_items))
    # report through the canonical evaluator so equal coverage yields
    # bit-identical values across solvers and enumerators
    return OracleResult(
        opt_utility=utility(inst, opt_sel),
        opt_selection=opt_sel,
        nodes_explored=nodes,
    )
