"""Exact solver for small instances plus representation-equivalence checks.

Because a user's coverage of a grid depends only on the slowest rate
selected for that grid, and a faster duplicate rate on the same grid can
only waste budget, an optimal schedule assigns at most one rate per grid.
With S = ProblemInstance.rate_class_table, the problem is then a
multiple-choice knapsack (MCKP; Sinha & Zoltners 1979): pick at most one
option (l, m) per grid, worth S[l, m] at the cost item_cost_s[m] that all
grids share, under the budget. Its LP relaxation fills the budget with
the increments of each grid's upper convex hull of (cost, value), in
order of slope; the oracle's branch and bound (Dyer, Kayal & Walker 1984)
prunes on that bound. Tiny instances can also be checked against fully
unpruned enumerations, including one that allows several rates per grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instance import (
    ProblemInstance,
    Selection,
    evaluate_plan,
    plan_from_selection,
    selection_cost,
    selection_from_plan,
    utility,
)

# the largest assignment spaces (M+1)^L that exact_solve and
# brute_force_assignments search, and the most items L*M unrestricted_opt
# enumerates subsets of
ENUMERATION_CAP = 2 ** 22
_BRUTE_FORCE_CAP = 2 ** 12
_UNRESTRICTED_CAP_ITEMS = 16


class EnumerationCapExceeded(ValueError):
    """The instance's assignment space is too large for exact search."""


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


def _check_cap(inst: ProblemInstance, cap: int) -> None:
    # (M+1)^L can run to thousands of digits, more than Python will format
    if (inst.n_rates + 1) ** inst.n_grids > cap:
        raise EnumerationCapExceeded(
            f"assignment space (M+1)^L with M={inst.n_rates}, "
            f"L={inst.n_grids} exceeds the cap {cap}; "
            "the oracle only handles small instances")


# (slope, search position of the grid, cost, value) of one hull increment
_Increment = tuple[float, int, float, float]
# (grid, its Pareto options (rate, cost, value) from the slowest rate)
_GridOptions = tuple[int, list[tuple[int, float, float]]]


def _mckp(inst: ProblemInstance) -> tuple[list[_GridOptions], list[_Increment]]:
    """Pareto options of every grid that has one, in search order, and the
    increments of their upper convex hulls, in fill order.

    An option is Pareto when it fits the budget and is worth strictly more
    than every cheaper option, the skip (0, 0) included. Grids are ordered
    by their first hull slope, steepest first; increments by slope,
    steepest first, so each grid's come in hull order.
    """
    costs = inst.item_cost_s.tolist()
    fits = [m for m, cost in enumerate(costs) if cost <= inst.budget_s]
    grids = []
    for l, row in enumerate(inst.rate_class_table.tolist()):
        # cost falls as m rises and S[l, m] never rises, so option m is
        # worth more than every cheaper one exactly when it is worth more
        # than m + 1; S[l, M] = 0 stands for the skip
        options = [(m, costs[m], row[m]) for m in fits if row[m] > row[m + 1]]
        if not options:
            continue
        # (cost, value, slope from the previous point); slopes fall strictly
        hull = [(0.0, 0.0, math.inf)]
        for _, cost, value in reversed(options):  # cheapest first
            while True:
                prev_cost, prev_value, prev_slope = hull[-1]
                slope = ((value - prev_value) / (cost - prev_cost)
                         if cost > prev_cost else math.inf)
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
    return [(l, options) for _, l, options, _ in grids], increments


def _lp_fill(increments: list[_Increment], budget: float, start: int) -> float:
    """LP optimum over the grids at search positions >= start: whole
    increments in slope order while they fit, then one in part."""
    total = 0.0
    for _, pos, cost, value in increments:
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
    return _lp_fill(_mckp(inst)[1], inst.budget_s, 0)


def _bound_rtol(inst: ProblemInstance) -> float:
    """Relative slack that covers the float rounding of the LP bound and of
    the incumbent: fewer than 2(L*M + L) roundings of non-negative terms,
    each within eps/2."""
    return 2 * (inst.n_items + inst.n_grids) * float(np.finfo(np.float64).eps)


def exact_solve(inst: ProblemInstance) -> OracleResult:
    """True optimum over one-rate-per-grid assignments.

    Branch and bound over the MCKP. It branches only on each grid's Pareto
    options (see _mckp), so a slower rate that costs more for no more
    interest is never tried; grids without one are always skipped. Grids
    are fixed in order of first hull slope; at each, the options are tried
    from the slowest rate (highest value) to the fastest, then the skip.
    Every option taken within the budget updates the incumbent, as the
    assignment that skips all later grids. A node is pruned when its value
    plus the LP fill of the grids not yet fixed (lp_bound's fill, over the
    remaining budget) cannot beat the incumbent once the bound is inflated
    by _bound_rtol, 2(L*M + L) eps: rounding never cuts a branch that is
    truly better, and a branch that only ties the incumbent is explored.
    nodes_explored counts the nodes entered: the root and every branch
    whose cost fits.

    Among assignments of equal value (float sums in search order), the
    lexicographically smallest sorted item list is kept; it never holds an
    option that a cheaper rate of the same grid matches in value.
    """
    _check_cap(inst, ENUMERATION_CAP)
    options, increments = _mckp(inst)
    budget = inst.budget_s
    inflate = 1.0 + _bound_rtol(inst)
    best_value = 0.0
    best_items: list[tuple[int, int]] = []
    nodes = 0
    stack: list[tuple[int, int]] = []

    def search(pos: int, value: float, cost: float) -> None:
        nonlocal best_value, best_items, nodes
        nodes += 1
        if pos == len(options):
            return
        bound = value + _lp_fill(increments, budget - cost, pos)
        if bound * inflate <= best_value:
            return
        l, grid_options = options[pos]
        for m, item_cost, item_value in grid_options:
            new_cost = cost + item_cost
            if new_cost > budget:
                continue
            stack.append((l, m))
            new_value = value + item_value
            if new_value >= best_value:
                items = sorted(stack)
                if new_value > best_value or items < best_items:
                    best_value, best_items = new_value, items
            search(pos + 1, new_value, new_cost)
            stack.pop()
        search(pos + 1, value, cost)  # skip this grid

    search(0, 0.0, 0.0)
    opt_sel = Selection(frozenset(best_items))
    # report through the canonical evaluator so equal coverage yields
    # bit-identical values across solvers and enumerators
    return OracleResult(
        opt_utility=utility(inst, opt_sel),
        opt_selection=opt_sel,
        nodes_explored=nodes,
    )


def brute_force_assignments(inst: ProblemInstance) -> OracleResult:
    """Unpruned sweep of every one-rate-per-grid assignment (tiny instances)."""
    _check_cap(inst, _BRUTE_FORCE_CAP)
    contrib, costs = inst.rate_class_table[:, :inst.n_rates], inst.item_cost_s
    n_grids, n_rates = inst.n_grids, inst.n_rates
    best_value = 0.0
    best_items: list[tuple[int, int]] = []
    nodes = 0
    for combo in itertools.product(range(n_rates + 1), repeat=n_grids):
        nodes += 1
        cost = sum(costs[m - 1] for m in combo if m > 0)
        if cost > inst.budget_s:
            continue
        value = sum(contrib[l, m - 1] for l, m in enumerate(combo) if m > 0)
        items = sorted((l, m - 1) for l, m in enumerate(combo) if m > 0)
        if value > best_value or (value == best_value and items < best_items):
            best_value = value
            best_items = items
    opt_sel = Selection(frozenset(best_items))
    return OracleResult(
        opt_utility=utility(inst, opt_sel),
        opt_selection=opt_sel,
        nodes_explored=nodes,
    )


def unrestricted_opt(inst: ProblemInstance) -> float:
    """Optimum allowing several rates per grid (double-check mode).

    Enumerates every per-grid subset of rates; a grid's coverage is decided
    by its slowest selected rate while its cost is the subset's total, so
    the sweep genuinely covers all item subsets.
    """
    if inst.n_grids * inst.n_rates > _UNRESTRICTED_CAP_ITEMS:
        raise EnumerationCapExceeded(
            f"L*M = {inst.n_grids * inst.n_rates} exceeds the cap "
            f"{_UNRESTRICTED_CAP_ITEMS}")
    contrib, costs = inst.rate_class_table[:, :inst.n_rates], inst.item_cost_s
    n_rates = inst.n_rates
    # per grid: (cost, value, slowest rate) of every local rate subset;
    # coverage only depends on the slowest selected rate
    local: list[list[tuple[float, float, int | None]]] = []
    for l in range(inst.n_grids):
        options = []
        for bits in range(2 ** n_rates):
            ms = [m for m in range(n_rates) if bits >> m & 1]
            cost = float(sum(costs[m] for m in ms))
            value = float(contrib[l, min(ms)]) if ms else 0.0
            options.append((cost, value, min(ms) if ms else None))
        local.append(options)
    best = 0.0
    best_combo = tuple(opts[0] for opts in local)
    for combo in itertools.product(*local):
        cost = sum(c for c, _, _ in combo)
        if cost > inst.budget_s:
            continue
        value = sum(v for _, v, _ in combo)
        if value > best:
            best = value
            best_combo = combo
    items = [(l, m) for l, (_, _, m) in enumerate(best_combo) if m is not None]
    return utility(inst, Selection(frozenset(items)))


@dataclass(frozen=True)
class EquivalenceReport:
    trials: int
    selection_round_trips: int
    plan_round_trips: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_feasible_selection(inst: ProblemInstance,
                               rng: np.random.Generator) -> Selection:
    items = [(l, m) for l in range(inst.n_grids) for m in range(inst.n_rates)]
    rng.shuffle(items)
    chosen: list[tuple[int, int]] = []
    budget = inst.budget_s
    for l, m in items:
        if rng.random() < 0.4:
            continue
        c = inst.item_cost_s[m]
        if c <= budget:
            chosen.append((l, m))
            budget -= c
        if rng.random() < 0.2:
            break
    return Selection(frozenset(chosen))


def verify_equivalence(inst: ProblemInstance, trials: int,
                       seed: int) -> EquivalenceReport:
    """Round-trip random selections and plans through both mappings.

    Checks that each direction preserves the objective exactly and never
    increases cost/latency; any violation is reported, never raised.
    """
    rng = np.random.default_rng(seed)
    violations: list[str] = []
    sel_trips = plan_trips = 0
    for t in range(trials):
        sel = _random_feasible_selection(inst, rng)
        sel_util = utility(inst, sel)
        sel_cost = selection_cost(inst, sel)
        plan = plan_from_selection(inst, sel)
        ev = evaluate_plan(inst, plan)
        sel_trips += 1
        if ev.utility != sel_util:
            violations.append(
                f"trial {t}: selection->plan objective {ev.utility!r} != {sel_util!r}")
        if ev.latency_s > sel_cost + 1e-15:
            violations.append(
                f"trial {t}: selection->plan latency {ev.latency_s} > cost {sel_cost}")
        back = selection_from_plan(inst, plan)
        back_util = utility(inst, back)
        back_cost = selection_cost(inst, back)
        plan_trips += 1
        if back_util != ev.utility:
            violations.append(
                f"trial {t}: plan->selection objective {back_util!r} != {ev.utility!r}")
        if back_cost > ev.latency_s + 1e-15:
            violations.append(
                f"trial {t}: plan->selection cost {back_cost} > latency {ev.latency_s}")
    return EquivalenceReport(
        trials=trials,
        selection_round_trips=sel_trips,
        plan_round_trips=plan_trips,
        violations=tuple(violations),
    )
