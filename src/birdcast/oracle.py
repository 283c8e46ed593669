"""Exact solver for small instances plus representation-equivalence checks.

Because a user's coverage of a grid depends only on the slowest rate
selected for that grid, and a faster duplicate rate on the same grid can
only waste budget, an optimal schedule assigns at most one rate per grid.
The oracle therefore searches assignments in {skip, rate 1..M} per grid
with depth-first search and two sound prunings; tiny instances can also be
checked against fully unpruned enumerations, including one that allows
several rates per grid.
"""

from __future__ import annotations

import itertools
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

DEFAULT_ENUMERATION_CAP = 2 ** 22


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


def exact_solve(inst: ProblemInstance,
                cap: int = DEFAULT_ENUMERATION_CAP) -> OracleResult:
    """True optimum over one-rate-per-grid assignments.

    DFS over grids in descending order of best possible payoff. Branches
    whose running cost exceeds the budget are cut (costs only grow), as are
    branches whose optimistic completion — current value plus every
    remaining grid's best payoff — cannot beat the incumbent. Among equal
    optima the selection kept is deterministic (first found, with a
    lexicographic check at leaves).
    """
    _check_cap(inst, cap)
    contrib, costs = inst.rate_class_table()[:, :inst.n_rates], inst.item_cost_s
    n_grids, n_rates = inst.n_grids, inst.n_rates
    best_per_grid = contrib.max(axis=1)
    order = sorted(range(n_grids), key=lambda l: (-best_per_grid[l], l))
    # suffix[i] = most the grids from position i onward could still add
    suffix = np.zeros(n_grids + 1)
    for i in range(n_grids - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max(0.0, float(best_per_grid[order[i]]))

    best_value = 0.0
    best_items: list[tuple[int, int]] = []
    nodes = 0
    stack: list[tuple[int, int]] = []

    def dfs(pos: int, value: float, cost: float) -> None:
        nonlocal best_value, best_items, nodes
        nodes += 1
        if pos == n_grids:
            if value > best_value:
                best_value = value
                best_items = sorted(stack)
            elif value == best_value:
                items = sorted(stack)
                if items < best_items:
                    best_items = items
            return
        if value + suffix[pos] <= best_value:
            return
        l = order[pos]
        dfs(pos + 1, value, cost)  # skip this grid
        for m in range(n_rates):
            new_cost = cost + costs[m]
            if new_cost > inst.budget_s:
                continue
            stack.append((l, m))
            dfs(pos + 1, value + float(contrib[l, m]), new_cost)
            stack.pop()

    dfs(0, 0.0, 0.0)
    opt_sel = Selection(frozenset(best_items))
    # report through the canonical evaluator so equal coverage yields
    # bit-identical values across solvers and enumerators
    return OracleResult(
        opt_utility=utility(inst, opt_sel),
        opt_selection=opt_sel,
        nodes_explored=nodes,
    )


def brute_force_assignments(inst: ProblemInstance,
                            cap: int = 2 ** 12) -> OracleResult:
    """Unpruned sweep of every one-rate-per-grid assignment (tiny instances)."""
    _check_cap(inst, cap)
    contrib, costs = inst.rate_class_table()[:, :inst.n_rates], inst.item_cost_s
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


def unrestricted_opt(inst: ProblemInstance, cap_items: int = 16) -> float:
    """Optimum allowing several rates per grid (double-check mode).

    Enumerates every per-grid subset of rates; a grid's coverage is decided
    by its slowest selected rate while its cost is the subset's total, so
    the sweep genuinely covers all item subsets.
    """
    if inst.n_grids * inst.n_rates > cap_items:
        raise EnumerationCapExceeded(
            f"L*M = {inst.n_grids * inst.n_rates} exceeds the cap {cap_items}")
    contrib, costs = inst.rate_class_table()[:, :inst.n_rates], inst.item_cost_s
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
