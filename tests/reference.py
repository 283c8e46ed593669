"""Reference model of the grid-rate problem, which only the tests use.

Direct, unoptimized definitions that the package's fast paths are checked
against: per-user coverage and marginal gains, duplicate-rate removal,
unpruned enumerations of the optimum and random round trips through both
plan mappings. Decodability is derived here from snr_db and the MCS
thresholds, never from ProblemInstance.top_rate or rate_class_table, so
the checks compare the package with an independent model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from birdcast import (
    EnumerationCapExceeded,
    OracleResult,
    ProblemInstance,
    Selection,
    evaluate_plan,
    plan_from_selection,
    selection_cost,
    selection_from_plan,
    utility,
)
from birdcast.instance import Item, coverage_utility

# the largest assignment space (M+1)^L that brute_force_assignments sweeps,
# and the most items L*M that unrestricted_opt enumerates subsets of
_BRUTE_FORCE_CAP = 2 ** 12
_UNRESTRICTED_CAP_ITEMS = 16


def decodable(inst: ProblemInstance) -> np.ndarray:
    """N x M matrix: user n decodes rate m when its SNR meets m's
    threshold."""
    snr = np.asarray(inst.snr_db, dtype=np.float64)
    return snr[:, None] >= np.asarray(inst.mcs.thresholds_db)[None, :]


def _check_item(inst: ProblemInstance, item: Item) -> None:
    Selection.from_pairs([item]).validate(inst)  # raises when out of range


class CoverageState:
    """Per-user received-grid bookkeeping: the N x L reference model.

    covered[n, l] says user n has received grid l at a decodable rate. The
    solvers track only the slowest selected rate per grid (see
    ProblemInstance.rate_class_table); this state and marginal_gain are the
    direct definition the tests check them against.
    """

    __slots__ = ("inst", "decodable", "covered")

    def __init__(self, inst: ProblemInstance) -> None:
        self.inst = inst
        self.decodable = decodable(inst)
        self.covered = np.zeros((inst.n_users, inst.n_grids), dtype=bool)

    def apply(self, item: Item) -> None:
        """Fold one item into the coverage; re-applying is a no-op."""
        l, m = item
        _check_item(self.inst, item)
        self.covered[:, l] |= self.decodable[:, m]

    def copy(self) -> "CoverageState":
        dup = CoverageState(self.inst)
        dup.covered[:] = self.covered
        return dup

    def utility(self) -> float:
        return coverage_utility(self.inst, self.covered)


def marginal_gain(inst: ProblemInstance, state: CoverageState, item: Item) -> float:
    """utility(S + item) - utility(S) against the state's coverage."""
    l, m = item
    _check_item(inst, item)
    newly = state.decodable[:, m] & ~state.covered[:, l]
    return float(np.dot(inst.moi[:, l], newly))


def remove_redundant(inst: ProblemInstance, sel: Selection) -> tuple[Selection, float]:
    """Keep only the slowest-rate item per grid; report the reclaimed time.

    Utility is unchanged: nested decodability makes every faster duplicate
    reach a subset of the users the slowest one reaches.
    """
    sel.validate(inst)
    rate: dict[int, int] = {}
    for l, m in sel.items:
        rate[l] = min(rate.get(l, m), m)
    kept = frozenset((l, m) for l, m in sel.items if rate[l] == m)
    reclaimed = float(sum(inst.item_cost_s[m] for l, m in sel.sorted_items()
                          if rate[l] != m))
    return Selection(kept), reclaimed


def _single_item_values(inst: ProblemInstance) -> np.ndarray:
    """L x M utilities of sending one item alone."""
    return inst.moi.T @ decodable(inst)


def brute_force_assignments(inst: ProblemInstance) -> OracleResult:
    """Unpruned sweep of every one-rate-per-grid assignment (tiny instances)."""
    if (inst.n_rates + 1) ** inst.n_grids > _BRUTE_FORCE_CAP:
        raise EnumerationCapExceeded(
            f"assignment space (M+1)^L with M={inst.n_rates}, "
            f"L={inst.n_grids} exceeds the cap {_BRUTE_FORCE_CAP}")
    contrib, costs = _single_item_values(inst), inst.item_cost_s
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
    contrib, costs = _single_item_values(inst), inst.item_cost_s
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
