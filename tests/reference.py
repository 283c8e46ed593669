"""Reference model of the grid-rate problem, which only the tests use.

Direct, unoptimized definitions that the package's fast paths are checked
against: per-user coverage and marginal gains, duplicate-rate removal,
unpruned enumerations of the optimum, the DP baselines' run valuations
and per-count boundary recurrence, random round trips through both plan
mappings, an exact occlusion test for one segment, the local correlation
score one window offset at a time, a plan's evaluation one group at a
time, and k-means++ seeding drawn by Generator.choice. Decodability is
derived here from snr_db and the MCS thresholds, never from
ProblemInstance.top_rate or rate_class_table, so the checks compare the
package with an independent model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from birdcast import (
    EnumerationCapExceeded,
    GridMap,
    MulticastPlan,
    OracleResult,
    PlanEvaluation,
    ProblemInstance,
    Selection,
    evaluate_plan,
    plan_from_selection,
    selection_cost,
    selection_from_plan,
    utility,
)
from birdcast.baselines import _LLOYD_MAX_ITER, _LLOYD_TOL
from birdcast.instance import Item, coverage_utility, is_budget_feasible

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


def dp_user_order(inst: ProblemInstance) -> np.ndarray:
    """The users that decode some rate, by top rate descending, then by
    index: the order whose contiguous runs the DP baselines value."""
    dec = decodable(inst)
    top = dec.sum(axis=1) - 1
    return np.asarray(sorted(np.flatnonzero(top >= 0).tolist(),
                             key=lambda n: (-top[n], n)), dtype=np.intp)


def run_tables(inst: ProblemInstance, ordered: np.ndarray,
               budgets: list[float], floor: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """values[k, i, j] and fair[k, i, j] of the runs ordered[i..j], each
    run valued on its own over all L grids.

    The run's grid weights are differences of per-user prefix sums, as
    the DP sums them. Its rate is its slowest member's top rate, n_top
    the grids budgets[k] pays for at that rate, but no more than have
    positive weight, and its value the sequential sum of the n_top
    largest weights (stable order, so ties go to the lower grid). fair
    repeats the value, but -inf when those grids serve some member less
    than `floor` of the member's total over all L grids; j < i is -inf
    in both.
    """
    n = ordered.size
    top = decodable(inst).sum(axis=1) - 1
    weights = inst.moi[ordered]
    prefix = np.zeros((n + 1, inst.n_grids))
    np.cumsum(weights, axis=0, out=prefix[1:])
    values = np.full((len(budgets), n, n), -np.inf)
    fair = values.copy()
    for i in range(n):
        for j in range(i, n):
            w = prefix[j + 1] - prefix[i]
            order = np.argsort(-w, kind="stable")
            cost = float(inst.item_cost_s[min(top[ordered[i:j + 1]])])
            members = weights[i:j + 1]
            totals = members.sum(axis=1)
            for k, budget in enumerate(budgets):
                fit = int(budget // cost) if cost > 0 else inst.n_grids
                n_top = min(fit, inst.n_grids, int((w > 0.0).sum()))
                value = 0.0
                for grid in order[:n_top].tolist():
                    value += float(w[grid])
                values[k, i, j] = value
                served = members[:, order[:n_top]].sum(axis=1)
                fair_to_all = all(
                    total <= 0.0 or got / total >= floor
                    for got, total in zip(served.tolist(), totals.tolist()))
                fair[k, i, j] = value if fair_to_all else -np.inf
    return values, fair


def best_split(seg_value: np.ndarray,
               n_groups: int) -> list[tuple[int, int]] | None:
    """Bounds (i, j) of the best split of the sorted users into n_groups
    runs valued by seg_value[i, j - 1], or None when every split holds a
    -inf run.

    The boundary recurrence for one group count: table[g, j] is the best
    value of the first j users in g runs, and each cell keeps the first i
    that reaches its maximum.
    """
    n = seg_value.shape[0]
    table = np.full((n_groups + 1, n + 1), -np.inf)
    table[0, 0] = 0.0
    choice = np.zeros((n_groups + 1, n + 1), dtype=np.int64)
    for g in range(1, n_groups + 1):
        cand = table[g - 1, :n, None] + seg_value  # [i, j - 1]
        start = np.argmax(cand, axis=0)
        best = cand[start, np.arange(n)]
        reached = best > -np.inf
        table[g, 1:][reached] = best[reached]
        choice[g, 1:][reached] = start[reached]
    if not np.isfinite(table[n_groups, n]):
        return None
    bounds = []
    j = n
    for g in range(n_groups, 0, -1):
        i = int(choice[g, j])
        bounds.append((i, j))
        j = i
    bounds.reverse()
    return bounds


def best_split_total(seg_value: np.ndarray, n_groups: int) -> float:
    """The largest total, summed left to right, of any split of the users
    into n_groups contiguous runs, by enumerating every split."""
    n = seg_value.shape[0]
    best = -np.inf
    for cuts in itertools.combinations(range(1, n), n_groups - 1):
        total = 0.0
        for i, j in zip((0, *cuts), (*cuts, n)):
            total += float(seg_value[i, j - 1])
        best = max(best, total)
    return best


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


def segment_blocked(start, cell, rect) -> bool:
    """Does the closed segment from start to cell meet the closed
    rectangle rect = (xmin, xmax, ymin, ymax)?

    Scalar Liang-Barsky in exact rationals, with the cases that
    scenario._segments_blocked leaves to IEEE infinities and NaN written
    out: a segment of length zero is a point, inside the rectangle or not,
    and one parallel to an axis meets the rectangle only if it runs within
    that axis's slab, edges included.
    """
    (sx, sy), (cx, cy) = ([Fraction(v) for v in pt] for pt in (start, cell))
    xmin, xmax, ymin, ymax = (Fraction(v) for v in rect)
    if (sx, sy) == (cx, cy):
        return xmin <= sx <= xmax and ymin <= sy <= ymax
    t0, t1 = Fraction(0), Fraction(1)
    for s, c, lo, hi in ((sx, cx, xmin, xmax), (sy, cy, ymin, ymax)):
        p = c - s
        if p == 0:
            if not lo <= s <= hi:
                return False
            continue
        t_a, t_b = (lo - s) / p, (hi - s) / p
        t0 = max(t0, min(t_a, t_b))
        t1 = min(t1, max(t_a, t_b))
    return t0 <= t1


def local_correlation(compressed: GridMap, window: int) -> np.ndarray:
    """moi.local_correlation's score as a sum of one shifted map per window
    offset (a, b), in row-major order: the sum the blocked form must equal
    bit for bit."""
    f = compressed.values
    h, w = f.shape
    padded = np.pad(f, ((0, window - 1), (0, window - 1)), mode="edge")
    acc = np.zeros((h, w), dtype=np.float64)
    for a in range(window):
        for b in range(window):
            diff = padded[a:a + h, b:b + w] - f
            acc += 0.5 * (1.0 + np.tanh(0.5 * diff))
    return acc / (window * window)


def evaluate_plan_by_group(inst: ProblemInstance,
                           plan: MulticastPlan) -> PlanEvaluation:
    """evaluate_plan one group at a time, for a plan that passes its
    checks: a group with grids to send at a rate of 0 or below covers
    nothing and makes the plan inconsistent; so does a non-empty group sent
    at another rate than its slowest member's maximum."""
    members = np.zeros((plan.n_groups, inst.n_users))
    latency = 0.0
    rate_consistent = True
    # each user's fastest decodable rate, 0 when it decodes none
    rates = np.array([0.0, *inst.mcs.rates])
    user_rate = inst.bandwidth_hz * rates[decodable(inst).sum(axis=1)]
    bits = 8.0 * inst.grid_bytes
    for k, n_sel in enumerate(plan.masks.sum(axis=1).tolist()):
        group = list(plan.groups[k])
        if n_sel:
            if plan.rates_bps[k] <= 0:
                rate_consistent = False
                continue
            latency += bits * n_sel / plan.rates_bps[k]
        if group:
            if plan.rates_bps[k] != float(user_rate[group].min()):
                rate_consistent = False
            members[k, group] = 1.0
    covered = members.T @ plan.masks > 0.0
    return PlanEvaluation(
        utility=coverage_utility(inst, covered), latency_s=latency,
        feasible=rate_consistent and is_budget_feasible(inst, latency))


def kmeanspp_1d_by_choice(values: np.ndarray, k: int,
                          rng: np.random.Generator) -> np.ndarray:
    """baselines._kmeanspp_1d with each centre drawn by
    rng.choice(n, p=d2 / total), the labels and random stream its own draw
    must reproduce bit for bit."""
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
