"""Grid-rate scheduling instance, utility evaluation, and plan mappings.

The transformed problem selects (grid, rate) items under a latency budget.
A user receives a grid when some selected item for that grid uses a rate
the user can decode; utility is the interest-weighted count of received
(user, grid) pairs. Selections map losslessly to multicast plans (one
group per rate option, populated with every user that decodes it) and
back; both directions preserve the objective and never increase cost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .channel import McsTable, _all_numbers, _array, _item_costs, _numbers, _object

# Relative slack for budget-feasibility checks only; utilities and plan/cost
# equivalences are compared exactly.
FEASIBILITY_RTOL = 1e-9

# Version of the instance document ProblemInstance.to_json writes, and the
# only one ProblemInstance.from_json reads.
INSTANCE_FORMAT = 2

# The most cells, n_grids * max(n_users, n_rates + 1), of an instance
# ProblemInstance.from_json builds: the N x L interest matrix and the
# L x (M + 1) rate-class table are its largest arrays, 1 GiB each at this
# cap, 131 times the cells of N=256, L=4000 (1,024,000).
MAX_INSTANCE_CELLS = 2 ** 27

Item = tuple[int, int]


@dataclass(frozen=True)
class ProblemInstance:
    """Self-contained input of the grid-rate selection problem.

    moi is the N x L non-negative interest matrix (one vectorized map per
    user). A user decodes exactly the rates whose SNR thresholds its
    snr_db meets, a prefix of the rate indices, so top_rate, the last of
    them, is the whole of its decodability.

    Construction is where validity is decided, so that no solver checks
    it again: item costs must pass channel._item_costs (finite, positive,
    strictly decreasing), and the weights' sum over the least cost or
    cost step must be a float, which bounds every utility, gain per
    second and hull slope a solver computes.
    """

    moi: np.ndarray
    snr_db: tuple[float, ...]
    mcs: McsTable
    grid_bytes: float
    bandwidth_hz: float
    budget_s: float

    # derived and read-only, filled in __post_init__
    item_cost_s: np.ndarray = field(init=False, repr=False, compare=False)
    # highest decodable rate index per user, -1 when out of range
    top_rate: np.ndarray = field(init=False, repr=False, compare=False)
    # L x (M+1) table S: S[l, m] is grid l's interest over the users that
    # decode rate m, and S[:, M] = 0. Decodability is nested, so a grid's
    # coverage depends only on the slowest rate selected for it: S[:, :M]
    # holds the single-item utilities F({(l, m)}), and the gain of (l, m)
    # once rate r is the slowest selected for grid l is S[l, m] - S[l, r].
    # Built from per-top-rate class sums by a reverse cumulative sum, which
    # adds non-negative terms only, so every row is non-increasing in float
    # arithmetic too.
    rate_class_table: np.ndarray = field(init=False, repr=False, compare=False)
    # the active grids, in ascending order: those some user that decodes a
    # rate wants, i.e. rate_class_table[l, 0] > 0. Every other grid has an
    # all-zero row, so no schedule gains from sending it, and a solver may
    # scan active_table, the A x (M+1) rate_class_table[active], and map
    # its picks back through active.
    active: np.ndarray = field(init=False, repr=False, compare=False)
    active_table: np.ndarray = field(init=False, repr=False, compare=False)
    # the canonical multicast groups: groups[k] holds the users that decode
    # rate k, ascending, as Python ints, and group_rate[k] is its slowest
    # member's top rate (k when the group is empty), the rate index at
    # which every selection-based plan sends it
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                compare=False)
    group_rate: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        moi = np.ascontiguousarray(np.asarray(self.moi, dtype=np.float64))
        if moi.ndim != 2:
            raise ValueError("moi must be an N x L matrix")
        if moi.shape[1] == 0:
            raise ValueError("an instance needs at least one grid")
        if not np.all(np.isfinite(moi)) or np.any(moi < 0.0):
            raise ValueError("moi weights must be finite and non-negative")
        snr = tuple(float(s) for s in self.snr_db)
        if len(snr) != moi.shape[0]:
            raise ValueError("snr_db length must match the number of users")
        if not all(math.isfinite(s) for s in snr):
            raise ValueError("snr_db values must be finite")
        if not 0.0 < self.budget_s < math.inf:
            raise ValueError("budget_s must be positive and finite")
        costs = _item_costs(self.mcs, self.bandwidth_hz, self.grid_bytes)
        m = len(costs)
        # thresholds ascend, and an SNR equal to one decodes that rate
        top = np.searchsorted(self.mcs.thresholds_db, np.asarray(snr),
                              side="right") - 1
        one_hot = (top[:, None] == np.arange(m)[None, :]).astype(np.float64)
        table = np.zeros((moi.shape[1], m + 1), dtype=np.float64)
        with np.errstate(over="ignore"):  # an inf fails the check below
            table[:, :m] = np.cumsum((moi.T @ one_hot)[:, ::-1],
                                       axis=1)[:, ::-1]
            mass = float(table[:, 0].sum())
        # the interest scale (see the class docstring)
        step = min(a - b for a, b in zip(costs, [*costs[1:], 0.0]))
        if not math.isfinite(mass / step):
            raise ValueError(f"moi weight sum {mass!r} too large for the item costs")
        active = np.flatnonzero(table[:, 0] > 0.0)
        # one nonzero over the rate-major decodability lists each group's
        # users in order
        ks, users = np.nonzero(np.arange(m)[:, None] <= top[None, :])
        bounds = np.searchsorted(ks, np.arange(m + 1)).tolist()
        users = users.tolist()
        groups = tuple(tuple(users[a:b]) for a, b in zip(bounds, bounds[1:]))
        # the groups are nested, so group k's slowest member tops out at k
        # unless group k + 1 holds the same users
        group_rate = list(range(m))
        for k in reversed(range(m - 1)):
            if groups[k] and len(groups[k]) == len(groups[k + 1]):
                group_rate[k] = group_rate[k + 1]
        arrays = {"moi": moi, "item_cost_s": np.array(costs), "top_rate": top,
                  "rate_class_table": table, "active": active,
                  "active_table": table[active]}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "snr_db", snr)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "group_rate", tuple(group_rate))
        for name in ("grid_bytes", "bandwidth_hz", "budget_s"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def n_users(self) -> int:
        return self.moi.shape[0]

    @property
    def n_grids(self) -> int:
        return self.moi.shape[1]

    @property
    def n_rates(self) -> int:
        return self.mcs.n_rates

    @property
    def n_items(self) -> int:
        return self.n_grids * self.n_rates

    def user_max_rate_bps(self) -> np.ndarray:
        """Maximum achievable data rate per user (0 when out of range)."""
        # a top rate of -1 reads the trailing 0
        rates = np.array([*self.mcs.rates, 0.0])
        return self.bandwidth_hz * rates[self.top_rate]

    def to_json(self) -> dict:
        """Format-2 document: moi as sparse (user, grid, value) triplets in
        row-major order. Entries are chosen by bit pattern, so a -0.0
        weight survives the round trip."""
        user, grid = np.nonzero(self.moi.view(np.uint64))
        return {
            "format": INSTANCE_FORMAT,
            "n_users": self.n_users,
            "n_grids": self.n_grids,
            "mcs_table": self.mcs.to_json(),
            "snr_db": list(self.snr_db),
            "moi": {"user": user.tolist(), "grid": grid.tolist(),
                    "value": self.moi[user, grid].tolist()},
            "grid_bytes": self.grid_bytes,
            "bandwidth_hz": self.bandwidth_hz,
            "budget_s": self.budget_s,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ProblemInstance":
        """Read a format-2 document, the one to_json writes. n_users must
        be the length of snr_db, and the instance no larger than
        MAX_INSTANCE_CELLS, which are checked before moi is built."""
        d = _object(d, "instance document")
        fmt = d.get("format")
        if fmt != INSTANCE_FORMAT:
            raise ValueError(
                f"format: instance format {INSTANCE_FORMAT} only, not {fmt!r}; "
                "the older dense layout, which has no format key, is no "
                "longer read")
        for key in ("n_users", "n_grids"):
            if not _all_numbers([d[key]], integers=True) or d[key] < 0:
                raise ValueError(f"{key} must be a non-negative integer")
        snr = tuple(_numbers(d["snr_db"], "snr_db"))
        if len(snr) != d["n_users"]:
            raise ValueError("snr_db length must match n_users")
        mcs = McsTable.from_json(d["mcs_table"])
        cells = d["n_grids"] * max(d["n_users"], mcs.n_rates + 1)
        if cells > MAX_INSTANCE_CELLS:
            raise ValueError(f"n_grids: {cells} cells, n_grids times max(n_users, "
                             f"n_rates + 1); the most is {MAX_INSTANCE_CELLS}")
        return cls(_moi_from_triplets(d["moi"], d["n_users"], d["n_grids"]),
                   snr, mcs, *(_numbers([d[key]], key)[0] for key in
                               ("grid_bytes", "bandwidth_hz", "budget_s")))


def _moi_from_triplets(triplets: dict, n_users: int,
                       n_grids: int) -> np.ndarray:
    """Dense N x L matrix from {"user": [...], "grid": [...], "value": [...]};
    raises ValueError on an index outside [0, N) x [0, L), a repeated
    (user, grid) pair or lists of unequal lengths."""
    triplets = _object(triplets, "moi")
    moi = np.zeros((n_users, n_grids), dtype=np.float64)
    user = _index_array(triplets["user"], n_users, "user")
    grid = _index_array(triplets["grid"], n_grids, "grid")
    value = np.asarray(_numbers(triplets["value"], "moi value"),
                       dtype=np.float64)
    if value.ndim != 1 or not user.size == grid.size == value.size:
        raise ValueError("moi triplets must be three lists of equal length")
    flat = user * n_grids + grid  # below moi.size, so it cannot overflow
    flat.sort()
    if np.any(flat[1:] == flat[:-1]):
        raise ValueError("moi triplets repeat a (user, grid) pair")
    moi[user, grid] = value
    return moi


def _index_array(indices: list, size: int, name: str) -> np.ndarray:
    """Integer index list checked against [0, size), before numpy could
    wrap a negative index."""
    arr = np.asarray(_numbers(indices, f"moi {name} indices", integers=True))
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValueError(f"moi {name} index out of range [0, {size})")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class Selection:
    """A set of (grid, rate) items — the sparse form of the decision matrix."""

    items: frozenset[Item]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "Selection":
        items = frozenset((int(l), int(m)) for l, m in pairs)
        return cls(items)

    def sorted_items(self) -> list[Item]:
        return sorted(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: Item) -> bool:
        return item in self.items

    def validate(self, inst: ProblemInstance) -> None:
        n_grids, n_rates = inst.n_grids, inst.n_rates
        for l, m in self.items:
            if not (0 <= l < n_grids and 0 <= m < n_rates):
                raise ValueError(f"item {(l, m)} out of range "
                                 f"(L={n_grids}, M={n_rates})")

    def to_json(self) -> list[list[int]]:
        return [[l, m] for l, m in self.sorted_items()]

    @classmethod
    def from_json(cls, data: list[list[int]]) -> "Selection":
        return cls.from_pairs(_numbers(pair, "selection indices", integers=True)
                              for pair in _array(data, "selection"))


@dataclass(frozen=True)
class MulticastPlan:
    """Groups, per-group grid masks, and per-group rates (bits/s).

    In the canonical form produced by plan_from_selection there is one group
    per rate option, holding every user that decodes it; empty groups are
    retained so the mapping is testable verbatim. Every rate must be
    finite; a group sent at a rate at or below 0 covers nothing (see
    evaluate_plan).
    """

    groups: tuple[tuple[int, ...], ...]
    masks: np.ndarray
    rates_bps: tuple[float, ...]

    def __post_init__(self) -> None:
        masks = np.ascontiguousarray(np.asarray(self.masks, dtype=bool))
        if masks.ndim != 2:
            raise ValueError("masks must be a K x L boolean matrix")
        groups = tuple(tuple(sorted(map(int, g))) for g in self.groups)
        rates = tuple(map(float, self.rates_bps))
        if not (len(groups) == masks.shape[0] == len(rates)):
            raise ValueError("groups, masks, and rates_bps must agree on K")
        if not all(math.isfinite(r) for r in rates):
            raise ValueError("plan rate_bps must be finite")
        masks.setflags(write=False)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "rates_bps", rates)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_grids(self) -> int:
        return self.masks.shape[1]

    def to_json(self) -> dict:
        """The mask width is written as n_grids, which a plan of no groups
        has no mask row to carry."""
        return {
            "groups": [list(g) for g in self.groups],
            "masks": self.masks.astype(np.uint8).tolist(),
            "n_grids": self.n_grids,
            "rate_bps": list(self.rates_bps),
        }

    @classmethod
    def from_json(cls, d: dict) -> "MulticastPlan":
        """Read the document to_json writes. n_grids is at most
        MAX_INSTANCE_CELLS, the most cells an instance may have; whether it
        matches an instance's grids is checked where the instance is known,
        by evaluate_plan and selection_from_plan."""
        d = _object(d, "plan document")
        n_grids = d.get("n_grids")
        if (not _all_numbers([n_grids], integers=True)
                or not 0 <= n_grids <= MAX_INSTANCE_CELLS):
            raise ValueError("plan n_grids must be an integer from 0 to "
                             f"MAX_INSTANCE_CELLS = {MAX_INSTANCE_CELLS}")
        rows = [_numbers(row, "plan masks", integers=True)
                for row in _array(d["masks"], "plan masks")]
        if any(len(row) != n_grids for row in rows):
            raise ValueError(f"plan masks: every row must hold n_grids = "
                             f"{n_grids} entries")
        masks = np.asarray(rows).reshape(len(rows), n_grids)
        if masks.size and (masks.min() < 0 or masks.max() > 1):
            raise ValueError("plan masks must hold only 0 and 1")
        rates = _numbers(d["rate_bps"], "plan rate_bps")
        return cls(
            groups=tuple(tuple(_numbers(g, "plan group members", integers=True))
                         for g in _array(d["groups"], "plan groups")),
            masks=masks,
            rates_bps=tuple(rates),
        )


def coverage_utility(inst: ProblemInstance, covered: np.ndarray) -> float:
    """Interest-weighted coverage total.

    Every utility number in the package funnels through this expression so
    equal coverage matrices produce bit-identical values.
    """
    return float((inst.moi * covered).sum())


def _slowest_rates(inst: ProblemInstance, sel: Selection) -> np.ndarray:
    """Slowest selected rate index of every grid (M for an unsent grid).

    Decodability is nested, so this vector alone decides the coverage.
    """
    rate = np.full(inst.n_grids, inst.n_rates)
    items = np.array(list(sel.items), dtype=np.int64).reshape(-1, 2)
    np.minimum.at(rate, items[:, 0], items[:, 1])
    return rate


def _rates_utility(inst: ProblemInstance,
                   rate: np.ndarray | list[int]) -> float:
    """Objective of sending each grid l at rate index rate[l] (M: unsent)."""
    # a C-ordered N x L matrix, so the sum runs in the same order as over
    # any other coverage matrix
    covered = inst.top_rate[:, None] >= np.asarray(rate)[None, :]
    return coverage_utility(inst, covered)


def utility(inst: ProblemInstance, sel: Selection) -> float:
    """Objective value of a selection (0 for the empty selection)."""
    sel.validate(inst)
    return _rates_utility(inst, _slowest_rates(inst, sel))


def selection_cost(inst: ProblemInstance, sel: Selection) -> float:
    """Total transmission time (seconds) of a selection."""
    sel.validate(inst)
    return float(sum(inst.item_cost_s[m] for _, m in sel.sorted_items()))


def is_budget_feasible(inst: ProblemInstance, cost_s: float) -> bool:
    return cost_s <= inst.budget_s * (1.0 + FEASIBILITY_RTOL)


def plan_from_selection(inst: ProblemInstance, sel: Selection) -> MulticastPlan:
    """Map a feasible selection to the canonical one-group-per-rate plan.

    Group k holds every user that decodes rate k and transmits the grids
    selected at rate k; its rate is the slowest member's maximum rate
    (the nominal rate of option k when some member bottoms out exactly
    there, which solver outputs always do). Empty groups keep the nominal
    rate of their option.
    """
    cost = selection_cost(inst, sel)  # validates the items first
    masks = np.zeros((inst.n_rates, inst.n_grids), dtype=bool)
    for l, m in sel.items:
        masks[m, l] = True
    return _canonical_plan(inst, masks, cost)


def _canonical_plan(inst: ProblemInstance, masks: np.ndarray,
                    cost_s: float) -> MulticastPlan:
    """One group per rate option k, holding every user that decodes k and
    sending the grids of masks[k]; raises ValueError when cost_s, the
    schedule's latency, exceeds the budget."""
    if not is_budget_feasible(inst, cost_s):
        raise ValueError(f"selection cost {cost_s:.6g}s exceeds budget "
                         f"{inst.budget_s:.6g}s")
    return _group_plan(inst, inst.groups, masks, inst.group_rate)


def _group_plan(inst: ProblemInstance, groups: Sequence[Iterable[int]],
                masks: np.ndarray, rate_idx: Sequence[int]) -> MulticastPlan:
    """Plan in which group k sends masks[k] at rate option rate_idx[k],
    which must be its slowest member's top rate when it has members. Its
    two callers: _canonical_plan, with the canonical groups at group_rate,
    and the group baselines' one exit, baselines._result.

    Rates rise with their index, and a positive bandwidth keeps that order
    in float arithmetic, so the rate sent is the least of the members'
    maximum rates (ProblemInstance.user_max_rate_bps), bit for bit."""
    return MulticastPlan(groups=tuple(groups), masks=masks, rates_bps=tuple(
        inst.bandwidth_hz * inst.mcs.rates[k] for k in rate_idx))


def _check_plan(inst: ProblemInstance, plan: MulticastPlan) -> None:
    """Raise ValueError unless the plan's masks span the instance's grids
    and every group member is one of its users. Groups are sorted, so
    their ends bound them."""
    if plan.n_grids != inst.n_grids:
        raise ValueError("plan mask width does not match the instance")
    for k, group in enumerate(plan.groups):
        if group and (group[0] < 0 or group[-1] >= inst.n_users):
            raise ValueError(f"group {k} has a member outside "
                             f"[0, {inst.n_users})")


def selection_from_plan(inst: ProblemInstance, plan: MulticastPlan) -> Selection:
    """Collapse a plan into unique (grid, rate) items.

    Each group's rate must match a rate option exactly and be decodable by
    every member; duplicate transmissions of the same grid-rate pair across
    groups collapse into one item, so the cost never exceeds the plan's
    latency.
    """
    _check_plan(inst, plan)
    option_bps = [inst.bandwidth_hz * r for r in inst.mcs.rates]
    items: set[Item] = set()
    for k in range(plan.n_groups):
        if not plan.masks[k].any():
            continue
        try:
            m = option_bps.index(plan.rates_bps[k])
        except ValueError:
            raise ValueError(f"group {k} rate {plan.rates_bps[k]} is not a "
                             "rate option of the instance") from None
        for n in plan.groups[k]:
            if inst.top_rate[n] < m:
                raise ValueError(f"user {n} cannot decode group {k}'s rate")
        for l in np.flatnonzero(plan.masks[k]):
            items.add((int(l), m))
    return Selection(frozenset(items))


class PlanEvaluation(NamedTuple):
    utility: float
    latency_s: float
    feasible: bool


def evaluate_plan(inst: ProblemInstance, plan: MulticastPlan) -> PlanEvaluation:
    """Objective, latency, and feasibility of a plan.

    A (user, grid) pair counts once no matter how many groups deliver it.
    Feasible means the latency fits the budget and every non-empty group's
    rate equals its slowest member's maximum rate.
    """
    _check_plan(inst, plan)
    # every membership, group by group: its group and its user
    sizes = np.array([len(group) for group in plan.groups], dtype=np.intp)
    group_of = np.repeat(np.arange(plan.n_groups), sizes)
    users = np.fromiter(itertools.chain.from_iterable(plan.groups),
                        dtype=np.intp, count=group_of.size)
    n_sel = plan.masks.sum(axis=1)
    rates = np.array(plan.rates_bps)
    # a group with grids to send at a rate of 0 or below covers nothing
    dead = (n_sel > 0) & (rates <= 0.0)
    members = np.zeros((plan.n_groups, inst.n_users))
    members[group_of, users] = 1.0
    members[dead] = 0.0
    # every non-empty group must be sent at its slowest member's maximum
    # rate: the least over its run of users, which starts where the runs
    # before it end
    nonempty = sizes > 0
    slowest = np.minimum.reduceat(inst.user_max_rate_bps()[users],
                                  (np.cumsum(sizes) - sizes)[nonempty])
    rate_consistent = not dead.any() and bool(
        (rates[nonempty] == slowest).all())
    latency = 0.0
    bits = 8.0 * inst.grid_bytes
    for n, rate in zip(n_sel.tolist(), plan.rates_bps):
        if n and rate > 0:
            latency += bits * n / rate
    # counts of delivering groups, exact in float64; a float product runs
    # in BLAS, where numpy's bool matmul has no fast kernel
    covered = members.T @ plan.masks > 0.0
    value = coverage_utility(inst, covered)
    feasible = rate_consistent and is_budget_feasible(inst, latency)
    return PlanEvaluation(utility=value, latency_s=latency, feasible=feasible)
