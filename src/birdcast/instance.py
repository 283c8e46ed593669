"""Grid-rate scheduling instance, utility evaluation, and plan mappings.

The transformed problem selects (grid, rate) items under a latency budget.
A user receives a grid when some selected item for that grid uses a rate
the user can decode; utility is the interest-weighted count of received
(user, grid) pairs. Selections map losslessly to multicast plans (one
group per rate option, populated with every user that decodes it) and
back; both directions preserve the objective and never increase cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .channel import McsTable, _all_numbers, _array, _numbers, _object, item_cost

# Relative slack for budget-feasibility checks only; utilities and plan/cost
# equivalences are compared exactly.
FEASIBILITY_RTOL = 1e-9

# Version of the instance document ProblemInstance.to_json writes. Documents
# without a "format" key are the older dense layout, which is still read.
INSTANCE_FORMAT = 2

Item = tuple[int, int]


@dataclass(frozen=True)
class ProblemInstance:
    """Self-contained input of the grid-rate selection problem.

    moi is the N x L non-negative interest matrix (one vectorized map per
    user). A user decodes exactly the rates whose SNR thresholds its
    snr_db meets, a prefix of the rate indices, so top_rate, the last of
    them, is the whole of its decodability.
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
        scalars = (self.grid_bytes, self.bandwidth_hz, self.budget_s)
        if not all(math.isfinite(v) for v in scalars):
            raise ValueError("grid_bytes, bandwidth_hz and budget_s must be finite")
        if self.grid_bytes <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("grid_bytes and bandwidth_hz must be positive")
        if self.budget_s <= 0:
            raise ValueError("budget_s must be positive")
        m = self.mcs.n_rates
        costs = np.array(
            [item_cost(j, self.mcs, self.bandwidth_hz, self.grid_bytes)
             for j in range(m)],
            dtype=np.float64,
        )
        # thresholds ascend, and an SNR equal to one decodes that rate
        top = np.searchsorted(self.mcs.thresholds_db, np.asarray(snr),
                              side="right") - 1
        one_hot = (top[:, None] == np.arange(m)[None, :]).astype(np.float64)
        table = np.zeros((moi.shape[1], m + 1), dtype=np.float64)
        table[:, :m] = np.cumsum((moi.T @ one_hot)[:, ::-1], axis=1)[:, ::-1]
        arrays = {"moi": moi, "item_cost_s": costs, "top_rate": top,
                  "rate_class_table": table}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "snr_db", snr)
        object.__setattr__(self, "grid_bytes", float(self.grid_bytes))
        object.__setattr__(self, "bandwidth_hz", float(self.bandwidth_hz))
        object.__setattr__(self, "budget_s", float(self.budget_s))

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
        rates = np.asarray(self.mcs.rates)
        out = np.zeros(self.n_users, dtype=np.float64)
        ok = self.top_rate >= 0
        out[ok] = self.bandwidth_hz * rates[self.top_rate[ok]]
        return out

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
        """Read a format-2 document, or a dense one (no "format" key) whose
        moi is a list of N rows."""
        _object(d, "instance document")
        for key in ("n_users", "n_grids"):
            if not _all_numbers([d[key]], integers=True) or d[key] < 0:
                raise ValueError(f"{key} must be a non-negative integer")
        fmt = d.get("format")
        if fmt is None:
            moi = np.asarray(d["moi"], dtype=np.float64)
            if moi.ndim == 2:  # any other shape fails in __post_init__
                _numbers([v for row in d["moi"] for v in row], "moi")
        elif fmt == INSTANCE_FORMAT:
            moi = _moi_from_triplets(d["moi"], d["n_users"], d["n_grids"])
        else:
            raise ValueError(f"unknown instance format {fmt!r}")
        inst = cls(moi, tuple(_numbers(d["snr_db"], "snr_db")),
                   McsTable.from_json(d["mcs_table"]),
                   *_numbers([d["grid_bytes"], d["bandwidth_hz"], d["budget_s"]],
                             "grid_bytes, bandwidth_hz and budget_s"))
        if inst.n_users != d["n_users"] or inst.n_grids != d["n_grids"]:
            raise ValueError("instance JSON dimensions are inconsistent")
        return inst


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
    retained so the mapping is testable verbatim.
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
        return {
            "groups": [list(g) for g in self.groups],
            "masks": self.masks.astype(np.uint8).tolist(),
            "rate_bps": list(self.rates_bps),
        }

    @classmethod
    def from_json(cls, d: dict) -> "MulticastPlan":
        masks = np.asarray([_numbers(row, "plan masks", integers=True)
                            for row in _array(d["masks"], "plan masks")])
        if masks.size and (masks.min() < 0 or masks.max() > 1):
            raise ValueError("plan masks must hold only 0 and 1")
        return cls(
            groups=tuple(tuple(_numbers(g, "plan group members", integers=True))
                         for g in _array(d["groups"], "plan groups")),
            masks=masks,
            rates_bps=tuple(_numbers(d["rate_bps"], "plan rate_bps")),
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
    # one nonzero over the rate-major decodability lists each group's users
    # in order; as Python ints they are cheap for MulticastPlan to sort
    decodes = np.arange(inst.n_rates)[:, None] <= inst.top_rate[None, :]
    ks, users = np.nonzero(decodes)
    bounds = np.searchsorted(ks, np.arange(inst.n_rates + 1)).tolist()
    users = users.tolist()
    groups = [users[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return _group_plan(inst, groups, masks, range(inst.n_rates))


def _group_plan(inst: ProblemInstance,
                groups: Sequence[np.ndarray | list[int]],
                masks: np.ndarray, rate_idx: Sequence[int]) -> MulticastPlan:
    """Plan in which group k sends masks[k] at its slowest member's maximum
    rate, or at the nominal rate of option rate_idx[k] when it is empty."""
    user_rate = inst.user_max_rate_bps().tolist()
    rates = [min(user_rate[n] for n in members) if len(members)
             else float(inst.bandwidth_hz * inst.mcs.rates[k])
             for members, k in zip(groups, rate_idx)]
    return MulticastPlan(groups=tuple(groups), masks=masks,
                         rates_bps=tuple(rates))


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
    # members[k] marks group k's users; a group with grids to send at a
    # rate of 0 or below stays unmarked and covers nothing
    members = np.zeros((plan.n_groups, inst.n_users))
    latency = 0.0
    rate_consistent = True
    user_rate = inst.user_max_rate_bps()
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
    # counts of delivering groups, exact in float64; a float product runs
    # in BLAS, where numpy's bool matmul has no fast kernel
    covered = members.T @ plan.masks > 0.0
    value = coverage_utility(inst, covered)
    feasible = rate_consistent and is_budget_feasible(inst, latency)
    return PlanEvaluation(utility=value, latency_s=latency, feasible=feasible)
