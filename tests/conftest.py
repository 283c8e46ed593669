"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from birdcast import McsTable, ProblemInstance


def random_mcs_table(rng: np.random.Generator, max_rates: int = 3) -> McsTable:
    m = int(rng.integers(1, max_rates + 1))
    rates = np.cumsum(rng.uniform(0.2, 2.0, size=m))
    thresholds = -5.0 + np.cumsum(rng.uniform(0.5, 8.0, size=m))
    return McsTable(tuple(rates), tuple(thresholds))


def users_instance(snr_db, table: McsTable) -> ProblemInstance:
    """One-grid, 100 MHz instance holding only the channels of users at snr_db."""
    snr = tuple(float(s) for s in snr_db)
    return ProblemInstance(moi=np.zeros((len(snr), 1)), snr_db=snr, mcs=table,
                           grid_bytes=1600.0, bandwidth_hz=100e6, budget_s=1.0)


def random_instance(rng: np.random.Generator, max_users: int = 6,
                    max_grids: int = 8, max_rates: int = 3,
                    density: float = 0.7,
                    budget_span: tuple[float, float] | None = None,
                    ) -> ProblemInstance:
    """Random instance with heterogeneous SNRs and sparse weights.

    budget_span scales the budget between multiples of the cheapest item
    cost; the default ranges from too-tight-for-anything to ample.
    """
    table = random_mcs_table(rng, max_rates)
    n_users = int(rng.integers(1, max_users + 1))
    n_grids = int(rng.integers(1, max_grids + 1))
    lo_t, hi_t = table.thresholds_db[0], table.thresholds_db[-1]
    snr = rng.uniform(lo_t - 5.0, hi_t + 5.0, size=n_users)
    moi = rng.uniform(0.0, 1.0, size=(n_users, n_grids))
    moi *= rng.random(size=moi.shape) < density
    grid_bytes = 1600.0
    bandwidth = 1e8
    min_cost = 8.0 * grid_bytes / (bandwidth * table.rates[-1])
    lo_b, hi_b = budget_span if budget_span else (0.5, 3.0 * n_grids)
    budget = float(min_cost * rng.uniform(lo_b, hi_b))
    return ProblemInstance(
        moi=moi,
        snr_db=tuple(snr),
        mcs=table,
        grid_bytes=grid_bytes,
        bandwidth_hz=bandwidth,
        budget_s=budget,
    )


def random_full_scale_instance(rng: np.random.Generator,
                                n_users: int, n_grids: int) -> ProblemInstance:
    """Random instance on the default 14-option table."""
    from birdcast import DEFAULT_MCS_TABLE

    table = DEFAULT_MCS_TABLE
    snr = rng.uniform(-6.0, 36.0, size=n_users)
    snr[0] = max(snr[0], 12.0)  # keep at least one user in range
    moi = rng.uniform(0.0, 1.0, size=(n_users, n_grids))
    moi *= rng.random(size=moi.shape) < 0.3
    moi[0, 0] = max(moi[0, 0], 0.5)
    grid_bytes = 1600.0
    bandwidth = 1e8
    costs = [8.0 * grid_bytes / (bandwidth * r) for r in table.rates]
    budget = float(rng.uniform(0.05, 0.6) * n_grids * costs[-1])
    return ProblemInstance(
        moi=moi,
        snr_db=tuple(snr),
        mcs=table,
        grid_bytes=grid_bytes,
        bandwidth_hz=bandwidth,
        budget_s=budget,
    )


def unwanted_grids_instance(rng: np.random.Generator) -> ProblemInstance:
    """Random instance with all-zero grid columns among the wanted ones,
    users who want nothing, users who decode no rate and, on every other
    draw, weights in quarters, so that weights and shares tie."""
    table = random_mcs_table(rng, max_rates=4)
    n_users = int(rng.integers(1, 13))
    n_grids = int(rng.integers(1, 41))
    lo, hi = table.thresholds_db[0], table.thresholds_db[-1]
    snr = rng.uniform(lo - 5.0, hi + 5.0, size=n_users)
    if rng.random() < 0.5:
        moi = rng.integers(0, 5, size=(n_users, n_grids)) / 4.0
    else:
        moi = rng.uniform(0.0, 1.0, size=(n_users, n_grids))
    moi[:, rng.random(n_grids) < 0.4] = 0.0
    moi[rng.random(n_users) < 0.2] = 0.0
    cheapest = 8.0 * 1600.0 / (1e8 * table.rates[-1])  # a grid, fastest rate
    budget = float(cheapest * rng.uniform(0.5, 2.0 * n_grids))
    return ProblemInstance(moi=moi, snr_db=tuple(snr), mcs=table,
                           grid_bytes=1600.0, bandwidth_hz=1e8, budget_s=budget)


def equal_weights_instance(rng: np.random.Generator, n_users: int,
                           wanted: float) -> ProblemInstance:
    """Random instance in which every user wants the same grids, each by
    0.25, so a run's wanted grids all tie and every cut below them
    straddles a tie; wanted is the share of grids wanted (0: none)."""
    table = random_mcs_table(rng, max_rates=4)
    n_grids = int(rng.integers(1, 41))
    lo, hi = table.thresholds_db[0], table.thresholds_db[-1]
    snr = rng.uniform(lo - 5.0, hi + 5.0, size=n_users)
    snr[0] = hi  # some user decodes a rate
    moi = np.tile(0.25 * (rng.random(n_grids) < wanted), (n_users, 1))
    cheapest = 8.0 * 1600.0 / (1e8 * table.rates[-1])  # a grid, fastest rate
    budget = float(cheapest * rng.uniform(0.5, 2.0 * n_grids))
    return ProblemInstance(moi=moi, snr_db=tuple(snr), mcs=table,
                           grid_bytes=1600.0, bandwidth_hz=1e8, budget_s=budget)


def legacy_dense_doc(inst: ProblemInstance) -> dict:
    """The instance as the dense document older versions wrote: no "format"
    key and moi as a list of N rows."""
    doc = inst.to_json()
    del doc["format"]
    doc["moi"] = inst.moi.tolist()
    return doc


def _user_past_range(doc: dict) -> None:
    doc["moi"]["user"][0] = doc["n_users"]


def _negative_grid(doc: dict) -> None:
    doc["moi"]["grid"][0] = -1  # numpy would wrap it to the last grid


def _fractional_grid(doc: dict) -> None:
    doc["moi"]["grid"][0] = 0.5


def _true_grid(doc: dict) -> None:
    doc["moi"]["grid"][1] = True  # numpy would read it as grid 1


def _repeated_pair(doc: dict) -> None:
    for key in ("user", "grid", "value"):
        doc["moi"][key].append(doc["moi"][key][0])


def _short_values(doc: dict) -> None:
    doc["moi"]["value"].pop()


def _unknown_format(doc: dict) -> None:
    doc["format"] = 3


def _set(value, *path):
    """Edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc: dict) -> None:
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _false_threshold(doc: dict) -> None:
    doc["mcs_table"][0]["threshold_db"] = False  # would read as 0.0


def _no_grids(doc: dict) -> None:
    doc["n_grids"] = 0
    doc["moi"] = {"user": [], "grid": [], "value": []}


def _no_format(doc: dict) -> None:
    del doc["format"]


def _no_snr(doc: dict) -> None:
    del doc["snr_db"]


def _dense_layout(doc: dict) -> None:
    dense = legacy_dense_doc(ProblemInstance.from_json(doc))
    doc.clear()
    doc.update(dense)


# edits that each turn a valid format-2 instance document (with at least
# two nonzero weights, the second off grid 1) into one from_json must reject
MALFORMED_INSTANCE_EDITS = {
    "user_out_of_range": _user_past_range,
    "negative_grid": _negative_grid,
    "fractional_grid": _fractional_grid,
    "true_grid": _true_grid,
    "repeated_pair": _repeated_pair,
    "unequal_lengths": _short_values,
    "unknown_format": _unknown_format,
    "no_format": _no_format,
    # the layout older versions wrote, which is no longer read
    "dense_layout": _dense_layout,
    # a JSON true, which float() and numpy would read as 1.0
    "true_budget": _set(True, "budget_s"),
    "true_grid_bytes": _set(True, "grid_bytes"),
    "true_bandwidth": _set(True, "bandwidth_hz"),
    "true_snr": _set(True, "snr_db", 0),
    "true_weight": _set(True, "moi", "value", 0),
    "true_mcs_rate": _set(True, "mcs_table", 0, "rate"),
    "false_mcs_threshold": _false_threshold,
    "no_grids": _no_grids,
    # a scalar where a list or an object belongs; iterating or indexing
    # it would raise TypeError
    "scalar_moi": _set(5, "moi"),
    "scalar_moi_user": _set(5, "moi", "user"),
    "scalar_snr": _set(3.0, "snr_db"),
    "no_snr": _no_snr,
    # item costs of inf (a rate of 0 Hz) or of 0, and a weight whose
    # gain per second is no float; each loads into a degenerate instance
    # unless the costs and the interest scale are checked
    "subnormal_bandwidth": _set(5e-324, "bandwidth_hz"),
    "subnormal_grid_bytes": _set(5e-324, "grid_bytes"),
    "huge_weight": _set(1e308, "moi", "value", 0),
    # far more users than snr_db holds, which must fail before the N x L
    # matrix (32 TiB) is allocated
    "users_past_snr": _set(2 ** 40, "n_users"),
}
