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
}
