"""Channel model: decodability sets, max rates, item costs.

Decodability and max rates are read from ProblemInstance, the one place
that derives them from SNR.
"""

from __future__ import annotations

import numpy as np
import pytest

from birdcast import DEFAULT_MCS_TABLE, McsTable, item_cost

from conftest import random_mcs_table, users_instance


def decodable_row(snr_db: float, table: McsTable = DEFAULT_MCS_TABLE) -> list[bool]:
    return users_instance([snr_db], table).decodable[0].tolist()


def test_default_table_shape():
    assert DEFAULT_MCS_TABLE.n_rates == 14
    assert DEFAULT_MCS_TABLE.rates[0] == 0.31
    assert DEFAULT_MCS_TABLE.rates[-1] == 5.33
    assert DEFAULT_MCS_TABLE.thresholds_db[0] == -4.0
    assert DEFAULT_MCS_TABLE.thresholds_db[-1] == 33.0


@pytest.mark.parametrize("rates,thresholds", [
    ((), ()),
    ((1.0, 0.5), (0.0, 1.0)),       # rates not increasing
    ((0.5, 1.0), (1.0, 0.0)),       # thresholds not increasing
    ((0.5,), (1.0, 2.0)),           # length mismatch
    ((-1.0, 1.0), (0.0, 1.0)),      # non-positive rate
    ((float("nan"),), (0.0,)),      # non-finite rate
    ((1.0, float("inf")), (0.0, 1.0)),
    ((1.0,), (float("nan"),)),      # non-finite threshold
    ((1.0, 2.0), (float("-inf"), 1.0)),
])
def test_invalid_tables_rejected(rates, thresholds):
    with pytest.raises(ValueError):
        McsTable(rates, thresholds)


def test_decodable_set_lowest_threshold_inclusive():
    assert decodable_row(-4.0) == [True] + [False] * 13


def test_decodable_set_below_everything():
    assert decodable_row(-10.0) == [False] * 14
    assert users_instance([-10.0], DEFAULT_MCS_TABLE).top_rate[0] == -1


def test_decodable_set_every_index():
    assert decodable_row(33.0) == [True] * 14


def test_max_data_rate_examples():
    rates = users_instance([10.5, -10.0, 5.5], DEFAULT_MCS_TABLE).user_max_rate_bps()
    assert rates[0] == pytest.approx(148e6)
    assert rates[1] == 0.0  # out of range
    assert rates[2] == pytest.approx(103e6)


def test_item_cost_values():
    # 1.6 KB = 12800 bits
    assert item_cost(0, DEFAULT_MCS_TABLE, 100e6, 1600.0) == pytest.approx(
        12800 / 3.1e7)
    assert item_cost(13, DEFAULT_MCS_TABLE, 100e6, 1600.0) == pytest.approx(
        12800 / 5.33e8)


def test_item_cost_halves_with_double_bandwidth():
    c1 = item_cost(4, DEFAULT_MCS_TABLE, 100e6, 1600.0)
    c2 = item_cost(4, DEFAULT_MCS_TABLE, 200e6, 1600.0)
    assert c2 == pytest.approx(c1 / 2.0)


def test_item_cost_bad_index():
    with pytest.raises(IndexError):
        item_cost(14, DEFAULT_MCS_TABLE, 100e6, 1600.0)


def test_decodable_set_is_prefix_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        table = random_mcs_table(rng, max_rates=6)
        snr = float(rng.uniform(-20.0, 50.0))
        inst = users_instance([snr], table)
        dec = inst.decodable[0]
        assert dec.tolist() == [snr >= t for t in table.thresholds_db]
        ones = int(dec.sum())
        assert dec.tolist() == [True] * ones + [False] * (table.n_rates - ones)
        assert inst.top_rate[0] == ones - 1


def test_item_cost_strictly_decreasing_in_rate():
    costs = [item_cost(m, DEFAULT_MCS_TABLE, 100e6, 1600.0) for m in range(14)]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_max_data_rate_monotone_in_snr():
    rng = np.random.default_rng(11)
    snrs = np.sort(rng.uniform(-10.0, 40.0, size=50))
    rates = users_instance(snrs, DEFAULT_MCS_TABLE).user_max_rate_bps()
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_user_channel_prefix_of_ones():
    inst = users_instance([17.0], DEFAULT_MCS_TABLE)
    alpha = inst.decodable[0].tolist()
    ones = sum(alpha)
    assert alpha == [True] * ones + [False] * (14 - ones)
    assert inst.top_rate[0] == ones - 1


def test_table_json_round_trip():
    again = McsTable.from_json(DEFAULT_MCS_TABLE.to_json())
    assert again == DEFAULT_MCS_TABLE
    with pytest.raises(ValueError, match="mcs_table: a list"):
        McsTable.from_json(5)
    with pytest.raises(ValueError, match="mcs_table: a JSON object"):
        McsTable.from_json([5])
