"""Map-of-interest pipeline: correlation, entropy, masks, products."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from birdcast import (
    GridMap,
    build_moi,
    confidence_map,
    entropy_map,
    info_mask,
    local_correlation,
)


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def test_gridmap_rejects_non_finite():
    with pytest.raises(ValueError):
        GridMap(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("doc", [
    {"h": 1, "w": 2, "data": [True, False]},  # float() reads 1.0, 0.0
    {"h": 1, "w": 2, "data": [0.5, "1"]},  # numpy reads 1.0
    {"h": True, "w": 2, "data": [0.5, 1.0]},
    {"h": 1.0, "w": 2, "data": [0.5, 1.0]},
    # numpy's reshape would read a negative side as its unknown dimension
    {"h": 1, "w": -1, "data": [1, 2, 3, 4]},
    {"h": -1, "w": 2, "data": [1, 2, 3, 4]},
    {"h": 0, "w": 2, "data": []},
    {"h": 2, "w": 2, "data": [1, 2, 3]},
    {"h": 1, "w": 2, "data": [1, 2, 3]},
    {"h": 1, "w": 2},
    {"w": 2, "data": [1, 2]},
    [1, 2],
    None,
])
def test_gridmap_document_that_is_no_map_rejected(doc):
    with pytest.raises(ValueError, match="GridMap"):
        GridMap.from_json(doc)


def test_gridmap_json_round_trip():
    g = GridMap(np.arange(6.0).reshape(2, 3))
    again = GridMap.from_json(g.to_json())
    assert np.array_equal(again.values, g.values)
    assert (again.height, again.width) == (2, 3)


@pytest.mark.parametrize("shape", [(2, 2), (-1, 6), (6, -1), (0, 6)])
def test_gridmap_rows_refuse_a_shape_off_the_row_length(shape):
    # reshape would read a -1 side as its unknown dimension
    with pytest.raises(ValueError, match="rows of 6 values"):
        GridMap(np.ones((3, 6)))._rows(shape)


def test_local_correlation_constant_map():
    g = GridMap(np.full((4, 5), 3.7))
    p = local_correlation(g, 3)
    assert np.allclose(p.values, 0.5, atol=1e-12)


def test_gridmap_rejects_a_1d_array():
    with pytest.raises(ValueError, match="2-D array"):
        GridMap(np.ones(3))


def test_local_correlation_rejects_window_zero():
    with pytest.raises(ValueError, match="window must be >= 1"):
        local_correlation(GridMap(np.ones((3, 3))), 0)


def test_local_correlation_window_one():
    g = GridMap(np.random.default_rng(0).normal(size=(3, 3)))
    p = local_correlation(g, 1)
    assert np.allclose(p.values, 0.5, atol=1e-12)


def test_local_correlation_center_spike():
    # 3x3 map, center 10, neighbors 0; the window anchored at the center
    # covers the center once and eight replicated zeros
    vals = np.zeros((3, 3))
    vals[1, 1] = 10.0
    p = local_correlation(GridMap(vals), 3)
    expected = (8.0 * sigmoid(-10.0) + 0.5) / 9.0
    assert p.values[1, 1] == pytest.approx(expected, abs=1e-12)


def test_local_correlation_shift_invariant():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 7))
    p1 = local_correlation(GridMap(base), 3)
    p2 = local_correlation(GridMap(base + 13.25), 3)
    assert np.allclose(p1.values, p2.values, atol=1e-12)


def test_local_correlation_outputs_in_open_unit_interval():
    rng = np.random.default_rng(6)
    p = local_correlation(GridMap(rng.normal(size=(8, 8)) * 5), 5)
    assert np.all(p.values > 0.0) and np.all(p.values < 1.0)


def test_local_correlation_of_a_wide_window_allocates_a_block_at_a_time():
    # window 40 on a 40 x 100 map: 1,600 offsets of 4,000 cells, 51 MB as
    # one array of terms, within GenParams' cap on window ** 2 cells
    f = GridMap(np.random.default_rng(7).normal(size=(40, 100)))
    tracemalloc.start()
    try:
        p = local_correlation(f, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert np.all(p.values > 0.0) and np.all(p.values < 1.0)


def test_entropy_values():
    p = GridMap(np.array([[0.5, 1.0 / math.e]]))
    e = entropy_map(p)
    assert e.values[0, 0] == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)
    assert e.values[0, 1] == pytest.approx(-1.0 / math.e, abs=1e-12)


def test_entropy_range_and_limit():
    p = GridMap(np.array([[1e-12, 0.9999999]]))
    e = entropy_map(p)
    assert np.all(e.values >= -1.0 / math.e)
    assert np.all(e.values < 0.0)
    assert e.values[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        entropy_map(GridMap(np.array([[0.0, 0.5]])))
    with pytest.raises(ValueError):
        entropy_map(GridMap(np.array([[1.0, 0.5]])))


def test_info_mask_uniform_tie_break():
    e = GridMap(np.full((10, 25), -0.3))
    mask = info_mask(e, 0.1)
    flat = mask.values.ravel()
    assert flat.sum() == 25  # ceil(0.1 * 250) cells
    assert np.all(flat[:25] == 1.0) and np.all(flat[25:] == 0.0)


def test_info_mask_eta_one():
    e = GridMap(np.random.default_rng(0).uniform(-0.36, -0.01, (3, 4)))
    assert info_mask(e, 1.0).values.sum() == 12


def test_info_mask_rejects_eta_zero():
    with pytest.raises(ValueError, match=r"eta must be in \(0, 1\]"):
        info_mask(GridMap(np.full((2, 2), -0.3)), 0.0)


def test_info_mask_selects_largest():
    vals = np.full((2, 3), -0.34)
    vals[1, 2] = -0.01
    mask = info_mask(GridMap(vals), 1.0 / 6.0)
    assert mask.values.sum() == 1
    assert mask.values[1, 2] == 1.0


def test_info_mask_popcount_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        eta = float(rng.uniform(1e-6, 1.0))
        e = GridMap(rng.uniform(-0.36, -0.001, size=(h, w)))
        mask = info_mask(e, eta)
        assert mask.values.sum() == math.ceil(eta * h * w - 1e-9)


def test_confidence_map():
    q_hvn = GridMap(np.array([[0.9, 0.1, 0.4]]))
    q_user = GridMap(np.array([[0.2, 0.8, 0.4]]))
    out = confidence_map(q_hvn, q_user)
    assert np.allclose(out.values, [[0.7, 0.0, 0.0]])


def test_confidence_map_shape_mismatch():
    with pytest.raises(ValueError):
        confidence_map(GridMap(np.zeros((2, 2))), GridMap(np.zeros((2, 3))))


ROW_CASES = [(1, 1), (1, 7), (4, 1), (5, 9)]


@pytest.mark.parametrize("h, w", ROW_CASES)
def test_confidence_map_row_against_a_stack_is_the_broadcast(h, w):
    rng = np.random.default_rng(h * 10 + w)
    row, stack = rng.uniform(0, 1, (1, w)), rng.uniform(0, 1, (h, w))
    repeated = np.repeat(row, h, axis=0)
    for a, b, a_full, b_full in ((row, stack, repeated, stack),
                                 (stack, row, stack, repeated)):
        got = confidence_map(GridMap(a), GridMap(b)).values
        want = confidence_map(GridMap(a_full), GridMap(b_full)).values
        assert got.shape == (h, w) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h, w", ROW_CASES)
def test_build_moi_rows_against_a_stack_are_the_broadcast(h, w):
    rng = np.random.default_rng(h * 10 + w)
    conf = rng.uniform(0, 1, (h, w))
    info = (rng.random((1, w)) < 0.5).astype(float)
    roi = (rng.random((h, w)) < 0.5).astype(float)
    want = build_moi(GridMap(conf), GridMap(np.repeat(info, h, axis=0)),
                     GridMap(roi)).values
    got = build_moi(GridMap(conf), GridMap(info), GridMap(roi)).values
    assert got.shape == (h, w) and got.tobytes() == want.tobytes()
    # any of the three may be the row
    rows = build_moi(GridMap(conf[:1]), GridMap(info), GridMap(roi)).values
    assert rows.tobytes() == build_moi(
        GridMap(np.repeat(conf[:1], h, axis=0)),
        GridMap(np.repeat(info, h, axis=0)), GridMap(roi)).values.tobytes()


def test_row_of_another_width_rejected():
    stack, row = GridMap(np.ones((3, 4))), GridMap(np.ones((1, 5)))
    with pytest.raises(ValueError, match="shape mismatch"):
        confidence_map(row, stack)
    with pytest.raises(ValueError, match="shape mismatch"):
        build_moi(stack, row, stack)
    # two stacks of different heights, each fine against a row
    with pytest.raises(ValueError, match="shape mismatch"):
        build_moi(GridMap(np.ones((1, 4))), stack, GridMap(np.ones((2, 4))))


def test_build_moi_identity_masks():
    conf = GridMap(np.random.default_rng(1).uniform(0, 1, (3, 3)))
    ones = GridMap(np.ones((3, 3)))
    out = build_moi(conf, ones, ones)
    assert np.array_equal(out.values, conf.values)


def test_build_moi_zero_propagation():
    conf = GridMap(np.full((2, 2), 0.7))
    info = GridMap(np.array([[1.0, 0.0], [1.0, 1.0]]))
    roi = GridMap(np.array([[1.0, 1.0], [0.0, 1.0]]))
    out = build_moi(conf, info, roi)
    assert np.allclose(out.values, [[0.7, 0.0], [0.0, 0.7]])


def test_build_moi_all_zero_roi():
    conf = GridMap(np.full((2, 2), 0.5))
    ones = GridMap(np.ones((2, 2)))
    zeros = GridMap(np.zeros((2, 2)))
    assert build_moi(conf, ones, zeros).values.sum() == 0.0


def test_build_moi_requires_binary_masks():
    conf = GridMap(np.full((2, 2), 0.5))
    not_binary = GridMap(np.full((2, 2), 0.5))
    ones = GridMap(np.ones((2, 2)))
    with pytest.raises(ValueError):
        build_moi(conf, not_binary, ones)
    with pytest.raises(ValueError):
        build_moi(conf, ones, not_binary)


def test_moi_range_under_preconditions():
    rng = np.random.default_rng(9)
    conf = GridMap(rng.uniform(0, 1, (5, 5)))
    info = GridMap((rng.random((5, 5)) < 0.5).astype(float))
    roi = GridMap((rng.random((5, 5)) < 0.5).astype(float))
    out = build_moi(conf, info, roi)
    assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)
