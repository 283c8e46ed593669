"""Scene generation, path-loss SNR, and the toy-instance construction."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from birdcast import (
    DEFAULT_MCS_TABLE,
    GenParams,
    GridMap,
    Scene,
    broadcast_solve,
    exact_solve,
    fig1_instance,
    generate,
    refined_greedy,
    snr_for_user,
    unicast_solve,
)
from birdcast import scenario
from birdcast.scenario import UserGeometry

from conftest import users_instance


def scene_with_user_at(distance_3d: tuple[float, float, float]) -> Scene:
    tiny = GridMap(np.zeros((1, 1)))
    user = UserGeometry(position=distance_3d, heading=(1.0, 0.0),
                        roi=tiny, q_user=tiny)
    return Scene(
        hvn_position=(0.0, 0.0, 0.0),
        users=(user,),
        q_hvn=tiny,
        compressed_feature=tiny,
        extent=(100.0, 100.0),
        grid_shape=(1, 1),
        occluders=(),
    )


def test_snr_at_one_meter():
    scene = scene_with_user_at((1.0, 0.0, 0.0))
    assert snr_for_user(scene, 0) == pytest.approx(23.0 - 47.85 + 92.0)


def test_snr_at_ten_meters_maps_to_rate():
    scene = scene_with_user_at((10.0, 0.0, 0.0))
    snr = snr_for_user(scene, 0)
    assert snr == pytest.approx(67.15 - 38.0)
    rate = users_instance([snr], DEFAULT_MCS_TABLE).user_max_rate_bps()[0]
    assert rate == pytest.approx(4.21 * 100e6)


def test_snr_drops_38db_per_decade():
    s10 = snr_for_user(scene_with_user_at((10.0, 0.0, 0.0)), 0)
    s100 = snr_for_user(scene_with_user_at((100.0, 0.0, 0.0)), 0)
    assert s10 - s100 == pytest.approx(38.0)


def test_snr_rejects_colocated_user():
    scene = scene_with_user_at((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        snr_for_user(scene, 0)


def test_snr_monotone_in_distance():
    distances = np.linspace(2.0, 200.0, 25)
    snrs = [snr_for_user(scene_with_user_at((d, 0.0, 0.0)), 0)
            for d in distances]
    assert all(a > b for a, b in zip(snrs, snrs[1:]))


def test_generate_deterministic():
    p = GenParams(seed=7, n_users=6, grid_h=5, grid_w=5)
    scene_a, inst_a = generate(p)
    scene_b, inst_b = generate(p)
    dump = lambda d: json.dumps(d, sort_keys=True)
    assert dump(inst_a.to_json()) == dump(inst_b.to_json())
    assert dump(scene_a.to_json()) == dump(scene_b.to_json())


def test_generate_different_seeds_differ():
    _, a = generate(GenParams(seed=1, n_users=6, grid_h=5, grid_w=5))
    _, b = generate(GenParams(seed=2, n_users=6, grid_h=5, grid_w=5))
    assert json.dumps(a.to_json()) != json.dumps(b.to_json())


def test_zero_occluders_means_zero_utility():
    _, inst = generate(GenParams(seed=3, n_users=5, n_occluders=0))
    assert inst.moi.sum() == 0.0
    assert refined_greedy(inst).utility == 0.0
    assert unicast_solve(inst).utility == 0.0


def test_default_scale_instance_has_feasible_items():
    _, inst = generate(GenParams(seed=0))
    assert (inst.n_users, inst.n_grids, inst.n_rates) == (24, 250, 14)
    assert inst.item_cost_s.min() <= inst.budget_s
    assert inst.rate_class_table[:, :inst.n_rates].max() > 0.0


def test_moi_zero_outside_roi():
    scene, inst = generate(GenParams(seed=5, n_users=8))
    for n, user in enumerate(scene.users):
        outside = user.roi.values.ravel() == 0.0
        assert np.all(inst.moi[n][outside] == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_user_maps_are_checked_read_only_grid_maps(seed):
    # each user's maps are views of checked N x L stacks; they must keep
    # the contract of a map built through GridMap's own constructor
    scene, _ = generate(GenParams(seed=seed, n_users=6, grid_h=4, grid_w=7))
    for user in scene.users:
        for grid in (user.roi, user.q_user):
            assert type(grid) is GridMap
            assert np.isfinite(grid.values).all()
            with pytest.raises(ValueError, match="read-only"):
                grid.values[0, 0] = 0.5
            checked = GridMap(np.array(grid.values.ravel()).reshape(4, 7))
            assert grid.values.shape == checked.values.shape
            assert grid.values.dtype == checked.values.dtype
            assert grid.values.flags.c_contiguous
            assert grid.values.tobytes() == checked.values.tobytes()


def test_genparams_validation():
    with pytest.raises(ValueError):
        GenParams(n_users=0)
    with pytest.raises(ValueError):
        GenParams(eta=0.0)
    with pytest.raises(ValueError):
        GenParams(budget_s=-1.0)


@pytest.mark.parametrize("fields, message", [
    ({"grid_h": 0}, "grid resolution"),
    ({"grid_w": 0}, "grid resolution"),
    ({"extent": (100.0, 0.0)}, "extent must be positive"),
    ({"window": 0}, "window"),
    ({"n_users": 0}, "n_users"),
    ({"eta": 1.5}, "eta"),
    ({"bandwidth_hz": 0.0}, "bandwidth_hz"),
    ({"seed": -1}, "seed"),
    ({"extent": (1.0, 2.0, 3.0)}, "extent: two numbers"),
    ({"extent": ()}, "extent: two numbers"),
    ({"n_objects": -3}, "n_objects: a count >= 0"),
    ({"n_occluders": -3}, "n_occluders: a count >= 0"),
    # item costs of inf: a rate of 0 Hz, a rate times bandwidth so small
    # that the payload over it overflows, and a payload that overflows
    ({"bandwidth_hz": 5e-324}, "bandwidth_hz"),
    ({"bandwidth_hz": 1e-310}, "bandwidth_hz"),
    ({"grid_bytes": 1e308}, "grid_bytes"),
    # both negative: the payload over the rate is positive, but no rate is
    ({"grid_bytes": -1600.0, "bandwidth_hz": -1e8}, "bandwidth_hz"),
    # local_correlation's window ** 2 passes over the 250 cells: 733 ** 2
    # * 250 is past MAX_INSTANCE_CELLS, 732 ** 2 * 250 is not
    ({"window": 733}, "^window: 134322250 cells, "),
])
def test_genparams_range_checks(fields, message):
    with pytest.raises(ValueError, match=message):
        GenParams(**fields)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fields, name", [
    ({"extent": (NAN, 100.0)}, "extent"),
    ({"extent": (100.0, INF)}, "extent"),
    ({"budget_s": NAN}, "budget_s"),
    ({"bandwidth_hz": INF}, "bandwidth_hz"),
    ({"grid_bytes": INF}, "grid_bytes"),
])
def test_genparams_rejects_non_finite_floats(fields, name):
    # each slips past the range checks, which are false for NaN
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GenParams(**fields)


def test_genparams_too_large_rejected_before_allocating():
    # 10**12 cells: generate's L x N stacks would take 8 TB each
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^grid_h, grid_w, n_users, "
                           f"n_objects: {10 ** 6 * 2 ** 20} cells, "):
            GenParams(n_users=2 ** 20, grid_h=1000, grid_w=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_genparams_window_bound_scales_with_the_grid():
    assert GenParams(window=732).window == 732
    assert GenParams(window=1000, grid_h=5, grid_w=25).window == 1000


@pytest.mark.parametrize("fields, per_grid", [
    ({"n_users": 20}, 20),
    ({"n_users": 2, "n_objects": 20}, 20),
    # the default table's 14 rates: a grid takes at least 15 cells
    ({"n_users": 2, "n_objects": 0}, 15),
])
def test_genparams_size_cap_counts_users_objects_or_rates(monkeypatch, fields,
                                                          per_grid):
    # a window of 1 keeps local_correlation's 21 cells under either cap
    cells = 3 * 7 * per_grid
    monkeypatch.setattr(scenario, "MAX_INSTANCE_CELLS", cells)
    assert GenParams(grid_h=3, grid_w=7, window=1, **fields).grid_w == 7
    monkeypatch.setattr(scenario, "MAX_INSTANCE_CELLS", cells - 1)
    with pytest.raises(ValueError, match=f"{cells} cells, .* the most is "
                       f"{cells - 1}$"):
        GenParams(grid_h=3, grid_w=7, window=1, **fields)


def test_segment_rect_intersection():
    from birdcast.scenario import _segments_blocked

    p0 = np.array([[0.0, 0.0]])
    cells = np.array([[10.0, 0.0],   # passes straight through the rect
                      [10.0, 10.0],  # passes above it
                      [3.0, 0.0],    # stops before it
                      [5.0, 0.5]])   # ends inside it
    rect = (4.0, 6.0, -1.0, 1.0)
    hits = _segments_blocked(p0, cells, [rect])
    assert hits.tolist() == [[True, False, False, True]]
    # start point inside the rectangle always blocks
    inside = _segments_blocked(np.array([[5.0, 0.0]]),
                               np.array([[20.0, 20.0]]), [rect])
    assert inside.tolist() == [[True]]
    # users x cells at once; vertical segments (no x extent) block only
    # when they run inside the rect's x slab
    starts = np.array([[5.0, -10.0],   # below the rect, inside its x slab
                       [8.0, -10.0]])  # below and right of it
    ends = np.array([[5.0, 10.0], [8.0, 10.0]])
    blocked = _segments_blocked(starts, ends, [rect])
    assert blocked.tolist() == [[True, False], [False, False]]
    # no occluders, nothing blocked
    assert not _segments_blocked(starts, ends, []).any()


# sha256 of (inst.moi.tobytes(), repr(inst.snr_db), sorted scene JSON); a
# change to any scene or instance generate produces must update these.
# Taken with numpy 2.4 on x86-64: another libm may round exp/tanh/log
# differently and move them without any change to birdcast.
GOLDEN_PARAMS = {
    "paper_default": GenParams(seed=0),
    "n32_5ms": GenParams(n_users=32, budget_s=0.005, seed=0),
    "n96_40x25": GenParams(n_users=96, grid_h=40, grid_w=25, seed=0),
    "no_occluders": GenParams(n_occluders=0, seed=0),
    "no_objects_15_occluders": GenParams(n_objects=0, n_occluders=15, seed=0),
    "one_user_one_cell": GenParams(n_users=1, grid_h=1, grid_w=1, seed=0),
}
GOLDEN_DIGESTS = {
    "paper_default": (
        "02bc4b6da726f4cf2fd0f7bb8ad2da09bd9c40397baf3f4c13c7424e833ae41d",
        "6e8cc34ba90ae2bb9e2fc5d6f82c5c581aa28c690a62c8478f9a2c951c082cbc",
        "50ec80f6382d6569d239ae686bbab3aa1b803f09d5095df26e95df67ff0fb8d5",
    ),
    "n32_5ms": (
        "0d6f66e4ef246b218a8eeb9bf69330f886dc2d75e4e3bd2187c8e22420fd6c85",
        "a780d0e236076f8059e2a81ddd7d9226e7c2daf62267d1fb4c10f763747599fe",
        "c27f0dcd69231ce716d0f8d65678be5cb16366e1671c1d844e17c7ffef30337d",
    ),
    "n96_40x25": (
        "818eb8a7fd6c8aa8674c7eb86d63cf431497e49f8f4c59fc71f184fc6d3adf5d",
        "db8a56307a78cbd97abd19d84cc81336d6e4f7756a5cd60bf4f26d9d42634313",
        "59bda585eb00ab8a22058486454a37d3ebdf7f3bb68c06dbdcc4c6ee0d7097f3",
    ),
    "no_occluders": (
        "bb918147fe10391b43adeba4bd21b9ef32e5bd6c5076c3517733a05ed6dd0569",
        "6e8cc34ba90ae2bb9e2fc5d6f82c5c581aa28c690a62c8478f9a2c951c082cbc",
        "9d2c8f2e5a886c06905c7b2adb1ef45a130e3e0743ff18d98776a61846a994aa",
    ),
    "no_objects_15_occluders": (
        "bb918147fe10391b43adeba4bd21b9ef32e5bd6c5076c3517733a05ed6dd0569",
        "6e8cc34ba90ae2bb9e2fc5d6f82c5c581aa28c690a62c8478f9a2c951c082cbc",
        "5d4649a19473a082d13e7fc9d2acfa41e745e0439da86ea9c171505789b9e892",
    ),
    "one_user_one_cell": (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "6e6ebfc4f670c39059ae44ee950ae6ccab1a66b17caa64b868e4b7002d1e0067",
        "20c58c8d4689aa1dce78cfc2e66ed0a6b520d81236be45d6b0a13a03b9571d40",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PARAMS))
def test_generate_is_bit_stable(name):
    scene, inst = generate(GOLDEN_PARAMS[name])
    sha = lambda data: hashlib.sha256(data).hexdigest()
    digests = (
        sha(inst.moi.tobytes()),
        sha(repr(inst.snr_db).encode()),
        sha(json.dumps(scene.to_json(), sort_keys=True).encode()),
    )
    assert digests == GOLDEN_DIGESTS[name]


def test_fig1_triple():
    inst = fig1_instance()
    assert inst.budget_s == pytest.approx(14e-3)
    assert inst.grid_bytes == 15000.0
    assert min(r for r in inst.user_max_rate_bps() if r > 0) == pytest.approx(20e6)
    assert exact_solve(inst).opt_utility == 8.0
    assert broadcast_solve(inst).utility == 6.0
    assert unicast_solve(inst).utility == 3.0
