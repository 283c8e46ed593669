"""Synthetic scene generation without any perception stack.

Builds a sender at an elevated position, ground users with rectangular
occluders between them and parts of the scene, and geometry-derived
confidence/feature maps; the interest pipeline and the channel model then
turn a scene into a ProblemInstance. Everything is a pure function of the
parameters including the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import DEFAULT_MCS_TABLE, McsTable, _item_costs
from .instance import MAX_INSTANCE_CELLS, ProblemInstance
from .moi import (
    GridMap,
    build_moi,
    confidence_map,
    entropy_map,
    info_mask,
    local_correlation,
)


# The scene model's constants; no caller varies them. Lengths in meters.
OCCLUDER_MIN_SIZE = 8.0    # occluder sides are drawn from [min, max]
OCCLUDER_MAX_SIZE = 20.0
HVN_HEIGHT = 10.0          # the sender, above the map center
ROI_HALF_WIDTH = 25.0      # a user's square region of interest, centered
ROI_FORWARD_OFFSET = 10.0  # this far ahead of the user
OCCLUSION_ATTEN = 0.15     # a user's confidence factor behind an occluder
OBJECT_SIGMA_M = 6.0       # width of each object's confidence bump
FEATURE_NOISE = 0.1        # std of the Gaussian noise on the feature map

# Log-distance path-loss channel. The 1 m reference loss is the free-space
# value at 5.9 GHz (about 47.85 dB), the usual intercept for this model.
TX_POWER_DBM = 23.0
NOISE_DBM = -92.0
PATHLOSS_EXPONENT = 3.8
REF_PATHLOSS_DB = 47.85


@dataclass(frozen=True)
class UserGeometry:
    position: tuple[float, float, float]
    heading: tuple[float, float]
    roi: GridMap
    q_user: GridMap


@dataclass(frozen=True)
class Scene:
    hvn_position: tuple[float, float, float]
    users: tuple[UserGeometry, ...]
    q_hvn: GridMap
    compressed_feature: GridMap
    extent: tuple[float, float]
    grid_shape: tuple[int, int]
    occluders: tuple[tuple[float, float, float, float], ...]  # xmin, xmax, ymin, ymax

    def to_json(self) -> dict:
        return {
            "hvn_position": list(self.hvn_position),
            "users": [
                {
                    "position": list(u.position),
                    "heading": list(u.heading),
                    "roi": u.roi.to_json(),
                    "q_user": u.q_user.to_json(),
                }
                for u in self.users
            ],
            "q_hvn": self.q_hvn.to_json(),
            "compressed_feature": self.compressed_feature.to_json(),
            "extent": list(self.extent),
            "grid_shape": list(self.grid_shape),
            "occluders": [list(o) for o in self.occluders],
        }


@dataclass(frozen=True)
class GenParams:
    """What a caller sets for the generator; the seed fixes the whole
    scene. The scene model's other constants are fixed above. A scene may
    have no more cells, grid_h * grid_w times max(n_users, n_objects,
    n_rates + 1), than instance.MAX_INSTANCE_CELLS, the most that
    ProblemInstance.from_json reads; nor may window ** 2 * grid_h * grid_w,
    the cells that local_correlation visits, exceed it."""

    n_users: int = 24
    extent: tuple[float, float] = (100.0, 100.0)
    grid_h: int = 10
    grid_w: int = 25
    n_objects: int = 12
    n_occluders: int = 6
    seed: int = 0
    eta: float = 0.5
    window: int = 5
    grid_bytes: float = 1600.0
    bandwidth_hz: float = 100e6
    budget_s: float = 0.030
    mcs: McsTable = field(default=DEFAULT_MCS_TABLE)

    def __post_init__(self) -> None:
        if len(self.extent) != 2:  # the map's two sides
            raise ValueError(f"extent: two numbers, not {len(self.extent)}")
        named = [(f.name, getattr(self, f.name)) for f in fields(self)]
        named += [("extent", v) for v in self.extent]
        infinite = sorted({name for name, v in named
                           if isinstance(v, float) and not math.isfinite(v)})
        if infinite:
            raise ValueError(f"{', '.join(infinite)} must be finite")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        for name in ("n_objects", "n_occluders"):
            count = getattr(self, name)
            if count < 0:
                raise ValueError(f"{name}: a count >= 0, not {count}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.grid_h < 1 or self.grid_w < 1:
            raise ValueError("grid resolution must be >= 1 in both axes")
        # generate's largest arrays are L x N, L x n_objects and the
        # instance's L x (M + 1) table, for L = grid_h * grid_w
        cells = self.grid_h * self.grid_w * max(
            self.n_users, self.n_objects, self.mcs.n_rates + 1)
        if cells > MAX_INSTANCE_CELLS:
            raise ValueError(
                f"grid_h, grid_w, n_users, n_objects: {cells} cells, grid_h "
                f"* grid_w * max(n_users, n_objects, n_rates + 1); the most "
                f"is {MAX_INSTANCE_CELLS}")
        if min(self.extent) <= 0:
            raise ValueError("extent must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        # local_correlation makes window ** 2 passes over the L cells
        passes = self.window * self.window * self.grid_h * self.grid_w
        if passes > MAX_INSTANCE_CELLS:
            raise ValueError(
                f"window: {passes} cells, window ** 2 * grid_h * grid_w; the "
                f"most is {MAX_INSTANCE_CELLS}")
        if self.budget_s <= 0:
            raise ValueError("budget_s must be positive")
        _item_costs(self.mcs, self.bandwidth_hz, self.grid_bytes)


def snr_for_user(scene: Scene, user_index: int) -> float:
    """Received SNR (dB) from the log-distance path-loss model, d0 = 1 m."""
    user = scene.users[user_index]
    hx, hy, hz = scene.hvn_position
    ux, uy, uz = user.position
    d = math.dist((hx, hy, hz), (ux, uy, uz))
    if d == 0.0:
        raise ValueError("user is co-located with the sender")
    pathloss = REF_PATHLOSS_DB + 10.0 * PATHLOSS_EXPONENT * math.log10(d)
    return TX_POWER_DBM - pathloss - NOISE_DBM


# how many start-cell pairs the occlusion test clips at a time: the seven
# working arrays of a block, about 1 MB, stay in a core's L2 cache
_CLIP_BLOCK_PAIRS = 1 << 14


def _segments_blocked(starts: np.ndarray, cells: np.ndarray,
                      rects) -> np.ndarray:
    """N x L mask: does the segment from start n to cell l cross any rect?

    Liang-Barsky clipping of every start -> cell-center segment, a block
    of starts at a time and looping over the rectangles only, so the
    working set stays a few block-sized arrays however many users, cells
    and occluders there are. On each axis the segment meets the slab
    lo..hi over the parameters between t_a = (lo - start) / p and
    t_b = (hi - start) / p, p the segment's extent on that axis; the clip
    interval [t0, t1] starts at [0, 1] and narrows to each slab's
    [min, max] of the two.

    A segment parallel to the axis (p = 0) needs no branch: IEEE division
    gives t_a and t_b infinities of one sign when its start lies outside
    the slab, which empties [t0, t1], and of opposite signs when it lies
    strictly inside, which leave it alone. A start on the slab's edge
    gives 0 / 0 = NaN, which minimum and maximum pass on and fmax and fmin
    then ignore, so the edge counts as inside. For p != 0 no NaN arises
    and fmax and fmin are plain maximum and minimum.
    """
    blocked = np.zeros((len(starts), len(cells)), dtype=bool)
    rows = max(1, _CLIP_BLOCK_PAIRS // len(cells))
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, len(starts), rows):
            _clip_block(starts[first:first + rows], cells, rects,
                        blocked[first:first + rows])
    return blocked


def _clip_block(starts: np.ndarray, cells: np.ndarray, rects,
                blocked: np.ndarray) -> None:
    """_segments_blocked on one block of starts, or-ed into blocked."""
    shape = blocked.shape
    axes = [(starts[:, axis, None], cells[None, :, axis] - starts[:, axis, None])
            for axis in (0, 1)]
    clipped = np.empty(shape, dtype=bool)
    t0, t1, t_a, t_b, bound = (np.empty(shape) for _ in range(5))
    for xmin, xmax, ymin, ymax in rects:
        lower, upper = 0.0, 1.0  # then t0 and t1, after the first axis
        for (start, p), lo, hi in zip(axes, (xmin, ymin), (xmax, ymax)):
            np.divide(lo - start, p, out=t_a)
            np.divide(hi - start, p, out=t_b)
            np.fmax(lower, np.minimum(t_a, t_b, out=bound), out=t0)
            np.fmin(upper, np.maximum(t_a, t_b, out=bound), out=t1)
            lower, upper = t0, t1
        blocked |= np.less_equal(t0, t1, out=clipped)


def _cell_centers(params: GenParams) -> np.ndarray:
    ex, ey = params.extent
    ys = (np.arange(params.grid_h) + 0.5) * ey / params.grid_h
    xs = (np.arange(params.grid_w) + 0.5) * ex / params.grid_w
    # row-major (x, y)
    return np.stack([np.tile(xs, params.grid_h), np.repeat(ys, params.grid_w)],
                    axis=1)


def generate(params: GenParams) -> tuple[Scene, ProblemInstance]:
    """Synthesize a scene and assemble the scheduling instance from it.

    Confidence at the sender peaks around synthetic objects; a user's own
    confidence matches it wherever the line of sight is clear and drops by
    the occlusion factor behind a rectangle. The interest pipeline turns
    the gap, the informativeness mask of the compressed feature, and each
    user's forward-looking region into per-user weights.
    """
    rng = np.random.default_rng(params.seed)
    ex, ey = params.extent
    h, w = params.grid_h, params.grid_w
    hvn = (ex / 2.0, ey / 2.0, HVN_HEIGHT)

    user_xy = rng.uniform((0.0, 0.0), (ex, ey), size=(params.n_users, 2))
    headings = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    user_heading = headings[rng.integers(0, 4, size=params.n_users)]
    # a draw of no objects leaves the generator's state as it was
    objects = rng.uniform((0.0, 0.0), (ex, ey), size=(params.n_objects, 2))
    # each occluder's centre, width and depth, one row per occluder: the
    # same values and stream as drawing them one by one in that order
    cx, cy, width, depth = rng.uniform(
        (0.0, 0.0, OCCLUDER_MIN_SIZE, OCCLUDER_MIN_SIZE),
        (ex, ey, OCCLUDER_MAX_SIZE, OCCLUDER_MAX_SIZE),
        size=(params.n_occluders, 4)).T
    occluders = list(zip((cx - width / 2).tolist(), (cx + width / 2).tolist(),
                         (cy - depth / 2).tolist(), (cy + depth / 2).tolist()))

    cells = _cell_centers(params)
    d2 = (cells[:, 0, None] - objects[None, :, 0]) ** 2 \
        + (cells[:, 1, None] - objects[None, :, 1]) ** 2
    bumps = np.exp(-d2 / (2.0 * OBJECT_SIGMA_M ** 2))  # L x n_objects
    # bumps are non-negative, so initial=0.0 changes nothing but the
    # all-zero map of a scene without objects
    q_hvn_flat = np.clip(bumps.max(axis=1, initial=0.0), 0.0, 1.0)
    feature_flat = bumps.sum(axis=1) \
        + FEATURE_NOISE * rng.standard_normal(len(cells))
    q_hvn = GridMap(q_hvn_flat.reshape(h, w))
    compressed = GridMap(feature_flat.reshape(h, w))

    p_map = local_correlation(compressed, params.window)
    informative = info_mask(entropy_map(p_map), params.eta)

    # every per-user map is one row of an N x L stack
    blocked = _segments_blocked(user_xy, cells, occluders)
    q_user_all = GridMap(
        np.where(blocked, q_hvn_flat * OCCLUSION_ATTEN, q_hvn_flat))
    center = user_xy + ROI_FORWARD_OFFSET * user_heading
    inside = (np.abs(cells[None, :, 0] - center[:, 0, None]) <= ROI_HALF_WIDTH) \
        & (np.abs(cells[None, :, 1] - center[:, 1, None]) <= ROI_HALF_WIDTH)
    roi_all = GridMap(inside.astype(np.float64))
    # the sender's confidence and the informativeness mask are the same
    # for every user, so they enter as 1 x L rows against the N x L stacks
    interest = build_moi(
        confidence_map(GridMap(q_hvn_flat[None, :]), q_user_all),
        GridMap(informative.values.reshape(1, -1)),
        roi_all,
    )
    users = tuple(
        UserGeometry(position=(x, y, 0.0), heading=(hx, hy), roi=roi,
                     q_user=q_user)
        for (x, y), (hx, hy), roi, q_user in zip(
            user_xy.tolist(), user_heading.tolist(), roi_all._rows((h, w)),
            q_user_all._rows((h, w)))
    )

    scene = Scene(
        hvn_position=hvn,
        users=users,
        q_hvn=q_hvn,
        compressed_feature=compressed,
        extent=(float(ex), float(ey)),
        grid_shape=(h, w),
        occluders=tuple(occluders),
    )
    snrs = tuple(snr_for_user(scene, n) for n in range(params.n_users))
    inst = ProblemInstance(
        moi=interest.values,
        snr_db=snrs,
        mcs=params.mcs,
        grid_bytes=params.grid_bytes,
        bandwidth_hz=params.bandwidth_hz,
        budget_s=params.budget_s,
    )
    return scene, inst


# --- hand-constructed four-user toy instance -------------------------------

FIG1_BUDGET_S = 14e-3
FIG1_GRID_BYTES = 15_000.0
FIG1_WEAK_BPS = 20e6
FIG1_STRONG_BPS = 30e6
_FIG1_BANDWIDTH = 10e6


def fig1_instance() -> ProblemInstance:
    """Four users, four grids, 14 ms budget, 15 KB grids, weakest at 20 Mbps.

    One grid is wanted by everyone and two more by the stronger pair,
    which decodes up to 30 Mbps. With these numbers the exact optimum is
    8 while the broadcast and unicast schemes score 6 and 3.
    """
    table = McsTable(
        rates=(FIG1_WEAK_BPS / _FIG1_BANDWIDTH,
               FIG1_STRONG_BPS / _FIG1_BANDWIDTH),
        thresholds_db=(0.0, 10.0),
    )
    moi = np.zeros((4, 4))
    moi[:, 0] = 1.0        # one grid wanted by all four users
    moi[0:2, 2] = 1.0      # two grids shared by the strong pair
    moi[0:2, 3] = 1.0
    return ProblemInstance(
        moi=moi,
        snr_db=(10.0, 10.0, 0.0, 0.0),
        mcs=table,
        grid_bytes=FIG1_GRID_BYTES,
        bandwidth_hz=_FIG1_BANDWIDTH,
        budget_s=FIG1_BUDGET_S,
    )
