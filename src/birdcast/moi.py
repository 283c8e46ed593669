"""Map-of-interest construction.

Builds a per-user weight map over grids from a compressed feature map,
detection-confidence maps, and a region-of-interest mask:

  1. local correlation score per cell (sigmoid-averaged neighbor discrepancy),
  2. entropy-style information density,
  3. binary informativeness mask keeping the top fraction of cells,
  4. confidence gap between the sender and the user, clamped at zero,
  5. element-wise product of gap, informativeness, and RoI.

All operations are pure functions over immutable grid maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import _all_numbers, _numbers, _object


@dataclass(frozen=True)
class GridMap:
    """An H x W map of real values (feature, confidence, mask, or weight)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("GridMap requires a 2-D array with H, W >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("GridMap values must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def _rows(self, shape: tuple[int, int]) -> list["GridMap"]:
        """Each row of this N x (H * W) stack as an H x W map.

        The maps are read-only views of self.values, which __post_init__
        has already checked, so they skip only that repeated check: a
        caller that builds a stack of per-user maps checks its N x L
        values once instead of once per row.
        """
        h, w = shape
        if h < 1 or w < 1 or h * w != self.width:
            raise ValueError(f"rows of {self.width} values are no "
                             f"{h} x {w} maps")
        rows = []
        for values in self.values.reshape(-1, h, w):
            grid = object.__new__(GridMap)
            object.__setattr__(grid, "values", values)
            rows.append(grid)
        return rows

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def is_binary(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))

    def to_json(self) -> dict:
        return {
            "h": self.height,
            "w": self.width,
            "data": self.values.ravel().tolist(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "GridMap":
        """Read the document to_json writes; raises ValueError unless it is
        an object whose h and w are integers >= 1 and whose data holds
        h * w numbers."""
        _object(d, "GridMap document")
        h, w = d.get("h"), d.get("w")
        if not _all_numbers([h, w], integers=True) or min(h, w) < 1:
            raise ValueError("GridMap h and w must be integers >= 1")
        data = _numbers(d.get("data"), "GridMap data")
        if len(data) != h * w:
            raise ValueError(f"GridMap data: {h} x {w} = {h * w} values, "
                             f"not {len(data)}")
        return cls(np.reshape(data, (h, w)))


def _require_rows(*maps: GridMap) -> None:
    """Raise ValueError unless the maps share one width and every height
    other than 1 is the same: each is an H x W map, or a 1 x W row that
    stands for every row of the others, as numpy broadcasts it."""
    shapes = [m.values.shape for m in maps]
    if len({w for _, w in shapes}) > 1 or len({h for h, _ in shapes} - {1}) > 1:
        raise ValueError(f"shape mismatch: {' vs '.join(map(str, shapes))}")


# the most terms, window offsets times cells, that local_correlation
# computes at once, 128 KB of them, unless one offset's map holds more; the
# occlusion test's block of start-cell pairs has the same size
_CORRELATION_BLOCK_TERMS = 1 << 14


def local_correlation(compressed: GridMap, window: int) -> GridMap:
    """Sigmoid-averaged discrepancy between each cell and its forward window.

    For cell (i, j), averages sigmoid(F[i+a, j+b] - F[i, j]) over the
    window x window block anchored at (i, j). Cells past the boundary use
    replicate-edge padding. Outputs lie in (0, 1); a constant map gives 0.5
    everywhere since every difference is zero.

    The terms of a block of offsets (a, b), in row-major order, are
    computed in whole-array steps on copies of the shifted maps, at most
    _CORRELATION_BLOCK_TERMS values or one offset's map at a time, so a
    window of any size allocates no more than that. Each offset's term map
    is then added to the sum one at a time in that order, so the sum is
    the same, bit for bit, as one that adds one shifted map per offset.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    f = compressed.values
    h, w = f.shape
    padded = np.pad(f, ((0, window - 1), (0, window - 1)), mode="edge")
    shifted = sliding_window_view(padded, (h, w))  # [a, b] is offset (a, b)'s
    offsets = window * window
    per_block = max(1, _CORRELATION_BLOCK_TERMS // f.size)
    acc = np.zeros((h, w), dtype=np.float64)
    for first in range(0, offsets, per_block):
        a, b = np.divmod(np.arange(first, min(first + per_block, offsets)),
                         window)
        terms = shifted[a, b]  # a contiguous copy, one map per offset
        terms -= f
        # sigmoid via tanh keeps large negative diffs from overflowing exp
        terms *= 0.5
        np.tanh(terms, out=terms)
        terms += 1.0
        terms *= 0.5
        for term in terms:
            acc += term
    return GridMap(acc / offsets)


def entropy_map(p: GridMap) -> GridMap:
    """Information density p*log(p) (natural log) of a correlation-score map.

    Inputs must lie strictly in (0, 1); outputs lie in [-1/e, 0).
    """
    vals = p.values
    if np.any(vals <= 0.0) or np.any(vals >= 1.0):
        raise ValueError("entropy_map requires values strictly in (0, 1)")
    return GridMap(vals * np.log(vals))


def info_mask(entropy: GridMap, eta: float) -> GridMap:
    """Binary mask keeping the ceil(eta * cells) largest entropy values.

    Larger (closer to zero) entropy marks high neighbor discrepancy; uniform
    regions score near -0.347 and are dropped first. Ties break toward the
    lower row-major cell index so the mask is reproducible.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    flat = entropy.values.ravel()
    n = flat.size
    # tiny slack so that eta * n landing on an integer is not bumped up by
    # float noise (e.g. 0.1 * 250 must keep exactly 25 cells)
    k = min(n, max(1, math.ceil(eta * n - 1e-9)))
    order = np.argsort(-flat, kind="stable")
    mask = np.zeros(n, dtype=np.float64)
    mask[order[:k]] = 1.0
    return GridMap(mask.reshape(entropy.values.shape))


def confidence_map(q_hvn: GridMap, q_user: GridMap) -> GridMap:
    """Per-cell confidence gap max(q_hvn - q_user, 0).

    Zero wherever the user is already at least as confident as the sender.
    Either map may be a 1 x W row against the other's H x W stack; the
    result then has the stack's shape, as if the row were repeated.
    """
    _require_rows(q_hvn, q_user)
    return GridMap(np.maximum(q_hvn.values - q_user.values, 0.0))


def build_moi(conf: GridMap, info: GridMap, roi: GridMap) -> GridMap:
    """Element-wise product of confidence gap, informativeness mask, and RoI.

    The result is zero wherever the cell is outside the RoI, judged
    uninformative, or needs no assistance; otherwise it carries the
    confidence gap as the cell's interest weight.

    Each map may be an H x W stack of per-user maps, one per row, or a
    1 x W row shared by every user, such as the informativeness mask of a
    whole scene: the product is H x W, the same bit for bit as if the row
    were repeated H times, while the binary check reads the row once.
    """
    _require_rows(conf, info, roi)
    if not info.is_binary():
        raise ValueError("info mask must be binary")
    if not roi.is_binary():
        raise ValueError("roi mask must be binary")
    return GridMap(conf.values * info.values * roi.values)
