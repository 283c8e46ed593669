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


@dataclass(frozen=True)
class GridMap:
    """An H x W map of real values (feature, confidence, mask, or weight)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("GridMap requires a 2-D array with H, W >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("GridMap values must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

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
        arr = np.asarray(d["data"], dtype=np.float64).reshape(d["h"], d["w"])
        return cls(arr)


def _require_same_shape(a: GridMap, b: GridMap) -> None:
    if a.values.shape != b.values.shape:
        raise ValueError(f"shape mismatch: {a.values.shape} vs {b.values.shape}")


def local_correlation(compressed: GridMap, window: int = 5) -> GridMap:
    """Sigmoid-averaged discrepancy between each cell and its forward window.

    For cell (i, j), averages sigmoid(F[i+a, j+b] - F[i, j]) over the
    window x window block anchored at (i, j). Cells past the boundary use
    replicate-edge padding. Outputs lie in (0, 1); a constant map gives 0.5
    everywhere since every difference is zero.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    f = compressed.values
    h, w = f.shape
    padded = np.pad(f, ((0, window - 1), (0, window - 1)), mode="edge")
    acc = np.zeros((h, w), dtype=np.float64)
    for a in range(window):
        for b in range(window):
            diff = padded[a:a + h, b:b + w] - f
            # sigmoid via tanh keeps large negative diffs from overflowing exp
            acc += 0.5 * (1.0 + np.tanh(0.5 * diff))
    return GridMap(acc / (window * window))


def entropy_map(p: GridMap) -> GridMap:
    """Information density p*log(p) (natural log) of a correlation-score map.

    Inputs must lie strictly in (0, 1); outputs lie in [-1/e, 0).
    """
    vals = p.values
    if np.any(vals <= 0.0) or np.any(vals >= 1.0):
        raise ValueError("entropy_map requires values strictly in (0, 1)")
    return GridMap(vals * np.log(vals))


def info_mask(entropy: GridMap, eta: float = 0.5) -> GridMap:
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
    """
    _require_same_shape(q_hvn, q_user)
    return GridMap(np.maximum(q_hvn.values - q_user.values, 0.0))


def build_moi(conf: GridMap, info: GridMap, roi: GridMap) -> GridMap:
    """Element-wise product of confidence gap, informativeness mask, and RoI.

    The result is zero wherever the cell is outside the RoI, judged
    uninformative, or needs no assistance; otherwise it carries the
    confidence gap as the cell's interest weight.
    """
    _require_same_shape(conf, info)
    _require_same_shape(conf, roi)
    if not info.is_binary():
        raise ValueError("info mask must be binary")
    if not roi.is_binary():
        raise ValueError("roi mask must be binary")
    return GridMap(conf.values * info.values * roi.values)
