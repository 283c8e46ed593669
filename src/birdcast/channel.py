"""Adaptive MCS downlink model.

Holds the rate options with their SNR decoding thresholds and the
transmission cost of sending one grid at a given rate. The threshold model
is deterministic: a rate is decodable exactly when the received SNR meets
its lower bound, so the decodable set is always a prefix of the
(ascending) rate indices, and ProblemInstance.top_rate, its last index,
holds it per user.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class McsTable:
    """Paired rate options (bits/s/Hz) and SNR decoding thresholds (dB).

    Both sequences are strictly increasing and of equal length, which makes
    decodability sets nested: anyone who can decode rate m can decode every
    slower rate below it.
    """

    rates: tuple[float, ...]
    thresholds_db: tuple[float, ...]

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        thresholds = tuple(float(t) for t in self.thresholds_db)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "thresholds_db", thresholds)
        if len(rates) < 1 or len(rates) != len(thresholds):
            raise ValueError("rates and thresholds_db must have equal length >= 1")
        if not all(math.isfinite(v) for v in rates + thresholds):
            raise ValueError("rates and thresholds_db must be finite")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("rates must be strictly increasing")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds_db must be strictly increasing")
        if rates[0] <= 0.0:
            raise ValueError("rates must be positive")

    @property
    def n_rates(self) -> int:
        return len(self.rates)

    def to_json(self) -> list[dict[str, float]]:
        return [
            {"rate": r, "threshold_db": t}
            for r, t in zip(self.rates, self.thresholds_db)
        ]

    @classmethod
    def from_json(cls, entries: list[dict[str, float]]) -> "McsTable":
        entries = [_object(e, "mcs_table") for e in _array(entries, "mcs_table")]
        return cls(
            rates=_numbers([e["rate"] for e in entries], "mcs_table rate"),
            thresholds_db=_numbers([e["threshold_db"] for e in entries],
                                   "mcs_table threshold_db"),
        )


def _all_numbers(values: list, integers: bool = False) -> bool:
    """Whether every entry of values, a list read from JSON, is a number
    (an integer when `integers`); a JSON true or false, which float() and
    numpy read as 1 or 0, is neither. Ranges are the caller's to check."""
    kind = numbers.Integral if integers else numbers.Real
    types = set(map(type, values))  # one pass; numpy scalars are numbers too
    return bool not in types and all(issubclass(t, kind) for t in types)


def _array(value, name: str) -> list:
    """value, after checking that it is a list (or a tuple), as a JSON
    array reads; iterating a scalar would raise TypeError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name}: a list, not {type(value).__name__}")
    return value


def _object(value, name: str) -> dict:
    """value, after checking that it is a dict, as a JSON object reads;
    indexing a scalar would raise TypeError, and a list reads by position."""
    if not isinstance(value, dict):
        raise ValueError(f"{name}: a JSON object, not {type(value).__name__}")
    return value


def _numbers(values: list, name: str, integers: bool = False) -> list:
    """values, after checking that they are a list and that its entries
    pass _all_numbers."""
    if not _all_numbers(_array(values, name), integers):
        bad = next(v for v in values if not _all_numbers([v], integers))
        raise ValueError(f"{name}: {'integers' if integers else 'numbers'} "
                         f"only, not {bad!r}")
    return values


# Default 14-option table used throughout; custom tables are accepted
# anywhere an McsTable is taken, provided the invariants hold.
DEFAULT_MCS_TABLE = McsTable(
    rates=(0.31, 0.49, 0.74, 1.03, 1.33, 1.48, 1.91,
           2.41, 2.57, 3.03, 3.61, 4.21, 4.82, 5.33),
    thresholds_db=(-4.0, -1.0, 2.5, 5.5, 8.5, 10.5, 13.0,
                   16.0, 18.0, 20.5, 24.0, 27.0, 30.0, 33.0),
)

# Grid payload sizes follow the networking convention 1 KB = 1000 bytes.
BITS_PER_BYTE = 8


def item_cost(rate_index: int, table: McsTable, bandwidth_hz: float,
              grid_bytes: float) -> float:
    """Time (seconds) to transmit one grid of `grid_bytes` at a rate option.

    Strictly decreasing in rate_index for fixed bandwidth and payload.
    """
    if not 0 <= rate_index < table.n_rates:
        raise IndexError(f"rate_index {rate_index} out of range for table "
                         f"with {table.n_rates} rates")
    if grid_bytes <= 0:
        raise ValueError("grid_bytes must be positive")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be positive")
    return BITS_PER_BYTE * grid_bytes / (bandwidth_hz * table.rates[rate_index])
