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
import sys
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
    numpy read as 1 or 0, is neither. Unless integers are asked for, an
    integer beyond the largest float, on which float() overflows, is no
    number either. Ranges are the caller's to check."""
    kind = numbers.Integral if integers else numbers.Real
    types = set(map(type, values))  # one pass; numpy scalars are numbers too
    if bool in types or not all(issubclass(t, kind) for t in types):
        return False
    # only a Python int outgrows a float; a float list skips the check
    return (integers or int not in types
            or all(abs(v) <= sys.float_info.max for v in values
                   if type(v) is int))


def _array(value, name: str) -> list:
    """value, after checking that it is a list (or a tuple), as a JSON
    array reads; iterating a scalar would raise TypeError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name}: a list, not {type(value).__name__}")
    return value


class _Document(dict):
    """A JSON object whose missing key is invalid input, as ValueError."""

    def __missing__(self, key):
        raise ValueError(f"missing key {key!r}")


def _object(value, name: str) -> dict:
    """A copy of value, after checking that it is a dict, as a JSON object
    reads; indexing a scalar would raise TypeError, and a list reads by
    position. Reading a key the copy lacks raises ValueError, so every
    reader raises ValueError, and only it, for an invalid document."""
    if not isinstance(value, dict):
        raise ValueError(f"{name}: a JSON object, not {type(value).__name__}")
    return _Document(value)


def _numbers(values: list, name: str, integers: bool = False) -> list:
    """values, after checking that they are a list and that its entries
    pass _all_numbers."""
    if not _all_numbers(_array(values, name), integers):
        bad = next(v for v in values if not _all_numbers([v], integers))
        kind = ("integers" if integers else "numbers within float range"
                if type(bad) is int else "numbers")
        raise ValueError(f"{name}: {kind} only, not {bad!r}")
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


def _item_costs(table: McsTable, bandwidth_hz: float,
                grid_bytes: float) -> list[float]:
    """Time (seconds) to transmit one grid of `grid_bytes` at each rate
    option of `table`, the one decision whether a payload and bandwidth
    are valid: raises ValueError unless every time is finite, positive
    and below the one before. Positive values fail only where a quotient
    overflows to inf, or rounds to 0 or to its neighbour's value."""
    # a rate that is not positive (a negative or NaN bandwidth, or a
    # subnormal one rounded to 0 Hz) costs inf
    costs = [BITS_PER_BYTE * grid_bytes / hz if hz > 0 else math.inf
             for hz in (bandwidth_hz * r for r in table.rates)]
    if not all(a > b for a, b in zip([math.inf, *costs], [*costs, 0.0])):
        raise ValueError("grid_bytes and bandwidth_hz give item costs that "
                         "are not finite, positive and strictly decreasing")
    return costs


def item_cost(rate_index: int, table: McsTable, bandwidth_hz: float,
              grid_bytes: float) -> float:
    """Time (seconds) to transmit one grid of `grid_bytes` at a rate option.

    Strictly decreasing in rate_index for fixed bandwidth and payload:
    _item_costs raises ValueError for a payload and bandwidth where not.
    """
    if not 0 <= rate_index < table.n_rates:
        raise IndexError(f"rate_index {rate_index} out of range for table "
                         f"with {table.n_rates} rates")
    return _item_costs(table, bandwidth_hz, grid_bytes)[rate_index]
