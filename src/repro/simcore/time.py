"""Time units and helpers for the integer-nanosecond simulation clock.

All simulated time in this package is an ``int`` number of nanoseconds.
Using integers keeps event ordering exact (no float drift), which matters
because schedulers here make decisions at microsecond granularity over
simulated minutes.

The constants below convert the units the paper uses (µs, ms, s) into the
internal representation.  Prefer ``usec(5)`` over ``5 * USEC`` in user
code; the function form validates its input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

#: One nanosecond (the base unit).
NSEC: int = 1
#: One microsecond in nanoseconds.
USEC: int = 1_000
#: One millisecond in nanoseconds.
MSEC: int = 1_000_000
#: One second in nanoseconds.
SEC: int = 1_000_000_000

Number = Union[int, float, Fraction]


def _scale(value: Number, unit: int, name: str) -> int:
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError(f"{name}() expects a number, got bool")
    if isinstance(value, int):
        result = value * unit
    elif isinstance(value, Fraction):
        scaled = value * unit
        if scaled.denominator != 1:
            raise ValueError(f"{name}({value!r}) is not an integer nanosecond count")
        result = int(scaled)
    elif isinstance(value, float):
        scaled_f = value * unit
        result = round(scaled_f)
        if abs(scaled_f - result) > 0.5:  # pragma: no cover - defensive
            raise ValueError(f"{name}({value!r}) cannot be represented in ns")
    else:
        raise TypeError(f"{name}() expects int, float or Fraction, got {type(value).__name__}")
    return result


def nsec(value: Number) -> int:
    """Return *value* nanoseconds as an integer tick count."""
    return _scale(value, NSEC, "nsec")


def usec(value: Number) -> int:
    """Return *value* microseconds in nanoseconds."""
    return _scale(value, USEC, "usec")


def msec(value: Number) -> int:
    """Return *value* milliseconds in nanoseconds."""
    return _scale(value, MSEC, "msec")


def sec(value: Number) -> int:
    """Return *value* seconds in nanoseconds."""
    return _scale(value, SEC, "sec")


def to_usec(ticks: int) -> float:
    """Convert integer nanoseconds to (float) microseconds for reporting."""
    return ticks / USEC


def bandwidth(slice_ticks: int, period_ticks: int) -> Fraction:
    """Exact CPU bandwidth of a (slice, period) reservation.

    The result is a :class:`fractions.Fraction` so admission-control sums
    are exact; convert to float only when reporting.
    """
    if period_ticks <= 0:
        raise ValueError(f"period must be positive, got {period_ticks}")
    if slice_ticks < 0:
        raise ValueError(f"slice must be non-negative, got {slice_ticks}")
    return Fraction(slice_ticks, period_ticks)
