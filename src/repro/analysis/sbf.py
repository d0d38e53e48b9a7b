"""Supply bound functions for the periodic resource model.

A periodic resource Γ = (Π, Θ) provides Θ units of CPU every Π units of
time, at arbitrary points inside each period.  ``sbf(Γ, t)`` is the
*minimum* supply any interval of length *t* is guaranteed (Shin & Lee,
RTSS'03) — the worst case being a budget delivered at the very start of
one period followed by one at the very end of the next, leaving a gap of
``2(Π − Θ)``.

This is the model underlying CARTS and RT-Xen's deferrable-server
interfaces; its pessimism relative to the task set's raw utilization is
exactly the bandwidth waste Figure 3 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcore.errors import ConfigurationError


@dataclass(frozen=True)
class PeriodicResource:
    """A (period, budget) virtual processor, in ns."""

    period: int
    budget: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if not 0 <= self.budget <= self.period:
            raise ConfigurationError(
                f"budget {self.budget} must lie in [0, period={self.period}]"
            )

    @property
    def bandwidth(self) -> float:
        return self.budget / self.period


def sbf(resource: PeriodicResource, t: int) -> int:
    """Minimum guaranteed supply of *resource* in an interval of length *t*."""
    if t < 0:
        raise ConfigurationError(f"negative interval {t}")
    period, budget = resource.period, resource.budget
    if budget == 0:
        return 0
    y = t - (period - budget)
    if y < 0:
        return 0
    k = y // period
    return k * budget + max(0, y - k * period - (period - budget))
