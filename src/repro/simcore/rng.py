"""Seeded random streams for reproducible experiments.

Every stochastic element of an experiment (each workload's arrival
process, each service-time distribution, the dynamic-RTA churn, ...)
draws from its own named stream derived from the experiment seed, so
adding a new random consumer never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


class RandomSource:
    """A named, independently seeded wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, name: str) -> None:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.name = name
        self.seed = seed

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return self._rng.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        return self._rng.uniform(low, high)

    def normal_positive(self, mean: float, stddev: float, floor: float = 0.0) -> float:
        """Gaussian sample clamped below at *floor* (inter-arrival times)."""
        return max(floor, self._rng.gauss(mean, stddev))

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal sample (natural-log parameters)."""
        return self._rng.lognormvariate(mu, sigma)

    def choice(self, items):
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(items)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(items)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()


class RandomStreams:
    """Factory of independent named :class:`RandomSource` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._issued: dict = {}

    def stream(self, name: str) -> RandomSource:
        """Return the stream for *name*, creating it on first use."""
        if name not in self._issued:
            self._issued[name] = RandomSource(self.seed, name)
        return self._issued[name]

    def streams(self, prefix: str, count: int) -> Iterator[RandomSource]:
        """Yield ``count`` independent streams named ``prefix[i]``."""
        for i in range(count):
            yield self.stream(f"{prefix}[{i}]")
