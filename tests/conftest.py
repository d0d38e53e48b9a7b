"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.host.costs import ZERO_COSTS
from repro.simcore.engine import Engine
from repro.simcore.trace import Trace


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def trace() -> Trace:
    return Trace()


@pytest.fixture
def zero_costs():
    return ZERO_COSTS

