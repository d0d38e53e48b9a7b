"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.host.costs import ZERO_COSTS
from repro.simcore.engine import Engine
from repro.simcore.trace import Trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: What `repro run` leaves in its working directory by default.
RUN_OUTPUTS = ("runs", ".repro_cache")


def _run_outputs_at_root() -> dict:
    """Each run output at the repository root: its own and its entries'
    modification times, or None when absent."""
    found = {}
    for name in RUN_OUTPUTS:
        path = os.path.join(REPO_ROOT, name)
        if not os.path.isdir(path):
            found[name] = None
            continue
        found[name] = {
            entry.name: entry.stat().st_mtime_ns for entry in os.scandir(path)
        }
        found[name]["."] = os.stat(path).st_mtime_ns
    return found


@pytest.fixture(scope="session", autouse=True)
def _checkout_stays_clean():
    """Fail the session if it writes a run ledger or result cache at the
    repository root."""
    before = _run_outputs_at_root()
    yield
    after = _run_outputs_at_root()
    touched = [name for name in RUN_OUTPUTS if after[name] != before[name]]
    assert not touched, f"the test session wrote {touched} at {REPO_ROOT}"


@pytest.fixture(autouse=True)
def _scratch_working_directory(tmp_path_factory, monkeypatch):
    """Run each test in a fresh working directory, where `repro run`
    writes its default ``.repro_cache`` and ``runs``."""
    monkeypatch.chdir(tmp_path_factory.mktemp("cwd"))


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def trace() -> Trace:
    return Trace()


@pytest.fixture
def zero_costs():
    return ZERO_COSTS
