"""Unit tests for the actuation port (executor registry + observer tap)."""

import pytest

from repro.control import actions as A
from repro.control.port import ActuationPort
from repro.simcore.errors import ConfigurationError


def make_action(**fields):
    """A minimal concrete action for registry tests."""
    return A.ShedToCapacity(admission=fields.get("admission"))


class TestRegistry:
    def test_submit_returns_executor_result(self):
        port = ActuationPort()
        port.register("shed", lambda a: ["r1", "r2"])
        assert port.submit(make_action()) == ["r1", "r2"]

    def test_missing_executor_raises(self):
        port = ActuationPort()
        with pytest.raises(ConfigurationError, match="shed"):
            port.submit(make_action())

    def test_latest_registration_wins(self):
        port = ActuationPort()
        port.register("shed", lambda a: "old")
        port.register("shed", lambda a: "new")
        assert port.submit(make_action()) == "new"


class TestObservers:
    def test_observer_sees_action_and_result(self):
        port = ActuationPort()
        port.register("shed", lambda a: 42)
        seen = []
        port.observe(lambda action, result: seen.append((action, result)))
        action = make_action()
        port.submit(action)
        assert seen == [(action, 42)]

    def test_observers_run_after_executor_in_order(self):
        port = ActuationPort()
        calls = []
        port.register("shed", lambda a: calls.append("exec"))
        port.observe(lambda a, r: calls.append("obs1"))
        port.observe(lambda a, r: calls.append("obs2"))
        port.submit(make_action())
        assert calls == ["exec", "obs1", "obs2"]

    def test_unsubscribe(self):
        port = ActuationPort()
        port.register("shed", lambda a: None)
        seen = []
        cancel = port.observe(lambda a, r: seen.append(a))
        port.submit(make_action())
        cancel()
        cancel()  # idempotent
        port.submit(make_action())
        assert len(seen) == 1


class TestActionShapes:
    def test_every_action_kind_is_unique(self):
        kinds = [
            A.IncBandwidth.kind,
            A.DecBandwidth.kind,
            A.AdmitRequest.kind,
            A.AdmitDecrease.kind,
            A.AdmitRelease.kind,
            A.ShedToCapacity.kind,
            A.FailPcpu.kind,
            A.RecoverPcpu.kind,
            A.MigrateVM.kind,
            A.RebalanceCluster.kind,
        ]
        assert len(set(kinds)) == len(kinds)

    def test_actions_are_frozen(self):
        action = A.FailPcpu(system=None, pcpu_index=0)
        with pytest.raises(Exception):
            action.pcpu_index = 1
