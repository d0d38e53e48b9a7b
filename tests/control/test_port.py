"""Unit tests for the actuation port (the executor registry)."""

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
