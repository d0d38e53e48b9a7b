"""The calendar event queue against the reference heap, end to end.

The engine builds :class:`repro.simcore.events.EventQueue`, a calendar
queue.  These tests patch the engine to build the single-heap oracle
from :mod:`tests.simcore.heap_queue` instead and rerun registry
experiments and recorded robustness traces: every metric-row hash and
every trace hash must be identical under both queues.
"""

import pytest

from repro.runner.executor import execute_plan
from repro.runner.ledger import rows_hash
from repro.runner.workunits import execute_unit, observed_smoke_plans, plan_for
from repro.simcore.engine import Engine
from repro.telemetry.record import TraceReader
from tests.simcore.heap_queue import HeapEventQueue

#: Smoke variants spanning periodic and sporadic renegotiation, every
#: robustness fault path that cancels timers en masse, a multi-host
#: cluster and the feedback controller.
SMOKE_IDS = (
    "table1",
    "sporadic",
    "robustness_pcpu_fail",
    "robustness_vm_churn",
    "robustness_hypercall",
    "cluster_hostfail",
    "feedback_overrun",
)


def _on_heap(monkeypatch, fn):
    """Call *fn* with every new engine built on the heap oracle."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.simcore.engine.EventQueue", HeapEventQueue)
        return fn()


def test_patch_reaches_the_engine(monkeypatch):
    assert isinstance(_on_heap(monkeypatch, Engine)._queue, HeapEventQueue)
    assert not isinstance(Engine()._queue, HeapEventQueue)


@pytest.mark.parametrize("experiment_id", SMOKE_IDS)
def test_smoke_rows_identical_on_heap(monkeypatch, experiment_id):
    def digest():
        return rows_hash(execute_plan(plan_for(experiment_id, smoke=True)).rows())

    assert _on_heap(monkeypatch, digest) == digest()


@pytest.mark.parametrize("scheduler", ["RTVirt", "RT-Xen", "Credit"])
@pytest.mark.parametrize("fault", ["pcpu_fail", "vm_churn"])
def test_trace_hash_identical_on_heap(monkeypatch, fault, scheduler):
    (plan,) = observed_smoke_plans([f"robustness_{fault}"], ("record",))
    (unit,) = [u for u in plan.units if u.unit_id.endswith(f"/{scheduler}")]

    def trace_hash():
        _, outputs = execute_unit(unit)
        (recorded,) = outputs["record"]
        return TraceReader(recorded["data"]).trace_hash

    assert _on_heap(monkeypatch, trace_hash) == trace_hash()
