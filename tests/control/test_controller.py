"""Tests for the blame-driven feedback controller.

Classification follows the offline blame taxonomy's precedence; the
actuations it emits go through the port and must land in the admission
state and the VCPU parameters; and a *broken* policy that bypasses
admission must be caught by the invariant checker, not silently trusted.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.control import actions as A
from repro.control.controller import (
    EXHAUSTION,
    HYPERCALL_FAULT,
    PREEMPTION,
    THROTTLE,
    FeedbackController,
)
from repro.control.tenants import CreditLedger, TenantSLO
from repro.core.system import RTVirtSystem
from repro.faults import InvariantChecker, InvariantViolation
from repro.guest.task import Task
from repro.host.costs import ZERO_COSTS
from repro.simcore.time import msec


def rtvirt(pcpus=1):
    return RTVirtSystem(pcpu_count=pcpus, cost_model=ZERO_COSTS, slack_ns=0)


def vm_with_rta(system, name, runtime_ms, period_ms):
    vm = system.create_vm(name)
    task = Task(f"{name}.rta", msec(runtime_ms), msec(period_ms))
    vm.register_task(task)
    return vm, task.vcpu


class TestClassification:
    """Precedence: shed > deplete > fault > inferred exhaustion > cap."""

    def vcpu(self, budget_ms=2, period_ms=10):
        return SimpleNamespace(
            name="v", budget_ns=msec(budget_ms), period_ns=msec(period_ms)
        )

    def test_shed_beats_everything(self):
        ctl = FeedbackController(system=None)
        ctl._shed_vcpus.add("v")
        ctl._depletes["v"] = 3
        ctl._fault_seen = True
        assert ctl._classify(self.vcpu()) == THROTTLE

    def test_deplete_beats_fault(self):
        ctl = FeedbackController(system=None)
        ctl._depletes["v"] = 1
        ctl._fault_seen = True
        assert ctl._classify(self.vcpu()) == EXHAUSTION

    def test_fault_window(self):
        ctl = FeedbackController(system=None)
        ctl._fault_seen = True
        assert ctl._classify(self.vcpu()) == HYPERCALL_FAULT

    def test_growable_reservation_is_inferred_exhaustion(self):
        ctl = FeedbackController(system=None)
        assert ctl._classify(self.vcpu(budget_ms=2)) == EXHAUSTION

    def test_at_cap_is_displacement(self):
        ctl = FeedbackController(system=None)
        assert ctl._classify(self.vcpu(budget_ms=10)) == PREEMPTION


class TestBump:
    def test_bump_grows_budget_one_step(self):
        system = rtvirt()
        vm, vcpu = vm_with_rta(system, "vm", 4, 10)
        ctl = FeedbackController(system)
        before = vcpu.budget_ns
        ctl._bump(vm, vcpu, now=0)
        assert vcpu.budget_ns == before * 5 // 4
        assert system.admission.granted(vcpu) == Fraction(
            vcpu.budget_ns, vcpu.period_ns
        )
        assert ctl.actions[-1] == (0, EXHAUSTION, vcpu.name, "inc_bw")

    def test_bump_converges_to_the_period_cap(self):
        system = rtvirt()
        vm, vcpu = vm_with_rta(system, "vm", 2, 10)
        ctl = FeedbackController(system)
        for _ in range(20):
            ctl._bump(vm, vcpu, now=0)
        assert vcpu.budget_ns == vcpu.period_ns
        assert ctl.action_counts()["at-cap"] > 0
        # Multiplicative steps: the cap is reached in few actuations.
        assert ctl.action_counts()["inc_bw"] < 12

    def test_bump_without_ledger_reports_rejection(self):
        system = rtvirt()
        vm_a, vcpu_a = vm_with_rta(system, "vm_a", 6, 10)
        vm_with_rta(system, "vm_b", 4, 10)  # host is now full
        ctl = FeedbackController(system)
        ctl._bump(vm_a, vcpu_a, now=0)
        assert ctl.actions[-1][3] == "rejected"
        assert vcpu_a.budget_ns == msec(6)  # nothing changed

    def test_bump_with_ledger_sheds_cheapest_tenant(self):
        system = rtvirt()
        vm_a, vcpu_a = vm_with_rta(system, "g0", 6, 10)
        vm_b, vcpu_b = vm_with_rta(system, "b0", 4, 10)
        ledger = CreditLedger(
            [TenantSLO("gold", 500.0, weight=4), TenantSLO("bronze", 500.0)],
            {"g0": "gold", "b0": "bronze"},
        )
        ctl = FeedbackController(system, ledger=ledger)
        ctl._bump(vm_a, vcpu_a, now=0)
        # Bronze paid for gold's growth, through bronze's own port.
        assert system.admission.granted(vcpu_b) == 0
        assert vcpu_a.budget_ns == msec(6) * 5 // 4
        counts = ctl.action_counts()
        assert counts["shed_tenant"] == 1 and counts["inc_bw"] == 1


class TestReclaim:
    def test_readmit_after_shed(self):
        system = rtvirt(pcpus=2)
        # Attach first so the controller sees the registration-time
        # VCPU_PARAMS events (they seed the parameters to re-admit).
        ctl = FeedbackController(system).attach()
        vm_a = system.create_vm("vm_a")
        task_a = Task("vm_a.rta", msec(6), msec(10))
        vm_a.register_task(task_a)
        vm_b, vcpu_b = vm_with_rta(system, "vm_b", 6, 10)
        system.fail_pcpu(1)  # capacity 1 vs 1.2 granted: vm_b sheds
        assert system.admission.granted(vcpu_b) == 0
        assert vcpu_b.name in ctl._shed_vcpus  # the evidence stream saw it
        vm_a.unregister_task(task_a)  # headroom returns
        ctl._reclaim(vm_b, vcpu_b, now=system.engine.now)
        assert ctl.actions[-1][3] == "readmit"
        assert system.admission.granted(vcpu_b) == Fraction(3, 5)
        assert vcpu_b.budget_ns == msec(6)
        ctl.detach()

    def test_reclaim_without_params_is_a_noop(self):
        system = rtvirt()
        vm, vcpu = vm_with_rta(system, "vm", 2, 10)
        ctl = FeedbackController(system)  # never attached: no params seen
        ctl._reclaim(vm, vcpu, now=0)
        assert ctl.actions[-1][3] == "no-params"


class TestWiring:
    def test_attach_ticks_and_detach_stops(self):
        system = rtvirt()
        vm_with_rta(system, "vm", 2, 10)
        ctl = FeedbackController(system, period_ns=msec(5)).attach()
        system.run(msec(20))
        assert ctl._tick_event is not None
        ctl.detach()
        assert ctl._tick_event is None
        system.run(msec(20))  # no tick fires after detach

    def test_action_counts_keys_sorted(self):
        ctl = FeedbackController(system=None)
        ctl.actions = [(0, "", "", "wait"), (0, "", "", "inc_bw")]
        assert list(ctl.action_counts()) == ["inc_bw", "wait"]


class TestBrokenController:
    """A policy that bypasses admission must trip the invariant checker.

    The port's latest-wins registration is what lets an experiment (or a
    bug) replace a mechanism; the capacity invariant is the backstop
    that keeps a rogue replacement from silently over-committing the
    host.
    """

    def test_over_admitting_executor_trips_capacity(self):
        system = rtvirt()

        def rogue_admit(action):
            # Force-commit the batch without the utilization test.
            for vcpu, budget_ns, period_ns in action.updates:
                action.admission._granted[vcpu.uid] = Fraction(
                    budget_ns, period_ns
                )
            return True

        system.control.register(A.AdmitRequest.kind, rogue_admit)
        InvariantChecker(system).attach()
        vm_with_rta(system, "vm_a", 7, 10)
        vm_with_rta(system, "vm_b", 7, 10)  # 1.4 CPUs on a 1-CPU host
        assert system.admission.total_granted > system.admission.capacity
        with pytest.raises(InvariantViolation) as exc:
            system.run(msec(20))
        assert exc.value.rule == "capacity"

    def test_honest_executor_passes_the_same_workload(self):
        from repro.simcore.errors import AdmissionError

        system = rtvirt()
        InvariantChecker(system).attach()
        vm_with_rta(system, "vm_a", 7, 10)
        with pytest.raises(AdmissionError):  # honest admission refuses
            vm_with_rta(system, "vm_b", 7, 10)
        assert system.admission.total_granted <= system.admission.capacity
        system.run(msec(20))  # no violation
