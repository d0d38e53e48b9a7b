"""Unit tests for the shared-memory deadline page."""

from repro.core.shared_memory import SharedMemoryPage
from repro.guest.task import Task, TaskKind
from repro.guest.vm import VM
from repro.simcore.time import msec


def make_vcpu_with_task(period_ms=10, kind=TaskKind.PERIODIC):
    vm = VM(f"vm-{kind.value}-{period_ms}")
    task = Task("t", msec(1), msec(period_ms), kind)
    vm.register_task(task)
    return vm.vcpus[0], task


class TestPage:
    def test_map_and_read(self):
        page = SharedMemoryPage()
        vcpu, task = make_vcpu_with_task()
        page.map_vcpu(vcpu)
        task.release_job(now=0)
        assert page.read(vcpu, 0) == msec(10)

    def test_read_unmapped_returns_none(self):
        page = SharedMemoryPage()
        vcpu, _ = make_vcpu_with_task()
        assert page.read(vcpu, 0) is None

    def test_unmap(self):
        page = SharedMemoryPage()
        vcpu, _ = make_vcpu_with_task()
        page.map_vcpu(vcpu)
        page.unmap_vcpu(vcpu)
        assert len(page) == 0

    def test_earliest_across_vcpus(self):
        page = SharedMemoryPage()
        v1, t1 = make_vcpu_with_task(period_ms=20)
        v2, t2 = make_vcpu_with_task(period_ms=10)
        page.map_vcpu(v1)
        page.map_vcpu(v2)
        t1.release_job(now=0)
        t2.release_job(now=0)
        assert page.earliest(0) == msec(10)

    def test_earliest_empty_page(self):
        assert SharedMemoryPage().earliest(0) is None

    def test_read_all_ordered_by_uid(self):
        page = SharedMemoryPage()
        v1, t1 = make_vcpu_with_task()
        v2, t2 = make_vcpu_with_task()
        page.map_vcpu(v2)
        page.map_vcpu(v1)
        t1.release_job(now=0)
        t2.release_job(now=0)
        uids = [v.uid for v, _ in page.read_all(0)]
        assert uids == sorted(uids)

    def test_custom_provider(self):
        page = SharedMemoryPage()
        vcpu, _ = make_vcpu_with_task()
        page.map_vcpu(vcpu, provider=lambda now: now + 42)
        assert page.read(vcpu, 100) == 142

    def test_sporadic_worst_case_published(self):
        page = SharedMemoryPage()
        vcpu, task = make_vcpu_with_task(kind=TaskKind.SPORADIC)
        page.map_vcpu(vcpu)
        # Never released: worst case is arrival now, deadline one period out.
        assert page.read(vcpu, msec(3)) == msec(13)

    def test_reads_counted(self):
        page = SharedMemoryPage()
        vcpu, _ = make_vcpu_with_task()
        page.map_vcpu(vcpu)
        page.read(vcpu, 0)
        page.earliest(0)
        assert page.reads == 2
