"""Unit tests for the periodic workload driver and Table 1 data."""

from fractions import Fraction

import pytest

from repro.guest.task import Task
from repro.guest.vm import VM
from repro.simcore.engine import Engine
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec, sec
from repro.workloads.periodic import (
    TABLE1_GROUPS,
    TABLE5_GROUPS,
    PeriodicDriver,
    RTASpec,
)


class TestTableData:
    def test_six_groups_of_four(self):
        assert len(TABLE1_GROUPS) == 6
        assert all(len(specs) == 4 for specs in TABLE1_GROUPS.values())

    def test_harmonic_groups_have_harmonic_periods(self):
        for group in ("H-Equiv", "H-Dec", "H-Inc"):
            periods = [s.period_ms for s in TABLE1_GROUPS[group]]
            base = min(periods)
            assert all(p % base == 0 or base % p == 0 or p % 20 == 0 for p in periods)

    def test_group_utilizations_around_two_cpus(self):
        for group, specs in TABLE1_GROUPS.items():
            total = sum(s.utilization for s in specs)
            assert 1.9 < total < 2.1, group

    def test_table5_has_ten_groups(self):
        assert len(TABLE5_GROUPS) == 10

    def test_spec_conversions(self):
        spec = RTASpec(13, 20)
        assert spec.slice_ns == msec(13)
        assert spec.period_ns == msec(20)
        assert spec.utilization == pytest.approx(0.65)


class TestDriver:
    def _setup(self, phase=0, until=None):
        engine = Engine()
        vm = VM("vm")
        task = Task("t", msec(1), msec(10))
        vm.register_task(task)
        driver = PeriodicDriver(engine, vm, task, phase_ns=phase, until=until)
        return engine, vm, task, driver

    def test_releases_every_period(self):
        engine, vm, task, driver = self._setup()
        driver.start()
        engine.run_until(msec(55))
        assert task.stats.released == 6  # t = 0, 10, ..., 50

    def test_phase_offsets_first_release(self):
        engine, vm, task, driver = self._setup(phase=msec(3))
        driver.start()
        engine.run_until(msec(25))
        assert task.stats.released == 3  # 3, 13, 23
        assert task.pending[0].release == msec(3)

    def test_until_stops_releases(self):
        engine, vm, task, driver = self._setup(until=msec(25))
        driver.start()
        engine.run_until(msec(100))
        assert task.stats.released == 3  # 0, 10, 20

    def test_stop_cancels(self):
        engine, vm, task, driver = self._setup()
        driver.start()
        engine.at(msec(15), driver.stop)
        engine.run_until(msec(100))
        assert task.stats.released == 2

    def test_negative_phase_rejected(self):
        with pytest.raises(ConfigurationError):
            self._setup(phase=-1)
