"""Tests for the aggregated arrival process (:class:`ArrivalMux`).

The mux's contract is exactness: routing open-loop clients through it
must not move, reorder, or drop a single arrival relative to per-client
engine events.  These tests pin that equivalence end to end (identical
latency samples and task stats with and without the mux) plus the
mechanism itself: one armed engine event, same-instant batching, and
re-arming when an earlier arrival preempts the head.
"""

import pytest

from repro.core.system import RTVirtSystem
from repro.guest.task import Task, TaskKind
from repro.host.costs import ZERO_COSTS
from repro.simcore.engine import Engine
from repro.simcore.errors import SimulationError
from repro.simcore.rng import RandomSource, RandomStreams
from repro.simcore.time import MSEC, SEC, msec, sec
from repro.workloads.arrivals import ArrivalMux
from repro.workloads.memcached import MemcachedService
from repro.workloads.sporadic import SporadicDriver


class TestMuxMechanism:
    def test_dispatch_order_and_single_armed_event(self):
        engine = Engine()
        mux = ArrivalMux(engine)
        fired = []
        mux.at(30, lambda: fired.append("c"))
        mux.at(10, lambda: fired.append("a"))  # preempts the armed head
        mux.at(20, lambda: fired.append("b"))
        assert engine.pending == 1  # one engine event no matter how many arrivals
        engine.run_until(100)
        assert fired == ["a", "b", "c"]
        assert len(mux) == 0

    def test_same_instant_arrivals_drain_in_schedule_order(self):
        engine = Engine()
        mux = ArrivalMux(engine)
        fired = []
        for tag in "abcde":
            mux.at(50, lambda t=tag: fired.append(t))
        engine.run_until(100)
        assert fired == list("abcde")
        assert mux.scheduled == 5 and mux.fires == 1

    def test_callback_scheduling_now_drains_same_fire(self):
        engine = Engine()
        mux = ArrivalMux(engine)
        fired = []

        def chain():
            fired.append("first")
            mux.at(engine.now, lambda: fired.append("second"))

        mux.at(5, chain)
        engine.run_until(10)
        assert fired == ["first", "second"]
        assert mux.fires == 1

    def test_rejects_past_arrival(self):
        engine = Engine()
        mux = ArrivalMux(engine)
        engine.at(10, lambda: None)
        engine.run_until(20)
        with pytest.raises(SimulationError):
            mux.at(5, lambda: None)


def _sporadic_system(shared_mux: bool):
    """Three sporadic RTAs on two PCPUs, muxed or per-client."""
    streams = RandomStreams(42)
    system = RTVirtSystem(pcpu_count=2, cost_model=ZERO_COSTS, slack_ns=0)
    mux = ArrivalMux(system.engine) if shared_mux else None
    tasks = []
    for i in range(3):
        vm = system.create_vm(f"vm{i}")
        task = Task(f"sp{i}", msec(2), msec(40), TaskKind.SPORADIC)
        vm.register_task(task)
        tasks.append(task)
        SporadicDriver(
            system.engine,
            vm,
            task,
            streams.stream(f"sp{i}"),
            min_interarrival_ns=100 * MSEC,
            max_interarrival_ns=SEC,
            mux=mux,
        ).start()
    system.run(sec(30))
    system.finalize()
    return [(t.stats.released, t.stats.met, t.stats.missed) for t in tasks]


def test_sporadic_mux_equivalence():
    """Muxed and per-client runs release and retire identical job sets."""
    assert _sporadic_system(True) == _sporadic_system(False)


def _memcached_system(shared_mux: bool):
    """Two memcached services on one PCPU (contended), muxed or not."""
    streams = RandomStreams(7)
    system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
    mux = ArrivalMux(system.engine) if shared_mux else None
    services = []
    for i in range(2):
        vm = system.create_vm(f"mc{i}", slack_ns=0)
        services.append(
            MemcachedService(
                system.engine,
                vm,
                streams.stream(f"mc{i}"),
                name=f"mc{i}",
                mux=mux,
            ).start()
        )
    system.run(sec(10))
    system.finalize()
    return [(s.requests_sent, s.latency.samples_ns) for s in services]


def test_memcached_mux_equivalence():
    """Per-request latencies are byte-identical with and without the mux.

    The services contend for one PCPU, so any reordering of arrivals
    relative to scheduler/completion events would shift at least one
    latency sample.
    """
    assert _memcached_system(True) == _memcached_system(False)


def test_synchronized_clients_compress_to_one_event_per_instant():
    """The client count stops being the event count.

    Ten clients with a deterministic (min == max) inter-arrival all
    request in lockstep waves; the mux must spend one engine event per
    wave, not one per client.
    """
    streams = RandomStreams(3)
    system = RTVirtSystem(pcpu_count=2, cost_model=ZERO_COSTS, slack_ns=0)
    mux = ArrivalMux(system.engine)
    drivers = []
    for i in range(10):
        vm = system.create_vm(f"vm{i}")
        task = Task(f"sp{i}", msec(1), msec(50), TaskKind.SPORADIC)
        vm.register_task(task)
        drivers.append(
            SporadicDriver(
                system.engine,
                vm,
                task,
                streams.stream(f"sp{i}"),
                min_interarrival_ns=200 * MSEC,
                max_interarrival_ns=200 * MSEC,
                mux=mux,
            ).start()
        )
    system.run(sec(4))
    waves = 20  # arrivals at 200 ms, 400 ms, ..., 4.0 s inclusive
    assert mux.scheduled >= 10 * waves
    assert mux.fires == waves
    assert all(d.requests_sent == waves for d in drivers)
