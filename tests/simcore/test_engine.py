"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore.engine import Engine
from repro.simcore.errors import SimulationError


class TestScheduling:
    def test_at_executes_in_order(self, engine):
        log = []
        engine.at(30, log.append, "c")
        engine.at(10, log.append, "a")
        engine.at(20, log.append, "b")
        engine.run_until(100)
        assert log == ["a", "b", "c"]

    def test_after_is_relative(self, engine):
        seen = []
        engine.at(10, lambda: engine.after(5, lambda: seen.append(engine.now)))
        engine.run_until(100)
        assert seen == [15]

    def test_clock_advances_to_horizon(self, engine):
        engine.run_until(500)
        assert engine.now == 500

    def test_schedule_in_past_rejected(self, engine):
        engine.at(50, lambda: None)
        engine.run_until(50)
        with pytest.raises(SimulationError):
            engine.at(40, lambda: None)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.after(-1, lambda: None)

    def test_run_until_past_rejected(self, engine):
        engine.run_until(100)
        with pytest.raises(SimulationError):
            engine.run_until(50)

    def test_events_beyond_horizon_not_run(self, engine):
        log = []
        engine.at(200, log.append, "late")
        engine.run_until(100)
        assert log == []
        assert engine.pending == 1
        engine.run_until(300)
        assert log == ["late"]


class TestSameInstant:
    def test_events_added_during_batch_run_same_instant(self, engine):
        log = []

        def outer():
            engine.at(engine.now, log.append, "inner")

        engine.at(10, outer)
        engine.run_until(20)
        assert log == ["inner"]
        assert engine.now == 20

    def test_post_hook_runs_once_per_instant(self, engine):
        hooks = []
        engine.add_post_hook(lambda: hooks.append(engine.now))
        engine.at(10, lambda: None)
        engine.at(10, lambda: None)
        engine.at(20, lambda: None)
        engine.run_until(30)
        # One hook call per batch; the same-instant re-entry after a hook
        # may add another batch at the same time only if events appeared.
        assert hooks == [10, 20]

    def test_reserved_seq_ties_as_if_pushed_then(self, engine):
        log = []
        seq = engine.reserve_seq()
        engine.at(10, log.append, "pushed first", priority=10)
        engine.at(10, log.append, "reserved first", priority=10, seq=seq)
        engine.run_until(20)
        assert log == ["reserved first", "pushed first"]

    def test_cancel_pending_event(self, engine):
        log = []
        event = engine.at(10, log.append, "x")
        engine.cancel(event)
        engine.run_until(20)
        assert log == []

    def test_cancel_none_is_noop(self, engine):
        engine.cancel(None)


class TestStepping:

    def test_events_processed_counter(self, engine):
        for t in (1, 2, 3):
            engine.at(t, lambda: None)
        engine.run_until(10)
        assert engine.events_processed == 3

    def test_not_reentrant(self, engine):
        def recurse():
            engine.run_until(100)

        engine.at(1, recurse)
        with pytest.raises(SimulationError):
            engine.run_until(10)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build():
            e = Engine()
            log = []
            for t in (5, 3, 9, 3, 7):
                e.at(t, lambda t=t: log.append((e.now, t)))
            e.run_until(20)
            return log

        assert build() == build()
