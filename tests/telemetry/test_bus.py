"""Unit tests for the telemetry bus (pub/sub + zero-subscriber path)."""

import random

import pytest

from repro.telemetry import TelemetryBus
from repro.telemetry import events as T


class ListCopyBus:
    """The bus as it was before copy-on-write handler tuples: a list per
    kind, copied on every publish.  The reference for delivery order."""

    def __init__(self):
        self._subscribers = {}

    def subscribe(self, kind, handler):
        self._subscribers.setdefault(kind, []).append(handler)
        removed = False

        def unsubscribe():
            nonlocal removed
            if removed:
                return
            removed = True
            handlers = self._subscribers.get(kind)
            if handlers is None:
                return
            try:
                handlers.remove(handler)
            except ValueError:
                return
            if not handlers:
                del self._subscribers[kind]

        return unsubscribe

    def publish(self, kind, event):
        handlers = self._subscribers.get(kind)
        if handlers is None:
            return
        for handler in list(handlers):
            handler(event)


def churning_deliveries(bus, seed):
    """Publish 200 events on *bus* while handlers (un)subscribe handlers,
    themselves included, in the middle of deliveries; the delivery log."""
    rng = random.Random(seed)
    log = []
    cancels = []
    kinds = ("a", "b")

    def make(name):
        def handler(event):
            log.append((name, event))
            roll = rng.random()
            if roll < 0.3 and cancels:
                cancels.pop(rng.randrange(len(cancels)))()
            elif roll < 0.6 and len(cancels) < 10:
                cancels.append(bus.subscribe(rng.choice(kinds), rng.choice(handlers)))

        return handler

    handlers = [make(f"h{i}") for i in range(4)]
    for kind in kinds:  # never cancelled, so the churn never dies out
        bus.subscribe(kind, make(f"anchor-{kind}"))
    for handler in handlers:
        cancels.append(bus.subscribe(rng.choice(kinds), handler))
    for event in range(200):
        bus.publish(rng.choice(kinds), event)
    return log


class TestSubscribe:
    def test_publish_delivers_in_subscription_order(self):
        bus = TelemetryBus()
        order = []
        bus.subscribe("k", lambda e: order.append(("a", e)))
        bus.subscribe("k", lambda e: order.append(("b", e)))
        bus.publish("k", 1)
        assert order == [("a", 1), ("b", 1)]

    def test_publish_without_subscribers_is_a_noop(self):
        bus = TelemetryBus()
        bus.publish("nobody-listens", object())  # must not raise

    def test_kinds_are_independent(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.publish("b", "wrong-kind")
        bus.publish("a", "right-kind")
        assert seen == ["right-kind"]

    def test_unsubscribe_removes_handler(self):
        bus = TelemetryBus()
        seen = []
        cancel = bus.subscribe("k", seen.append)
        bus.publish("k", 1)
        cancel()
        bus.publish("k", 2)
        assert seen == [1]

    def test_unsubscribe_is_idempotent(self):
        bus = TelemetryBus()
        handler = lambda e: None  # noqa: E731
        first = bus.subscribe("k", handler)
        second = bus.subscribe("k", handler)
        first()
        first()  # second call must not remove the other registration
        assert bus.has_subscribers("k")
        second()
        assert not bus.has_subscribers("k")

    def test_handler_may_unsubscribe_itself_during_publish(self):
        bus = TelemetryBus()
        seen = []
        cancels = []

        def once(event):
            seen.append(event)
            cancels[0]()

        cancels.append(bus.subscribe("k", once))
        bus.subscribe("k", seen.append)
        bus.publish("k", 1)
        bus.publish("k", 2)
        assert seen == [1, 1, 2]

    def test_handler_may_unsubscribe_another_during_publish(self):
        bus = TelemetryBus()
        seen = []
        cancels = {}

        def first(event):
            seen.append(("first", event))
            cancels["last"]()

        def middle(event):
            seen.append(("middle", event))
            cancels["first"]()

        cancels["first"] = bus.subscribe("k", first)
        bus.subscribe("k", middle)
        cancels["last"] = bus.subscribe("k", lambda e: seen.append(("last", e)))
        bus.publish("k", 1)
        bus.publish("k", 2)
        # Both removals land after delivery 1 reached every handler.
        assert seen == [("first", 1), ("middle", 1), ("last", 1), ("middle", 2)]

    def test_subscribe_during_publish_starts_with_the_next(self):
        bus = TelemetryBus()
        seen = []

        def recruiter(event):
            seen.append(("recruiter", event))
            if event == 1:
                bus.subscribe("k", lambda e: seen.append(("late", e)))

        bus.subscribe("k", recruiter)
        bus.publish("k", 1)
        bus.publish("k", 2)
        assert seen == [("recruiter", 1), ("recruiter", 2), ("late", 2)]

    @pytest.mark.parametrize("seed", range(12))
    def test_churning_handlers_deliver_as_the_list_copy_bus(self, seed):
        got = churning_deliveries(TelemetryBus(), seed)
        assert got == churning_deliveries(ListCopyBus(), seed)
        assert len(got) > 200

    def test_profiled_publish_counts_the_delivery_snapshot(self):
        class Profile:
            def __init__(self):
                self.records = []

            def record_event(self, kind, delivered, seconds):
                self.records.append((kind, delivered))

        bus = TelemetryBus()
        profile = Profile()
        bus.set_profiler(profile)
        cancels = []

        def once(event):
            cancels[0]()

        cancels.append(bus.subscribe("k", once))
        bus.subscribe("k", lambda e: None)
        bus.publish("k", 1)
        bus.publish("k", 2)
        bus.publish("other", 3)
        assert profile.records == [("k", 2), ("k", 1)]

    def test_subscribe_many_single_cancel(self):
        bus = TelemetryBus()
        seen = []
        cancel = bus.subscribe_many(
            (T.DEADLINE_HIT, T.DEADLINE_MISS), seen.append
        )
        bus.publish(T.DEADLINE_HIT, "hit")
        bus.publish(T.DEADLINE_MISS, "miss")
        cancel()
        bus.publish(T.DEADLINE_HIT, "late")
        assert seen == ["hit", "miss"]
        assert not bus.has_subscribers(T.DEADLINE_HIT)
        assert not bus.has_subscribers(T.DEADLINE_MISS)


class TestHasSubscribers:
    def test_tracks_last_handler_exactly(self):
        bus = TelemetryBus()
        assert not bus.has_subscribers("k")
        c1 = bus.subscribe("k", lambda e: None)
        c2 = bus.subscribe("k", lambda e: None)
        assert bus.has_subscribers("k")
        c1()
        assert bus.has_subscribers("k")
        c2()
        assert not bus.has_subscribers("k")

    def test_key_is_dropped_not_left_empty(self):
        # The zero-subscriber fast path relies on the kind's key being
        # deleted (membership test), not on an empty list lingering.
        bus = TelemetryBus()
        cancel = bus.subscribe("k", lambda e: None)
        cancel()
        assert "k" not in bus._subscribers


class TestWatch:
    def test_callback_runs_immediately(self):
        bus = TelemetryBus()
        bus.subscribe("k", lambda e: None)
        calls = []
        bus.watch(lambda b: calls.append(b.has_subscribers("k")))
        assert calls == [True]

    def test_callback_fires_on_subscribe_and_unsubscribe(self):
        bus = TelemetryBus()
        flags = []
        bus.watch(lambda b: flags.append(b.has_subscribers("k")))
        cancel = bus.subscribe("k", lambda e: None)
        cancel()
        assert flags == [False, True, False]

    def test_unwatch_stops_notifications(self):
        bus = TelemetryBus()
        calls = []
        unwatch = bus.watch(lambda b: calls.append(1))
        unwatch()
        bus.subscribe("k", lambda e: None)
        assert calls == [1]
        unwatch()  # idempotent


class TestProducerFlags:
    def test_machine_caches_interest_flags_via_watch(self):
        # The end-to-end contract of the fast path: a Machine's cached
        # flag flips when a subscriber arrives and back when it leaves.
        from repro.host.costs import ZERO_COSTS
        from repro.host.machine import Machine
        from repro.simcore.engine import Engine

        machine = Machine(Engine(), 1, ZERO_COSTS)
        assert not machine._t_segment
        cancel = machine.bus.subscribe(T.SEGMENT_END, lambda e: None)
        assert machine._t_segment
        cancel()
        assert not machine._t_segment
