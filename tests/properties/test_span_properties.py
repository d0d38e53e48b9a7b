"""Span tiling and blame attribution must be exact, not approximate.

Two invariants hold by construction and these properties pin them:

* **Tiling** — for every job span, the four bucket durations
  (``run + wait + preempted + migrating``) sum *exactly* to the
  response time.  Integer arithmetic, no epsilon.
* **Blame conservation** — for every missed span, the per-cause
  lost-ns returned by :func:`attribute_miss` sums *exactly* to the
  lateness, and a met span blames nothing.

Both are checked three ways: on randomly generated event streams
(hypothesis), on the interval helpers the tiling is built from, and on
full simulator runs across every system type and fault scenario.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import SpanBuilder, TelemetryBus
from repro.telemetry import events as T
from repro.telemetry.blame import attribute_miss
from repro.telemetry.spans import (
    clip_merged,
    merge_intervals,
    subtract_intervals,
    total,
)
from tests.telemetry.interval_oracle import clip_intervals

intervals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    ).map(lambda p: (min(p), max(p))),
    max_size=20,
)


class TestIntervalAlgebra:
    @given(intervals)
    def test_merge_is_sorted_disjoint_and_idempotent(self, raw):
        merged = merge_intervals(raw)
        for (s, e) in merged:
            assert s < e
        for (_, e), (s2, _) in zip(merged, merged[1:]):
            assert e < s2
        assert merge_intervals(merged) == merged

    @given(intervals, intervals)
    def test_clip_plus_subtract_partition_exactly(self, raw, cut_raw):
        base = merge_intervals(raw)
        cut = merge_intervals(cut_raw)
        inside_total = 0
        for lo, hi in base:
            inside = clip_intervals(cut, lo, hi)
            outside = subtract_intervals([(lo, hi)], inside)
            # Every instant of [lo, hi) lands in exactly one side.
            assert total(inside) + total(outside) == hi - lo
            inside_total += total(inside)

    @given(
        intervals,
        st.integers(min_value=-10, max_value=510),
        st.integers(min_value=-10, max_value=510),
    )
    def test_bisecting_clip_matches_the_scan(self, raw, lo, hi):
        # clip_intervals is the oracle; the finalize hot path bisects.
        merged = merge_intervals(raw)
        ends = [end for _, end in merged]
        assert clip_merged(merged, ends, lo, hi) == clip_intervals(merged, lo, hi)

    @given(intervals, intervals)
    def test_subtract_is_disjoint_from_cut(self, raw, cut_raw):
        base = merge_intervals(raw)
        cut = merge_intervals(cut_raw)
        remainder = subtract_intervals(base, cut)
        removed = sum(
            total(clip_intervals(cut, lo, hi)) for lo, hi in base
        )
        assert total(remainder) == total(base) - removed
        for lo, hi in remainder:
            assert clip_intervals(cut, lo, hi) == []


# A random single-job history: alternating on-CPU windows for the
# carrier VCPU (the job runs whenever its carrier holds the PCPU), a
# deadline anywhere in range, completion at the last executed nanosecond.
boundaries = st.lists(
    st.integers(min_value=1, max_value=1_000),
    min_size=2,
    max_size=12,
    unique=True,
).map(sorted)
deadlines = st.integers(min_value=1, max_value=1_200)


@settings(max_examples=60, deadline=None)
@given(boundaries, deadlines)
def test_random_history_tiles_and_blame_conserves(bounds, deadline):
    machine_bus = TelemetryBus()

    class _Costs:
        migration_ns = 0

    class _Engine:
        now = 0

    class _Machine:
        bus = machine_bus
        costs = _Costs()
        engine = _Engine()

    builder = SpanBuilder().attach(_Machine())
    machine_bus.publish(
        T.JOB_RELEASE, T.JobReleaseEvent(0, "vm0", "v0", "a", 0, 0, deadline)
    )
    windows = list(zip(bounds[0::2], bounds[1::2]))
    end = 0
    for start, stop in windows:
        machine_bus.publish(
            T.CONTEXT_SWITCH, T.ContextSwitchEvent(start, 0, "v0", False)
        )
        machine_bus.publish(
            T.SEGMENT_END, T.SegmentEndEvent(stop, 0, "v0", "a", start, stop)
        )
        machine_bus.publish(
            T.CONTEXT_SWITCH, T.ContextSwitchEvent(stop, 0, None, False)
        )
        end = stop
    machine_bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(end, "a", 0))
    if end > deadline:
        machine_bus.publish(
            T.DEADLINE_MISS,
            T.DeadlineMissEvent(end, "a", 0, 0, deadline, end - deadline),
        )
    builder.finalize(end_time=end)
    (span,) = builder.spans
    assert sum(span.buckets.values()) == span.end - span.release
    assert span.buckets["run"] == sum(stop - start for start, stop in windows)
    lost = attribute_miss(span, builder)
    if end > deadline:
        assert sum(lost.values()) == span.lateness == end - deadline
    else:
        assert lost == {}


def _assert_exact(builder):
    assert builder.spans, "deadline-bearing jobs must produce spans"
    for span in builder.spans:
        assert sum(span.buckets.values()) == span.end - span.release
        lost = attribute_miss(span, builder)
        if span.missed:
            assert sum(lost.values()) == span.lateness
        else:
            assert lost == {}


class TestFullSystemRuns:
    @pytest.mark.parametrize("system", ["rtvirt", "rtxen", "credit"])
    def test_invariants_hold_for_every_system_type(self, system):
        from repro.scenario import run_scenario
        from repro.telemetry.observe import observing
        from repro.telemetry.probe import probe_spec

        holder = {}

        def attach(sim, context):
            holder["spans"] = SpanBuilder().attach(sim.machine)

        with observing([attach]):
            result = run_scenario(probe_spec(system, seed=7, duration_s=0.5))
        _assert_exact(holder["spans"].finalize(result.duration_ns))

    @pytest.mark.parametrize("fault", ["pcpu_fail", "hypercall", "surge"])
    def test_invariants_survive_fault_scenarios(self, fault):
        from repro.experiments.robustness import run_robustness_case
        from repro.simcore.time import sec
        from repro.telemetry.observe import observing

        holder = {}

        def attach(sim, context):
            holder["spans"] = SpanBuilder().attach(sim.machine)

        with observing([attach]):
            run_robustness_case(fault, "RTVirt", sec(1), seed=11)
        _assert_exact(holder["spans"].finalize(sec(1)))
