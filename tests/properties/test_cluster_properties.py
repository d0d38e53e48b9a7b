"""Cluster migration blackouts must tile exactly into job spans.

A live migration's stop-and-copy window pauses the VM's VCPUs: no job
can run inside it, and a multi-attached
:class:`~repro.telemetry.spans.SpanBuilder` must charge exactly the
overlap of that window with each affected job's ``[release, end]`` to
the ``migrating`` bucket — integer-exact, like every other tiling
invariant (``run + migrating + preempted + wait == response``).

The properties run real two-host cluster simulations with one live
migration at a hypothesis-drawn instant and VM size, then check every
span produced.  Because the client's release schedule is independent of
scheduling (all RNG draws happen at arrival time), a probe run without
the migration predicts the release timeline exactly — the deterministic
tests use that to aim the blackout at a job known to be in flight.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, default_specs
from repro.placement import safe_migration_params
from repro.placement.migration import precopy_schedule
from repro.simcore.rng import RandomStreams
from repro.simcore.time import msec, sec
from repro.telemetry import SpanBuilder
from repro.telemetry.spans import merge_intervals, total
from tests.telemetry.interval_oracle import clip_intervals

DURATION_NS = sec(1)
RTAS = ((msec(3), msec(10)),)


def params_for(mem_mib: int):
    return safe_migration_params(
        mem_mib * 1024 * 1024, 250_000_000, 1_250_000_000
    )


def run_cluster_sim(seed: int, mem_mib: int, migrate_at_ns=None):
    """Two RTVirt hosts, one client-driven VM, at most one migration.

    Returns (builder with finalized spans, blackout windows, vcpu name).
    """
    cluster = Cluster(
        default_specs(2), policy="first_fit", migration=params_for(mem_mib)
    )
    cluster.seed([("vm0", RTAS)])
    streams = RandomStreams(seed)
    task = cluster.rt_tasks["vm0"][0]
    cluster.attach_client(
        "vm0",
        0,
        streams.stream("prop:vm0"),
        task.period_ns,
        2 * task.period_ns,
        deadline_ns=msec(60),  # wide: blackout-straddlers still complete
    )
    # The builder observes BOTH hosts, scoped per host so equal PCPU
    # indices do not collide — the cluster multi-attach pattern.
    builder = SpanBuilder(migration_ns=0)
    builder.attach(cluster.hosts[0].machine, scope="h0")
    builder.attach(cluster.hosts[1].machine, replace=False, scope="h1")

    if migrate_at_ns is not None:
        cluster.engine.at(
            migrate_at_ns,
            lambda: cluster.migrate("vm0", 1),
            name="prop:migrate",
        )
    cluster.run(DURATION_NS)
    cluster.finalize()
    horizon = cluster.engine.now
    builder.finalize(horizon)

    blackouts = merge_intervals(
        (m.pause_ns, min(m.resume_ns, horizon))
        for m in cluster.migrations
        if m.pause_ns is not None and m.pause_ns < horizon
    )
    vcpu_name = cluster.vms["vm0"].vcpus[0].name
    return builder, blackouts, vcpu_name


def assert_exact_tiling(builder, blackouts):
    """The three integer-exact invariants, over every span."""
    straddlers = 0
    for span in builder.spans:
        # Tiling is always exact, migration or not.
        assert sum(span.buckets.values()) == span.end - span.release
        # Nothing runs inside a blackout: the VCPUs are extracted.
        run_in_blackout = sum(
            total(clip_intervals(blackouts, start, end))
            for start, end, *_ in span.segments
        )
        assert run_in_blackout == 0
        # And therefore the migrating bucket is exactly the blackout
        # overlap with the span's window.
        overlap = total(clip_intervals(blackouts, span.release, span.end))
        assert span.buckets["migrating"] == overlap
        if overlap:
            straddlers += 1
    return straddlers


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    mem_mib=st.sampled_from([64, 128, 256]),
    migrate_frac10=st.integers(min_value=1, max_value=6),
)
def test_blackout_tiles_exactly_into_spans(seed, mem_mib, migrate_frac10):
    builder, blackouts, _ = run_cluster_sim(
        seed, mem_mib, DURATION_NS * migrate_frac10 // 10
    )
    assert builder.spans, "the client must have released jobs"
    assert blackouts, "the migration must have paused the VM"
    assert_exact_tiling(builder, blackouts)


def test_aimed_blackout_hits_an_in_flight_job():
    """Acceptance: a migration's downtime is visible in per-job spans.

    The probe run predicts the release timeline; the blackout is then
    aimed at the middle of a known job's execution window, so exactly
    that job must carry the full downtime in its ``migrating`` bucket.
    """
    seed, mem_mib = 13, 128
    probe, _, _ = run_cluster_sim(seed, mem_mib)
    schedule = precopy_schedule(params_for(mem_mib))
    precopy_ns = schedule.total_duration_ns - schedule.downtime_ns
    victim = next(
        s
        for s in probe.spans
        if s.completed_at is not None
        and s.release > precopy_ns  # migration can start at t >= 0
        and s.completed_at + schedule.total_duration_ns < DURATION_NS
    )
    target_pause = (victim.release + victim.completed_at) // 2
    builder, blackouts, _ = run_cluster_sim(
        seed, mem_mib, target_pause - precopy_ns
    )
    assert blackouts == [(target_pause, target_pause + schedule.downtime_ns)]
    straddlers = assert_exact_tiling(builder, blackouts)
    assert straddlers >= 1
    moved = next(s for s in builder.spans if s.key == victim.key)
    # The victim was mid-execution at the pause: its span absorbs the
    # whole stop-and-copy window, nanosecond for nanosecond.
    assert moved.buckets["migrating"] == schedule.downtime_ns
    assert moved.end >= target_pause + schedule.downtime_ns


def test_blackout_open_at_horizon_still_tiles():
    """A stop-and-copy still open when the run ends must charge the
    truncated window, not lose it."""
    schedule = precopy_schedule(params_for(256))
    migrate_at = (
        DURATION_NS
        - schedule.total_duration_ns
        + schedule.downtime_ns // 2
    )
    builder, blackouts, _ = run_cluster_sim(3, 256, migrate_at)
    assert blackouts and blackouts[-1][1] == DURATION_NS  # truncated
    assert_exact_tiling(builder, blackouts)
    open_spans = [s for s in builder.spans if s.incomplete]
    assert open_spans
    for span in open_spans:
        assert span.end == DURATION_NS
