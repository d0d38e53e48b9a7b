"""Unit tests for the latency recorder."""

import pytest

from repro.metrics.latency import LatencyRecorder, merge_recorders
from repro.simcore.time import usec


class TestRecorder:
    def test_record_and_percentiles(self):
        r = LatencyRecorder()
        for v in range(1, 1001):
            r.record(usec(v))
        tail = r.tail_usec()
        assert tail[90.0] == 900
        assert tail[99.9] == 999
        assert r.p999_usec() == 999

    def test_mean(self):
        r = LatencyRecorder()
        r.record(usec(10))
        r.record(usec(30))
        assert r.mean_usec() == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_len(self):
        r = LatencyRecorder()
        r.record(1)
        assert len(r) == 1


class TestMerge:
    def test_merge_combines_samples(self):
        a, b = LatencyRecorder("a"), LatencyRecorder("b")
        a.record(usec(1))
        b.record(usec(2))
        merged = merge_recorders([a, b])
        assert sorted(merged.samples_usec) == [1.0, 2.0]

    def test_merge_does_not_mutate_sources(self):
        a = LatencyRecorder("a")
        a.record(1)
        merge_recorders([a]).record(2)
        assert len(a) == 1
