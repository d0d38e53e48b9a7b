"""Property-based tests on metrics math."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.percentiles import SortedSamples
from repro.simcore.time import bandwidth

floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@given(st.lists(floats, min_size=1, max_size=300))
def test_percentile_is_monotone_in_p(samples):
    prev = None
    for p in (10, 50, 90, 99, 99.9, 100):
        value = SortedSamples(samples).percentile(p)
        if prev is not None:
            assert value >= prev
        prev = value


@given(st.lists(floats, min_size=1, max_size=300))
def test_percentile_within_sample_range(samples):
    for p in (1, 50, 100):
        assert min(samples) <= SortedSamples(samples).percentile(p) <= max(samples)


@given(st.lists(floats, min_size=1, max_size=300))
def test_p100_is_max(samples):
    assert SortedSamples(samples).percentile(100) == max(samples)


@given(st.lists(floats, min_size=4, max_size=300))
def test_tail_summary_ordered(samples):
    tail = SortedSamples(samples).tail_summary()
    assert tail[90.0] <= tail[95.0] <= tail[99.0] <= tail[99.9]


@given(st.integers(0, 10**9), st.integers(1, 10**9))
def test_bandwidth_exact(s, p):
    bw = bandwidth(s, p)
    assert bw == Fraction(s, p)
    assert 0 <= bw or s == 0
