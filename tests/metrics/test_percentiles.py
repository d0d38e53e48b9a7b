"""Unit tests for nearest-rank percentile math."""

import pytest

from repro.metrics.percentiles import SortedSamples


def percentile(samples, p):
    return SortedSamples(samples).percentile(p)


class TestPercentile:
    def test_nearest_rank_simple(self):
        data = list(range(1, 101))  # 1..100
        assert percentile(data, 90) == 90
        assert percentile(data, 99) == 99
        assert percentile(data, 100) == 100

    def test_unsorted_input(self):
        assert percentile([5, 1, 3], 100) == 5

    def test_single_sample(self):
        assert percentile([7], 99.9) == 7

    def test_p999_nearest_rank(self):
        # Nearest-rank: the 999th of 1000 ordered samples.
        data = [1.0] * 998 + [50.0, 100.0]
        assert percentile(data, 99.9) == 50.0
        # With more samples the top outliers are captured.
        data = [1.0] * 9989 + [100.0] * 11
        assert percentile(data, 99.9) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 0)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_percentiles_batch_matches_single(self):
        data = [3, 1, 4, 1, 5, 9, 2, 6]
        batch = SortedSamples(data).percentiles([50, 90, 99])
        for p in (50, 90, 99):
            assert batch[p] == percentile(data, p)

    def test_tail_summary_keys(self):
        tail = SortedSamples([1, 2, 3]).tail_summary()
        assert set(tail) == {90.0, 95.0, 99.0, 99.9}


class TestMean:
    def test_mean(self):
        assert SortedSamples([1, 2, 3]).mean() == 2

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            SortedSamples([]).mean()
