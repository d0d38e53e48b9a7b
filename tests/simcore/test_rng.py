"""Unit tests for the seeded random streams."""

import pytest

from repro.simcore.rng import RandomSource, RandomStreams


class TestStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(1).stream("x")
        b = RandomStreams(1).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        s = RandomStreams(1)
        a = s.stream("a")
        b = s.stream("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x")
        b = RandomStreams(2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_cached(self):
        s = RandomStreams(0)
        assert s.stream("x") is s.stream("x")

    def test_streams_iterator(self):
        s = RandomStreams(0)
        streams = list(s.streams("w", 3))
        assert len(streams) == 3
        assert streams[0] is s.stream("w[0]")

    def test_adding_consumer_does_not_perturb_others(self):
        s1 = RandomStreams(9)
        a1 = [s1.stream("a").random() for _ in range(3)]
        s2 = RandomStreams(9)
        s2.stream("b").random()  # extra consumer first
        a2 = [s2.stream("a").random() for _ in range(3)]
        assert a1 == a2


class TestDistributions:
    def test_uniform_int_bounds(self):
        r = RandomSource(0, "t")
        values = [r.uniform_int(3, 7) for _ in range(200)]
        assert min(values) >= 3 and max(values) <= 7

    def test_uniform_int_empty_range(self):
        with pytest.raises(ValueError):
            RandomSource(0, "t").uniform_int(5, 4)

    def test_normal_positive_floor(self):
        r = RandomSource(0, "t")
        values = [r.normal_positive(0.0, 10.0, floor=0.5) for _ in range(100)]
        assert min(values) >= 0.5

    def test_lognormal_positive(self):
        r = RandomSource(0, "t")
        assert all(r.lognormal(1.0, 0.5) > 0 for _ in range(100))

    def test_choice(self):
        r = RandomSource(0, "t")
        assert r.choice([1, 2, 3]) in (1, 2, 3)

    def test_shuffle_preserves_elements(self):
        r = RandomSource(0, "t")
        items = list(range(10))
        r.shuffle(items)
        assert sorted(items) == list(range(10))
