"""Unit tests for the integer-nanosecond time helpers."""

from fractions import Fraction

import pytest

from repro.simcore.time import (
    MSEC,
    NSEC,
    SEC,
    USEC,
    bandwidth,
    msec,
    nsec,
    sec,
    to_usec,
    usec,
)


class TestUnits:
    def test_constants_scale(self):
        assert USEC == 1_000 * NSEC
        assert MSEC == 1_000 * USEC
        assert SEC == 1_000 * MSEC

    def test_integer_conversions(self):
        assert usec(5) == 5_000
        assert msec(15) == 15_000_000
        assert sec(2) == 2_000_000_000
        assert nsec(17) == 17

    def test_float_conversions_round(self):
        assert usec(2.5) == 2_500
        assert msec(0.001) == 1_000

    def test_fraction_conversion_exact(self):
        assert msec(Fraction(1, 2)) == 500_000

    def test_fraction_conversion_rejects_subnanosecond(self):
        with pytest.raises(ValueError):
            nsec(Fraction(1, 3))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            usec(True)

    def test_non_number_rejected(self):
        with pytest.raises(TypeError):
            msec("5")  # type: ignore[arg-type]


class TestReporting:
    def test_to_usec(self):
        assert to_usec(2_500) == 2.5


class TestBandwidth:
    def test_exact_fraction(self):
        assert bandwidth(msec(5), msec(15)) == Fraction(1, 3)

    def test_zero_slice(self):
        assert bandwidth(0, msec(10)) == 0

    def test_negative_slice_rejected(self):
        with pytest.raises(ValueError):
            bandwidth(-1, 10)

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            bandwidth(1, 0)
