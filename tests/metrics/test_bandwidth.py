"""Unit tests for bandwidth accounting (the Figure 3 quantities)."""

from fractions import Fraction

import pytest

from repro.metrics.bandwidth import (
    BandwidthBreakdown,
    allocated_savings_percent,
    average_extra_cpu,
    claimed_savings_percent,
)


def _breakdown(req="2", alloc="9/4", claimed="3", rtvirt="21/10"):
    return BandwidthBreakdown(
        group="g",
        rta_required=Fraction(req),
        rtxen_allocated=Fraction(alloc),
        rtxen_claimed=Fraction(claimed),
        rtvirt=Fraction(rtvirt),
    )


class TestBreakdown:
    def test_wasted(self):
        assert _breakdown().rtxen_wasted == Fraction(1)

    def test_rtvirt_overhead(self):
        assert _breakdown().rtvirt_overhead == Fraction(1, 10)

    def test_percent_rendering(self):
        pct = _breakdown().as_percent()
        assert pct["RTA-Req"] == 200.0
        assert pct["RT-Xen: Claimed"] == 300.0


class TestAggregates:

    def test_average_extra_cpu(self):
        b = [_breakdown(), _breakdown(claimed="4")]
        assert average_extra_cpu(b, "rtxen") == 1.5

    def test_average_extra_cpu_rtvirt(self):
        assert average_extra_cpu([_breakdown()], "rtvirt") == pytest.approx(0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            average_extra_cpu([_breakdown()], "bogus")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_extra_cpu([], "rtxen")

    def test_claimed_savings(self):
        # rtvirt 2.1 vs claimed 3 -> 30%
        assert claimed_savings_percent([_breakdown()]) == pytest.approx(30.0)

    def test_allocated_savings(self):
        # rtvirt 2.1 vs allocated 2.25 -> 6.67%
        assert allocated_savings_percent([_breakdown()]) == pytest.approx(100 * (1 - 2.1 / 2.25))
