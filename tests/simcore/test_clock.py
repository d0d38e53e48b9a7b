"""Per-host clock offset/drift semantics (cluster cross-host audit)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcore.clock import HostClock
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec, sec

offsets = st.integers(min_value=-sec(1), max_value=sec(1))
times = st.integers(min_value=0, max_value=sec(3600))


class TestHostClock:
    def test_default_is_identity(self):
        clock = HostClock()
        for t in (0, 1, msec(7), sec(123)):
            assert clock.local(t) == t

    def test_offset_shifts_reading(self):
        clock = HostClock(offset_ns=msec(25))
        assert clock.local(0) == msec(25)
        assert clock.local(sec(1)) == sec(1) + msec(25)

    def test_drift_accumulates(self):
        clock = HostClock(drift_ppb=1000)  # 1 ppm fast
        assert clock.local(sec(1)) == sec(1) + 1000
        assert clock.local(sec(1000)) == sec(1000) + 1_000_000

    def test_stopping_drift_rejected(self):
        with pytest.raises(ConfigurationError):
            HostClock(drift_ppb=-1_000_000_000)

    @given(offsets, times, times, st.integers(0, sec(1)))
    def test_same_host_deadline_checks_are_offset_invariant(
        self, offset, release, completion, relative
    ):
        """local(c) <= local(r) + D  iff  c <= r + D, on one clock.

        This is why single-host simulations never see clock effects and
        the cluster audit only diverges across a live migration.
        """
        clock = HostClock(offset_ns=offset, drift_ppb=0)
        stamped = clock.local(release) + relative
        assert (clock.local(completion) <= stamped) == (
            completion <= release + relative
        )
