"""Unit tests for host-level utilization admission."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import UtilizationAdmission
from repro.guest.vcpu import VCPU
from repro.guest.vm import VM
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec


@pytest.fixture
def vcpus():
    vm = VM("vm", vcpu_count=4)
    return vm.vcpus


class TestCommit:
    def test_simple_grant(self, vcpus):
        adm = UtilizationAdmission(2)
        assert adm.try_commit([(vcpus[0], msec(5), msec(10))])
        assert adm.total_granted == Fraction(1, 2)

    def test_over_capacity_rejected(self, vcpus):
        adm = UtilizationAdmission(1)
        assert adm.try_commit([(vcpus[0], msec(6), msec(10))])
        assert not adm.try_commit([(vcpus[1], msec(5), msec(10))])
        assert adm.total_granted == Fraction(3, 5)  # unchanged

    def test_exact_full_capacity_accepted(self, vcpus):
        adm = UtilizationAdmission(2)
        assert adm.try_commit([(vcpus[0], msec(10), msec(10))])
        assert adm.try_commit([(vcpus[1], msec(10), msec(10))])
        assert adm.remaining == 0

    def test_single_vcpu_cannot_exceed_one_cpu(self, vcpus):
        adm = UtilizationAdmission(4)
        assert not adm.try_commit([(vcpus[0], msec(11), msec(10))])

    def test_update_replaces_prior_grant(self, vcpus):
        adm = UtilizationAdmission(1)
        adm.try_commit([(vcpus[0], msec(5), msec(10))])
        assert adm.try_commit([(vcpus[0], msec(8), msec(10))])
        assert adm.total_granted == Fraction(4, 5)

    def test_atomic_batch_rolls_back(self, vcpus):
        adm = UtilizationAdmission(1)
        ok = adm.try_commit(
            [(vcpus[0], msec(5), msec(10)), (vcpus[1], msec(6), msec(10))]
        )
        assert not ok
        assert adm.total_granted == 0

    def test_inc_dec_batch(self, vcpus):
        adm = UtilizationAdmission(1)
        adm.try_commit([(vcpus[0], msec(6), msec(10))])
        # Move bandwidth between vcpus atomically: 0.6 -> 0.2 + 0.5.
        assert adm.try_commit(
            [(vcpus[0], msec(2), msec(10)), (vcpus[1], msec(5), msec(10))]
        )
        assert adm.total_granted == Fraction(7, 10)

    def test_invalid_params_rejected(self, vcpus):
        adm = UtilizationAdmission(1)
        assert not adm.try_commit([(vcpus[0], -1, msec(10))])
        assert not adm.try_commit([(vcpus[0], msec(1), 0)])


class TestDecrease:
    def test_decrease_always_applies(self, vcpus):
        adm = UtilizationAdmission(1)
        adm.try_commit([(vcpus[0], msec(8), msec(10))])
        adm.commit_decrease([(vcpus[0], msec(2), msec(10))])
        assert adm.total_granted == Fraction(1, 5)

    def test_release(self, vcpus):
        adm = UtilizationAdmission(1)
        adm.try_commit([(vcpus[0], msec(8), msec(10))])
        adm.release(vcpus[0])
        assert adm.total_granted == 0


class TestBackgroundReserve:
    def test_reserve_reduces_capacity(self, vcpus):
        adm = UtilizationAdmission(2, background_reserve=Fraction(1, 2))
        assert adm.capacity == Fraction(3, 2)
        assert adm.try_commit([(vcpus[0], msec(10), msec(10))])
        assert not adm.try_commit([(vcpus[1], msec(6), msec(10))])

    def test_invalid_reserve_rejected(self):
        with pytest.raises(ConfigurationError):
            UtilizationAdmission(1, background_reserve=Fraction(1))

    def test_zero_pcpus_rejected(self):
        with pytest.raises(ConfigurationError):
            UtilizationAdmission(0)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["commit", "decrease", "release", "shed"]),
        st.integers(0, 5),  # vcpu index
        st.integers(0, 12),  # budget, ms
        st.integers(1, 10),  # period, ms (or online PCPUs for a shed)
    ),
    max_size=40,
)


class _CountedFraction(Fraction):
    """A grant that counts the sums it is added into."""

    additions = 0

    def __radd__(self, other):
        type(self).additions += 1
        return Fraction.__radd__(self, other)


class TestRunningTotal:
    def test_reading_the_total_adds_no_grant(self, vcpus):
        adm = UtilizationAdmission(4)
        for vcpu in vcpus:
            adm._granted[vcpu.uid] = _CountedFraction(1, 5)
        before = _CountedFraction.additions
        assert adm.total_granted == Fraction(4, 5)
        assert adm.remaining == Fraction(16, 5)
        assert _CountedFraction.additions == before

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_total_is_the_sum_of_the_grants(self, ops):
        vcpus = VM("vm", vcpu_count=6).vcpus
        adm = UtilizationAdmission(4)
        for kind, index, budget, period in ops:
            vcpu = vcpus[index]
            if kind == "commit":
                batch = [(vcpu, msec(budget), msec(period))]
                batch.append((vcpus[(index + 1) % 6], msec(budget // 2), msec(period)))
                adm.try_commit(batch)
            elif kind == "decrease":
                adm.commit_decrease([(vcpu, msec(min(budget, period)), msec(period))])
            elif kind == "release":
                adm.release(vcpu)
            else:
                adm.set_pcpu_count(period % 5)
                adm.shed_to_capacity()
            assert adm.total_granted == sum(adm._granted.values(), Fraction(0))
