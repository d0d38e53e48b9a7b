"""Property-based tests for the tenant credit ledger.

The ledger's determinism contract: credits are a pure function of the
event stream (any two ledgers fed the same stream agree exactly).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.control.tenants import CreditLedger, TenantSLO
from repro.telemetry import events as T

SLOS = [
    TenantSLO("gold", 500.0, weight=4),
    TenantSLO("silver", 500.0, weight=2),
    TenantSLO("bronze", 500.0),
]
VM_TENANT = {"g0": "gold", "s0": "silver", "b0": "bronze"}

#: (kind, vm, value) event descriptions; "x0" exercises the unmapped path.
events = st.lists(
    st.tuples(
        st.sampled_from(["hit", "miss", "latency", "shed"]),
        st.sampled_from(["g0", "s0", "b0", "x0"]),
        st.integers(min_value=1, max_value=10_000_000),
    ),
    max_size=200,
)


def make_ledger():
    return CreditLedger(SLOS, VM_TENANT)


def feed(ledger, stream):
    for kind, vm, value in stream:
        task = f"{vm}.rta0"
        if kind == "hit":
            ledger._on_hit(T.DeadlineHitEvent(0, task, 0, 0, 0))
        elif kind == "miss":
            ledger._on_miss(T.DeadlineMissEvent(0, task, 0, 0, 0, value))
        elif kind == "latency":
            ledger._on_latency(T.JobLatencyEvent(0, task, 0, value))
        else:
            ledger._on_admission(
                T.AdmissionDecisionEvent(
                    0, "host", "shed", f"{vm}-v0", False, "", vm, ""
                )
            )


def canonical(ledger):
    """Every tenant's raw counters and latency samples, in tenant order."""
    return [
        (name, ledger.stats(name), ledger._state[name].tail.samples_ns)
        for name in sorted(ledger.slos)
    ]


@given(events)
def test_credits_are_a_pure_function_of_the_stream(stream):
    a, b = make_ledger(), make_ledger()
    feed(a, stream)
    feed(b, stream)
    assert a.credits() == b.credits()  # exact, not approximate
    assert canonical(a) == canonical(b)
    # Scoring must not mutate state: repeated reads agree.
    assert a.credits() == a.credits()


@given(events)
def test_credit_stays_within_the_weighted_unit_band(stream):
    ledger = make_ledger()
    feed(ledger, stream)
    for slo in SLOS:
        assert 0.0 < ledger.credit(slo.name) <= slo.weight


@given(
    st.lists(st.integers(0, 10_000), unique=True, min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_shed_order_is_a_permutation_independent_of_input_order(uids, rnd):
    owners = {uid: ("g0", "b0", "x0")[uid % 3] for uid in uids}
    ledger = make_ledger()
    feed(ledger, [("miss", "b0", 1)])  # give the credits some spread
    base = ledger.shed_order(list(uids), owners)
    shuffled = list(uids)
    rnd.shuffle(shuffled)
    assert ledger.shed_order(shuffled, owners) == base
    assert sorted(base) == sorted(uids)
