"""The shared-memory page of the cross-layer interface (paper §3.3).

Each VCPU owns one 8-byte slot in which the guest scheduler publishes
the *next earliest deadline* among the RTAs on that VCPU.  The host's
DP-WRAP scheduler reads every slot when it computes the next global
deadline.  The paper leverages cache coherence so no synchronization is
needed; here a read simply evaluates the guest-registered provider,
which yields the same value an eager writer would have stored (the
sporadic worst-case bound is a function of the current time, so it must
be evaluated at read time either way).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..guest.vcpu import VCPU

DeadlineProvider = Callable[[int], Optional[int]]


class SharedMemoryPage:
    """Per-VCPU next-earliest-deadline slots shared between guest and host."""

    def __init__(self) -> None:
        self._slots: Dict[int, Tuple[VCPU, DeadlineProvider]] = {}
        # Slots flattened to (uid, vcpu, provider) in uid order, rebuilt
        # lazily after map/unmap: the host scans every slot once per
        # global slice, so the per-scan sorted() pass is the hot cost.
        self._sorted_slots: Optional[List[Tuple[int, VCPU, DeadlineProvider]]] = None
        self.reads = 0
        #: Fault injection: while ``now < _frozen_until`` reads return
        #: the snapshot taken at freeze time (a stale page — guest
        #: updates stop propagating to the host).
        self._frozen_until = -1
        self._frozen_values: Dict[int, Optional[int]] = {}

    def map_vcpu(self, vcpu: VCPU, provider: Optional[DeadlineProvider] = None) -> None:
        """Install a deadline slot for *vcpu*.

        The default provider is the VCPU's own
        :meth:`~repro.guest.vcpu.VCPU.next_earliest_deadline`, which is
        exactly what the modified guest scheduler publishes: the minimum
        over pending job deadlines and per-task worst-case next deadlines.
        """
        self._slots[vcpu.uid] = (vcpu, provider or vcpu.next_earliest_deadline)
        self._sorted_slots = None

    def unmap_vcpu(self, vcpu: VCPU) -> None:
        """Remove *vcpu*'s slot (VM teardown)."""
        self._slots.pop(vcpu.uid, None)
        self._sorted_slots = None

    def _entries(self) -> List[Tuple[int, VCPU, DeadlineProvider]]:
        entries = self._sorted_slots
        if entries is None:
            slots = self._slots
            entries = self._sorted_slots = [
                (uid, *slots[uid]) for uid in sorted(slots)
            ]
        return entries

    def freeze(self, now: int, until: int) -> None:
        """Stop propagating guest updates until *until* (fault injection).

        Snapshots every slot's current value; host reads serve the
        snapshot — the stale page a dropped/undelivered update leaves
        behind.  VCPUs mapped after the freeze read as unpublished.
        """
        self._frozen_values = {
            uid: provider(now) for uid, (_, provider) in sorted(self._slots.items())
        }
        self._frozen_until = until

    def read(self, vcpu: VCPU, now: int) -> Optional[int]:
        """Host-side read of one VCPU's published deadline."""
        entry = self._slots.get(vcpu.uid)
        if entry is None:
            return None
        self.reads += 1
        if now < self._frozen_until:
            return self._frozen_values.get(vcpu.uid)
        return entry[1](now)

    def read_all(self, now: int) -> List[Tuple[VCPU, int]]:
        """All (vcpu, deadline) pairs with a published deadline, by uid order."""
        entries = self._entries()
        self.reads += len(entries)
        frozen = now < self._frozen_until
        out: List[Tuple[VCPU, int]] = []
        if frozen:
            frozen_values = self._frozen_values
            for uid, vcpu, _ in entries:
                deadline = frozen_values.get(uid)
                if deadline is not None:
                    out.append((vcpu, deadline))
        else:
            for _, vcpu, provider in entries:
                deadline = provider(now)
                if deadline is not None:
                    out.append((vcpu, deadline))
        return out

    def earliest(self, now: int) -> Optional[int]:
        """The minimum published deadline — the next global deadline input."""
        entries = self._entries()
        self.reads += len(entries)
        best: Optional[int] = None
        if now < self._frozen_until:
            frozen_values = self._frozen_values
            for uid, _, _ in entries:
                deadline = frozen_values.get(uid)
                if deadline is not None and (best is None or deadline < best):
                    best = deadline
        else:
            for _, _, provider in entries:
                deadline = provider(now)
                if deadline is not None and (best is None or deadline < best):
                    best = deadline
        return best

    def __len__(self) -> int:
        return len(self._slots)
