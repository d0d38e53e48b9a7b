"""Durable telemetry traces — the flight recorder.

A :class:`TraceRecorder` subscribes to every kind on a
:class:`~repro.telemetry.bus.TelemetryBus` and streams the events to a
compact framed binary format; a :class:`TraceReader` iterates a recorded
trace (optionally filtered by kind or seeked by time) and reconstructs
the exact event ``NamedTuple`` sequence.  Traces are the durable form of
a run: they feed what-if replay (:mod:`repro.telemetry.replay`),
divergence diffing (:mod:`repro.telemetry.diff`) and offline blame
(``repro trace inspect <trace> --blame``); ``repro run TARGET --record
PATH`` records one per work unit.

Format ``RTVT`` version 1::

    magic    b"RTVT" + version byte 0x01
    header   uvarint length + compact JSON (utf-8) — who/what was recorded
    body     frames until the end tag:
      0x01   intern: uvarint byte-length + utf-8 payload; the string is
             assigned the next sequential id in the table
      0x02   event: uvarint kind id (index into ALL_KINDS) + zigzag
             varint time delta from the previous event + per-field codecs
      0x03   section: uvarint byte-length + utf-8 label; resets the
             intern table and the delta-time base (merge boundary)
      0x00   end of body
    trailer  compact JSON {events, counts, hash, strings, checkpoints,
             sections, meta} + 8-byte LE length + b"RTVT"

Field codecs are derived from the event ``NamedTuple`` annotations:
``int`` is a zigzag varint, ``str`` an interned id, ``Optional[str]`` a
presence byte + id, ``bool`` one byte, and ``Tuple`` a tagged
heterogeneous sequence.  The canonical trace hash is the sha256 over the
body bytes: two runs publish the same event sequence iff their traces
hash identically, and a merge of per-unit traces in canonical order is
byte-identical however the units were executed.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..simcore.errors import TraceFormatError
from . import events as ev
from .events import ALL_KINDS

MAGIC = b"RTVT"
VERSION = 1

_TAG_INTERN = 0x01
_TAG_EVENT = 0x02
_TAG_SECTION = 0x03
_TAG_END = 0x00

#: Events between trailer checkpoints (seek granularity).
CHECKPOINT_EVERY = 4096
#: Write-buffer flush threshold, bytes.
_FLUSH_BYTES = 256 * 1024

#: kind -> event class.  Hand-written so a missing entry is a loud test
#: failure (``test_record.py`` asserts coverage of ``ALL_KINDS``) rather
#: than a silent recording gap.
EVENT_CLASSES = {
    ev.JOB_RELEASE: ev.JobReleaseEvent,
    ev.ENQUEUE: ev.EnqueueEvent,
    ev.CONTEXT_SWITCH: ev.ContextSwitchEvent,
    ev.MIGRATION: ev.MigrationEvent,
    ev.SEGMENT_END: ev.SegmentEndEvent,
    ev.DEADLINE_HIT: ev.DeadlineHitEvent,
    ev.DEADLINE_MISS: ev.DeadlineMissEvent,
    ev.JOB_LATENCY: ev.JobLatencyEvent,
    ev.JOB_COMPLETE: ev.JobCompleteEvent,
    ev.HYPERCALL: ev.HypercallEvent,
    ev.BUDGET_REPLENISH: ev.BudgetReplenishEvent,
    ev.BUDGET_DEPLETE: ev.BudgetDepleteEvent,
    ev.ADMISSION_DECISION: ev.AdmissionDecisionEvent,
    ev.FAULT_INJECTED: ev.FaultInjectedEvent,
    ev.FAULT_RECOVERED: ev.FaultRecoveredEvent,
    ev.CPU_ACCOUNT: ev.CpuAccountEvent,
    ev.VCPU_PARAMS: ev.VcpuParamsEvent,
}

KIND_IDS: Dict[str, int] = {kind: i for i, kind in enumerate(ALL_KINDS)}

# Field codec tags (annotation string -> codec).
_C_INT = 0
_C_STR = 1
_C_OPT_STR = 2
_C_BOOL = 3
_C_TUPLE = 4
_C_VALUE = 5  # tagged scalar — fields whose runtime type varies

_ANNOTATION_CODECS = {
    "int": _C_INT,
    "str": _C_STR,
    "Optional[str]": _C_OPT_STR,
    "bool": _C_BOOL,
    "Tuple": _C_TUPLE,
}

#: Fields whose producers deviate from the annotation —
#: ``HypercallEvent.flag`` carries the ``SchedRTVirtFlag`` enum *value*,
#: which is a string.
_FIELD_OVERRIDES = {("HypercallEvent", "flag"): _C_VALUE}


def _field_codecs(cls) -> Tuple[int, ...]:
    annotations = list(cls.__annotations__.items())
    if not annotations or annotations[0][0] != "time":
        raise TypeError(f"{cls.__name__}: first field must be 'time'")
    codecs = []
    for name, annotation in annotations[1:]:
        override = _FIELD_OVERRIDES.get((cls.__name__, name))
        if override is not None:
            codecs.append(override)
            continue
        if not isinstance(annotation, str):  # typing wraps these in ForwardRef
            annotation = getattr(annotation, "__forward_arg__", repr(annotation))
        try:
            codecs.append(_ANNOTATION_CODECS[annotation])
        except KeyError:
            raise TypeError(
                f"{cls.__name__}.{name}: no codec for annotation {annotation!r}"
            ) from None
    return tuple(codecs)


#: kind id -> (event class, per-field codec tags after ``time``).
_SCHEMAS: List[Tuple[type, Tuple[int, ...]]] = [
    (EVENT_CLASSES[kind], _field_codecs(EVENT_CLASSES[kind])) for kind in ALL_KINDS
]


# -- varint primitives ----------------------------------------------------------------


def _uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _svarint(out: bytearray, value: int) -> None:
    _uvarint(out, (value << 1) if value >= 0 else ((-value) << 1) - 1)


def _zigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _read_uvarint(data, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _read_svarint(data, pos: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(data, pos)
    return _zigzag(raw), pos


# -- writer ---------------------------------------------------------------------------


class TraceWriter:
    """Low-level framed writer.  Most callers want :class:`TraceRecorder`."""

    def __init__(self, path: Optional[str] = None, header: Optional[dict] = None):
        self.path = path
        self._sink = open(path, "wb") if path else io.BytesIO()
        self._buf = bytearray()
        self._hash = hashlib.sha256()
        self._strings: Dict[str, int] = {}
        self._prev_time = 0
        self._events = 0
        self._counts: Dict[str, int] = {}
        self._checkpoints: List[List[int]] = []
        self._sections: List[dict] = []
        self._body_bytes = 0
        self._closed = False
        head = bytearray(MAGIC)
        head.append(VERSION)
        payload = json.dumps(
            header or {}, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        _uvarint(head, len(payload))
        head += payload
        self._sink.write(bytes(head))

    # body framing

    def _flush(self) -> None:
        if self._buf:
            chunk = bytes(self._buf)
            self._hash.update(chunk)
            self._sink.write(chunk)
            self._body_bytes += len(chunk)
            self._buf.clear()

    def _intern(self, text: str) -> int:
        idx = self._strings.get(text)
        if idx is None:
            idx = len(self._strings)
            self._strings[text] = idx
            payload = text.encode("utf-8")
            self._buf.append(_TAG_INTERN)
            _uvarint(self._buf, len(payload))
            self._buf += payload
        return idx

    def _encode_item(self, out: bytearray, item) -> None:
        if item is None:
            out.append(0)
        elif item is True or item is False:
            out.append(3)
            out.append(1 if item else 0)
        elif isinstance(item, int):
            out.append(1)
            _svarint(out, item)
        elif isinstance(item, str):
            out.append(2)
            _uvarint(out, self._intern(item))
        elif isinstance(item, float):
            out.append(4)
            out += struct.pack("<d", item)
        elif isinstance(item, tuple):
            out.append(5)
            self._encode_tuple(out, item)
        else:
            raise TypeError(f"unsupported detail item {item!r}")

    def _encode_tuple(self, out: bytearray, items: tuple) -> None:
        _uvarint(out, len(items))
        for item in items:
            self._encode_item(out, item)

    def write_event(self, kind: str, event) -> None:
        if (
            self._events
            and self._events % CHECKPOINT_EVERY == 0
            and not self._sections
        ):
            self._checkpoints.append(
                [
                    self._body_bytes + len(self._buf),
                    self._events,
                    self._prev_time,
                    len(self._strings),
                ]
            )
        kind_id = KIND_IDS[kind]
        codecs = _SCHEMAS[kind_id][1]
        frame = bytearray()
        frame.append(_TAG_EVENT)
        _uvarint(frame, kind_id)
        t = event[0]
        _svarint(frame, t - self._prev_time)
        self._prev_time = t
        for codec, value in zip(codecs, event[1:]):
            if codec == _C_INT:
                _svarint(frame, value)
            elif codec == _C_STR:
                _uvarint(frame, self._intern(value))
            elif codec == _C_OPT_STR:
                if value is None:
                    frame.append(0)
                else:
                    frame.append(1)
                    _uvarint(frame, self._intern(value))
            elif codec == _C_BOOL:
                frame.append(1 if value else 0)
            elif codec == _C_VALUE:
                self._encode_item(frame, value)
            else:
                self._encode_tuple(frame, tuple(value))
        self._buf += frame
        self._events += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if len(self._buf) >= _FLUSH_BYTES:
            self._flush()

    # merge support: append a whole recorded body as one labelled section

    def write_section(self, label: str, reader: "TraceReader") -> None:
        self._flush()
        frame = bytearray()
        frame.append(_TAG_SECTION)
        payload = label.encode("utf-8")
        _uvarint(frame, len(payload))
        frame += payload
        self._buf += frame
        self._flush()
        offset = self._body_bytes
        body = reader.body_bytes()
        self._hash.update(body)
        self._sink.write(body)
        self._body_bytes += len(body)
        self._events += reader.event_count
        for kind, count in reader.counts.items():
            self._counts[kind] = self._counts.get(kind, 0) + count
        self._sections.append(
            {
                "label": label,
                "offset": offset,
                "events": reader.event_count,
                "hash": reader.trace_hash,
            }
        )
        # section state resets for any subsequent direct writes
        self._strings = {}
        self._prev_time = 0

    def close(self, meta: Optional[dict] = None):
        """Finish the trace; returns the in-memory bytes when unpathed."""
        if self._closed:
            return None
        self._closed = True
        self._flush()
        trailer = {
            "events": self._events,
            "counts": dict(sorted(self._counts.items())),
            "hash": self._hash.hexdigest(),
            "strings": (
                None if self._sections else list(self._strings)
            ),
            "checkpoints": self._checkpoints,
            "sections": self._sections,
            "meta": meta or {},
        }
        payload = json.dumps(trailer, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        self._sink.write(bytes([_TAG_END]))
        self._sink.write(payload)
        self._sink.write(struct.pack("<Q", len(payload)))
        self._sink.write(MAGIC)
        if self.path:
            self._sink.close()
            return None
        data = self._sink.getvalue()
        self._sink.close()
        return data


# -- recorder (bus subscriber) --------------------------------------------------------


class TraceRecorder:
    """Subscribe to every telemetry kind and stream events to a trace.

    Construction is free; the writer and the bus subscriptions only
    exist between :meth:`attach` and :meth:`close` — a detached recorder
    adds nothing to the zero-subscriber fast path.
    """

    def __init__(self, path: Optional[str] = None, header: Optional[dict] = None):
        self.path = path
        self.header = dict(header or {})
        self._writer: Optional[TraceWriter] = None
        self._unsubscribes: List = []

    def attach(self, bus, kinds: Sequence[str] = ALL_KINDS) -> "TraceRecorder":
        if self._writer is None:
            self._writer = TraceWriter(self.path, self.header)
        write = self._writer.write_event
        for kind in kinds:
            self._unsubscribes.append(bus.subscribe(kind, partial(write, kind)))
        return self

    def detach(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []

    @property
    def event_count(self) -> int:
        return self._writer._events if self._writer else 0

    def close(self, meta: Optional[dict] = None):
        """Detach and finalize; returns trace bytes when path is None."""
        self.detach()
        if self._writer is None:
            self._writer = TraceWriter(self.path, self.header)
        return self._writer.close(meta)


# -- reader ---------------------------------------------------------------------------


class TraceReader:
    """Parse a recorded trace from a path or raw bytes.

    Raises :class:`~repro.simcore.errors.TraceFormatError` when the
    trace is short, its header or trailer does not parse, or its body
    does not hash to the trailer's recorded hash.
    """

    def __init__(self, source):
        if isinstance(source, (bytes, bytearray)):
            data = bytes(source)
            self.path = None
        else:
            self.path = source
            with open(source, "rb") as handle:
                data = handle.read()
        if data[:4] != MAGIC or data[4:5] != bytes([VERSION]):
            raise self._corrupt("not an RTVT v1 trace")
        if data[-4:] != MAGIC:
            raise self._corrupt("truncated trace: missing trailer magic")
        try:
            header_len, pos = _read_uvarint(data, 5)
            self.header: dict = json.loads(data[pos : pos + header_len])
            self._body_start = pos + header_len
            (trailer_len,) = struct.unpack("<Q", data[-12:-4])
            trailer_start = len(data) - 12 - trailer_len
            trailer = json.loads(data[trailer_start : len(data) - 12])
            self.event_count: int = trailer["events"]
            self.counts: Dict[str, int] = trailer["counts"]
            self.trace_hash: str = trailer["hash"]
            self.strings: Optional[List[str]] = trailer["strings"]
            self.checkpoints: List[List[int]] = trailer["checkpoints"]
            self.sections: List[dict] = trailer["sections"]
            self.meta: dict = trailer.get("meta", {})
        except (IndexError, KeyError, TypeError, ValueError, struct.error) as exc:
            raise self._corrupt(f"unparsable header or trailer ({exc})") from exc
        self._body_end = trailer_start - 1
        if self._body_end < self._body_start or data[self._body_end] != _TAG_END:
            raise self._corrupt("body end tag missing")
        self._data = data
        body_hash = hashlib.sha256(self.body_bytes()).hexdigest()
        if body_hash != self.trace_hash:
            raise self._corrupt(
                f"body hashes to {body_hash[:16]}, trailer records "
                f"{str(self.trace_hash)[:16]}"
            )

    def _corrupt(self, reason: str) -> TraceFormatError:
        source = self.path if self.path is not None else "trace bytes"
        return TraceFormatError(f"{source}: {reason}")

    def body_bytes(self) -> bytes:
        return self._data[self._body_start : self._body_end]

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def _decode_item(self, data, pos: int, table: List[str]):
        tag = data[pos]
        pos += 1
        if tag == 0:
            return None, pos
        if tag == 1:
            return _read_svarint(data, pos)
        if tag == 2:
            idx, pos = _read_uvarint(data, pos)
            return table[idx], pos
        if tag == 3:
            return bool(data[pos]), pos + 1
        if tag == 4:
            (value,) = struct.unpack_from("<d", data, pos)
            return value, pos + 8
        return self._decode_tuple(data, pos, table)

    def _decode_tuple(self, data, pos: int, table: List[str]) -> Tuple[tuple, int]:
        n, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(n):
            item, pos = self._decode_item(data, pos, table)
            items.append(item)
        return tuple(items), pos

    def events(
        self,
        kinds: Optional[Iterable[str]] = None,
        start_time: Optional[int] = None,
    ) -> Iterator[Tuple[str, tuple]]:
        """Yield ``(kind, event)`` in recorded order.

        *kinds* filters to a subset of routing keys; *start_time* skips
        ahead using the trailer checkpoints (single-section traces) so a
        late window does not pay for decoding the whole prefix.
        """
        wanted = set(kinds) if kinds is not None else None
        data = self._data
        pos = self._body_start
        table: List[str] = []
        prev_time = 0
        if start_time is not None and self.checkpoints and self.strings is not None:
            best = None
            for offset, _count, cp_time, n_strings in self.checkpoints:
                if cp_time <= start_time:
                    best = (offset, cp_time, n_strings)
                else:
                    break
            if best is not None:
                pos = self._body_start + best[0]
                prev_time = best[1]
                table = list(self.strings[: best[2]])
        end = self._body_end
        while pos < end:
            tag = data[pos]
            pos += 1
            if tag == _TAG_INTERN:
                length, pos = _read_uvarint(data, pos)
                table.append(data[pos : pos + length].decode("utf-8"))
                pos += length
            elif tag == _TAG_EVENT:
                kind_id, pos = _read_uvarint(data, pos)
                delta, pos = _read_svarint(data, pos)
                prev_time += delta
                cls, codecs = _SCHEMAS[kind_id]
                fields: List = [prev_time]
                for codec in codecs:
                    if codec == _C_INT:
                        value, pos = _read_svarint(data, pos)
                    elif codec == _C_STR:
                        idx, pos = _read_uvarint(data, pos)
                        value = table[idx]
                    elif codec == _C_OPT_STR:
                        flag = data[pos]
                        pos += 1
                        if flag:
                            idx, pos = _read_uvarint(data, pos)
                            value = table[idx]
                        else:
                            value = None
                    elif codec == _C_BOOL:
                        value = bool(data[pos])
                        pos += 1
                    elif codec == _C_VALUE:
                        value, pos = self._decode_item(data, pos, table)
                    else:
                        value, pos = self._decode_tuple(data, pos, table)
                    fields.append(value)
                if start_time is not None and prev_time < start_time:
                    continue
                kind = ALL_KINDS[kind_id]
                if wanted is None or kind in wanted:
                    yield kind, cls._make(fields)
            elif tag == _TAG_SECTION:
                length, pos = _read_uvarint(data, pos)
                pos += length
                table = []
                prev_time = 0
            else:
                raise ValueError(f"corrupt trace: unknown frame tag {tag:#x}")


def merge_traces(
    parts: Sequence[Tuple[str, object]],
    header: Optional[dict] = None,
    path: Optional[str] = None,
):
    """Concatenate recorded traces into one sectioned trace.

    *parts* is ``(label, source)`` pairs in canonical order; each source
    is anything :class:`TraceReader` accepts.  Merging is byte-stable:
    the same parts in the same order always produce the same file, no
    matter how (or where) the parts were recorded.  Returns the merged
    bytes when *path* is None.
    """
    writer = TraceWriter(path, header or {"merged": [label for label, _ in parts]})
    for label, source in parts:
        reader = source if isinstance(source, TraceReader) else TraceReader(source)
        writer.write_section(label, reader)
    return writer.close()
