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
      0x00   end of body
    trailer  compact JSON {events, counts, hash, strings, checkpoints,
             meta} + 8-byte LE length + b"RTVT"

Field codecs are derived from the event ``NamedTuple`` annotations:
``int`` is a zigzag varint, ``str`` an interned id, ``Optional[str]`` a
presence byte + id, ``bool`` one byte, and ``Tuple`` a tagged
heterogeneous sequence.  The canonical trace hash is the sha256 over the
body bytes: two runs publish the same event sequence iff their traces
hash identically.  Older traces carry a ``sections`` trailer key: empty,
it is ignored; a merged trace of sections raises ``TraceFormatError``.

The codec is generated from the one schema table :data:`_SCHEMAS`: on
first use, once per process, each kind's row is compiled into
straight-line Python — an encoder factory and a decoder — so no event
pays for a loop over codec tags.  A :class:`TraceWriter` calls the
factories once, binding its buffer, intern table and state cell into
each encoder as locals, and a recorder subscribes those encoders to the
bus directly.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..simcore.errors import TraceFormatError
from . import events as ev
from .events import ALL_KINDS

MAGIC = b"RTVT"
VERSION = 1

_TAG_INTERN = 0x01
_TAG_EVENT = 0x02
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


def _decode_item(data, pos: int, table: List[str]):
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
    return _decode_tuple(data, pos, table)


def _decode_tuple(data, pos: int, table: List[str]) -> Tuple[tuple, int]:
    n, pos = _read_uvarint(data, pos)
    items = []
    for _ in range(n):
        item, pos = _decode_item(data, pos, table)
        items.append(item)
    return tuple(items), pos


# -- generated codec ------------------------------------------------------------------
#
# Each schema row compiles to one encoder factory and one decoder.  The
# encoder writes exactly what a loop over the row's codec tags would:
# a due checkpoint first, then every intern frame its strings need in
# field order (tagged fields encode into a scratch frame, interning as
# they go), then the event frame.  So the bytes do not depend on which
# code wrote them, only on the schema.


def _indent(lines: List[str], depth: int = 1) -> List[str]:
    return ["    " * depth + line for line in lines]


def _put_uvarint(var: str) -> List[str]:
    """Append uvarint *var* to ``buf``; one byte without entering a loop."""
    return [f"if {var} < 128:", f"    append({var})", "else:", f"    uvarint(buf, {var})"]


def _put_svarint(var: str) -> List[str]:
    return [f"z = {var} << 1 if {var} >= 0 else ((-{var}) << 1) - 1", *_put_uvarint("z")]


def _intern_lines(field: str, sid: str) -> List[str]:
    return [f"{sid} = get({field})", f"if {sid} is None:", f"    {sid} = intern({field})"]


def _get_uvarint(var: str) -> List[str]:
    """Read uvarint *var* at ``pos``; one byte without entering a loop."""
    return [
        f"{var} = data[pos]",
        "pos += 1",
        f"if {var} > 127:",
        f"    {var}, pos = read_uvarint(data, pos - 1)",
    ]


def _encoder_source(kind_id: int, codecs: Tuple[int, ...]) -> str:
    fields = [f"f{i}" for i in range(len(codecs))]
    resolve: List[str] = []
    put: List[str] = []
    binds = ["buf", "append", "cell", "counts", "checkpoint", "flush", "uvarint"]
    for field, codec in zip(fields, codecs):
        sid = "s" + field
        if codec == _C_INT:
            put += _put_svarint(field)
        elif codec == _C_STR:
            resolve += _intern_lines(field, sid)
            put += _put_uvarint(sid)
        elif codec == _C_OPT_STR:
            resolve += [f"if {field} is not None:", *_indent(_intern_lines(field, sid))]
            put += [f"if {field} is None:", "    append(0)", "else:", "    append(1)"]
            put += _indent(_put_uvarint(sid))
        elif codec == _C_BOOL:
            put.append(f"append(1 if {field} else 0)")
        else:
            encode = "encode_item" if codec == _C_VALUE else "encode_tuple"
            value = field if codec == _C_VALUE else f"tuple({field})"
            resolve += [f"{sid} = bytearray()", f"{encode}({sid}, {value})"]
            put.append(f"buf += {sid}")
            binds.append(encode)
    if any(codec in (_C_STR, _C_OPT_STR) for codec in codecs):
        binds += ["get", "intern"]
    head = bytearray([_TAG_EVENT])
    _uvarint(head, kind_id)
    defaults = ", ".join(f"{name}={name}" for name in dict.fromkeys(binds))
    body = [
        "left = cell[1]",
        "if left:",
        "    cell[1] = left - 1",
        "else:",
        "    checkpoint()",
        f"t, {', '.join(fields)} = event",
        *resolve,
        f"buf += {bytes(head)!r}",
        "d = t - cell[0]",
        "cell[0] = t",
        *_put_svarint("d"),
        *put,
        f"counts[{kind_id}] += 1",
        f"if len(buf) >= {_FLUSH_BYTES}:",
        "    flush()",
    ]
    return "\n".join(
        [
            "def factory(buf, append, get, cell, counts, intern, checkpoint, flush,",
            "            encode_item, encode_tuple, uvarint):",
            f"    def encode(event, {defaults}):",
            *_indent(body, 2),
            "    return encode",
        ]
    )


def _decoder_source(codecs: Tuple[int, ...]) -> str:
    fields = [f"f{i}" for i in range(len(codecs))]
    body = [*_get_uvarint("b"), "t = prev + ((b >> 1) ^ -(b & 1))"]
    for field, codec in zip(fields, codecs):
        if codec == _C_INT:
            body += [*_get_uvarint("b"), f"{field} = (b >> 1) ^ -(b & 1)"]
        elif codec == _C_STR:
            body += [*_get_uvarint("b"), f"{field} = table[b]"]
        elif codec == _C_OPT_STR:
            body += ["if data[pos]:", "    pos += 1"]
            body += _indent([*_get_uvarint("b"), f"{field} = table[b]"])
            body += ["else:", "    pos += 1", f"    {field} = None"]
        elif codec == _C_BOOL:
            body += [f"{field} = data[pos] != 0", "pos += 1"]
        elif codec == _C_VALUE:
            body.append(f"{field}, pos = decode_item(data, pos, table)")
        else:
            body.append(f"{field}, pos = decode_tuple(data, pos, table)")
    body.append(f"return new(cls, (t, {', '.join(fields)})), pos")
    return "\n".join(
        [
            "def decode(data, pos, prev, table, new=tuple.__new__, cls=cls,",
            "           read_uvarint=read_uvarint, decode_item=decode_item,",
            "           decode_tuple=decode_tuple):",
            *_indent(body),
        ]
    )


def _compile(source: str, name: str, label: str, namespace: dict) -> Callable:
    exec(compile(source, f"<rtvt {label}>", "exec"), namespace)
    return namespace[name]


# Compiling all 34 functions takes about 10 ms, so a process that never
# records or reads a trace never compiles them.


@lru_cache(maxsize=None)
def _encoder_factories() -> Tuple[Callable, ...]:
    """kind id -> factory(buf, buf.append, strings.get, cell, counts,
    intern, checkpoint, flush, encode_item, encode_tuple, uvarint) ->
    encode(event)."""
    return tuple(
        _compile(_encoder_source(kind_id, codecs), "factory", f"encode {kind}", {})
        for kind_id, (kind, (_, codecs)) in enumerate(zip(ALL_KINDS, _SCHEMAS))
    )


@lru_cache(maxsize=None)
def _decoders() -> Tuple[Callable, ...]:
    """kind id -> decode(data, pos, prev_time, table) -> (event, pos)."""
    return tuple(
        _compile(
            _decoder_source(codecs),
            "decode",
            f"decode {kind}",
            {
                "cls": cls,
                "read_uvarint": _read_uvarint,
                "decode_item": _decode_item,
                "decode_tuple": _decode_tuple,
            },
        )
        for kind, (cls, codecs) in zip(ALL_KINDS, _SCHEMAS)
    )


# -- writer ---------------------------------------------------------------------------


class TraceWriter:
    """Low-level framed writer.  Most callers want :class:`TraceRecorder`.

    ``encoders[KIND_IDS[kind]](event)`` writes one event.  The encoders
    hold this writer's buffer, intern table, state cell and counters, so
    those objects are only ever changed in place.
    """

    def __init__(self, path: Optional[str] = None, header: Optional[dict] = None):
        self.path = path
        self._sink = open(path, "wb") if path else io.BytesIO()
        self._buf = bytearray()
        self._hash = hashlib.sha256()
        self._strings: Dict[str, int] = {}
        #: [previous event time, events still to write before a checkpoint]
        self._cell = [0, CHECKPOINT_EVERY]
        #: kind id -> events encoded
        self._kind_counts = [0] * len(ALL_KINDS)
        self._checkpoints: List[List[int]] = []
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
        state = (
            self._buf,
            self._buf.append,
            self._strings.get,
            self._cell,
            self._kind_counts,
            self._intern,
            self._checkpoint,
            self._flush,
            self._encode_item,
            self._encode_tuple,
            _uvarint,
        )
        self.encoders: Tuple[Callable, ...] = tuple(
            factory(*state) for factory in _encoder_factories()
        )

    @property
    def event_count(self) -> int:
        return sum(self._kind_counts)

    # body framing

    def _flush(self) -> None:
        if self._buf:
            chunk = bytes(self._buf)
            self._hash.update(chunk)
            self._sink.write(chunk)
            self._body_bytes += len(chunk)
            self._buf.clear()

    def _checkpoint(self) -> None:
        self._checkpoints.append(
            [
                self._body_bytes + len(self._buf),
                self.event_count,
                self._cell[0],
                len(self._strings),
            ]
        )
        self._cell[1] = CHECKPOINT_EVERY - 1

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

    def close(self, meta: Optional[dict] = None):
        """Finish the trace; returns the in-memory bytes when unpathed."""
        if self._closed:
            return None
        self._closed = True
        self._flush()
        counts = {kind: n for kind, n in zip(ALL_KINDS, self._kind_counts) if n}
        trailer = {
            "events": self.event_count,
            "counts": dict(sorted(counts.items())),
            "hash": self._hash.hexdigest(),
            "strings": list(self._strings),
            "checkpoints": self._checkpoints,
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
        encoders = self._writer.encoders
        for kind in kinds:
            self._unsubscribes.append(bus.subscribe(kind, encoders[KIND_IDS[kind]]))
        return self

    def detach(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []

    @property
    def event_count(self) -> int:
        return self._writer.event_count if self._writer else 0

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
            self.strings: List[str] = trailer["strings"]
            self.checkpoints: List[List[int]] = trailer["checkpoints"]
            self.meta: dict = trailer.get("meta", {})
        except (IndexError, KeyError, TypeError, ValueError, struct.error) as exc:
            raise self._corrupt(f"unparsable header or trailer ({exc})") from exc
        if trailer.get("sections"):
            raise self._corrupt("a merged trace: sections are no longer read")
        self._body_end = trailer_start - 1
        if self._body_end < self._body_start or data[self._body_end] != _TAG_END:
            raise self._corrupt("body end tag missing")
        self._data = data
        body = memoryview(data)[self._body_start : self._body_end]  # no copy
        body_hash = hashlib.sha256(body).hexdigest()
        if body_hash != self.trace_hash:
            raise self._corrupt(
                f"body hashes to {body_hash[:16]}, trailer records "
                f"{str(self.trace_hash)[:16]}"
            )

    def _corrupt(self, reason: str) -> TraceFormatError:
        source = self.path if self.path is not None else "trace bytes"
        return TraceFormatError(f"{source}: {reason}")

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def events(
        self,
        kinds: Optional[Iterable[str]] = None,
        start_time: Optional[int] = None,
    ) -> Iterator[Tuple[str, tuple]]:
        """Yield ``(kind, event)`` in recorded order.

        *kinds* filters to a subset of routing keys; *start_time* skips
        ahead using the trailer checkpoints so a late window does not pay
        for decoding the whole prefix.
        """
        wanted = set(kinds) if kinds is not None else None
        data = self._data
        pos = self._body_start
        table: List[str] = []
        prev_time = 0
        if start_time is not None and self.checkpoints:
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
        decoders = _decoders()
        kinds_by_id = ALL_KINDS
        filtered = wanted is not None or start_time is not None
        while pos < end:
            tag = data[pos]
            if tag == _TAG_EVENT:
                # Kind ids are below 128, so their uvarint is one byte.
                kind_id = data[pos + 1]
                event, pos = decoders[kind_id](data, pos + 2, prev_time, table)
                prev_time = event[0]
                if filtered:
                    if start_time is not None and prev_time < start_time:
                        continue
                    if wanted is not None and kinds_by_id[kind_id] not in wanted:
                        continue
                yield kinds_by_id[kind_id], event
            elif tag == _TAG_INTERN:
                length, pos = _read_uvarint(data, pos + 1)
                table.append(data[pos : pos + length].decode("utf-8"))
                pos += length
            else:
                raise ValueError(f"corrupt trace: unknown frame tag {tag:#x}")

