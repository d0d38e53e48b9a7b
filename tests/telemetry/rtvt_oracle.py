"""The interpretive RTVT codec, kept as the test oracle.

Before the codec was generated per kind (``repro.telemetry.record``,
DESIGN.md §13 "RTVT codec"), every event went through a loop over its
schema row's codec tags, on write and on read.  That loop is the
reference the generated code must match byte for byte and event for
event; the simulator no longer runs it.

:class:`OracleTraceWriter` is the writer with that loop
(``write_event``).  Its ``encoders`` are the ``partial(write_event,
kind)`` handlers the recorder used to subscribe, so patching it in for
``repro.telemetry.record.TraceWriter`` records a whole run through the
oracle.  :func:`oracle_events` is the reader's decoding loop over a
:class:`~repro.telemetry.record.TraceReader`'s bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.telemetry.events import ALL_KINDS
from repro.telemetry.record import (
    _C_BOOL,
    _C_INT,
    _C_OPT_STR,
    _C_STR,
    _C_VALUE,
    _FLUSH_BYTES,
    _SCHEMAS,
    _TAG_END,
    _TAG_EVENT,
    _TAG_INTERN,
    CHECKPOINT_EVERY,
    KIND_IDS,
    MAGIC,
    VERSION,
    _read_svarint,
    _read_uvarint,
    _svarint,
    _uvarint,
)


class OracleTraceWriter:
    """The framed writer, one codec tag at a time."""

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

    @property
    def encoders(self) -> tuple:
        return tuple(partial(self.write_event, kind) for kind in ALL_KINDS)

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
        if self._events and self._events % CHECKPOINT_EVERY == 0:
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

    def close(self, meta: Optional[dict] = None):
        if self._closed:
            return None
        self._closed = True
        self._flush()
        trailer = {
            "events": self._events,
            "counts": dict(sorted(self._counts.items())),
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


def oracle_events(
    reader,
    kinds: Optional[Iterable[str]] = None,
    start_time: Optional[int] = None,
) -> Iterator[Tuple[str, tuple]]:
    """``reader.events(kinds, start_time)``, one codec tag at a time."""
    wanted = set(kinds) if kinds is not None else None
    data = reader._data
    pos = reader._body_start
    table: List[str] = []
    prev_time = 0
    if start_time is not None and reader.checkpoints:
        best = None
        for offset, _count, cp_time, n_strings in reader.checkpoints:
            if cp_time <= start_time:
                best = (offset, cp_time, n_strings)
            else:
                break
        if best is not None:
            pos = reader._body_start + best[0]
            prev_time = best[1]
            table = list(reader.strings[: best[2]])
    end = reader._body_end
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
                    value, pos = _decode_item(data, pos, table)
                else:
                    value, pos = _decode_tuple(data, pos, table)
                fields.append(value)
            if start_time is not None and prev_time < start_time:
                continue
            kind = ALL_KINDS[kind_id]
            if wanted is None or kind in wanted:
                yield kind, cls._make(fields)
        else:
            raise ValueError(f"corrupt trace: unknown frame tag {tag:#x}")
