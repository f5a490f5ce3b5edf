"""Trace record schema, ID generation, and the rate-limited log sink.

The on-disk log format is newline-delimited UTF-8, one record per line with
13 tab-separated fields in fixed order:

    runId  platformId  recordKind  functionName  contextId  pairId
    calleeName|-  mode|-  startTsMicros  endTsMicros  executorKey|-
    coldStart(0/1)|-  dbOpKind|-

The first line of a log file is the schema header (``#faastrace v1``).
Collected logs may additionally carry ``#dropped <platformId> <count>``
metadata lines with per-platform rate-limiter drop counters.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HEADER_LINE = "#faastrace v1"
DROP_PREFIX = "#dropped"

INVOCATION = "INVOCATION"
OUTGOING_CALL = "OUTGOING_CALL"
DB_CALL = "DB_CALL"
RECORD_KINDS = (INVOCATION, OUTGOING_CALL, DB_CALL)

MODE_SYNC = "sync"
MODE_ASYNC = "async"
MODE_TRIGGER = "trigger"
MODES = (MODE_SYNC, MODE_ASYNC, MODE_TRIGGER)

LOADGEN = "loadgen"

_FIELD_COUNT = 13
_NONE = "-"


class MalformedRecord(ValueError):
    """Record violates the schema (bad kind, endTs < startTs, missing fields)."""


class TraceRecord(NamedTuple):
    """One log line. A tuple: the analyzer holds every record of a run, and a
    tuple is built from a parsed line in one step and is immutable."""

    run_id: str
    platform_id: str
    kind: str
    function: str
    context_id: str
    pair_id: str
    start_us: int
    end_us: int
    callee: str | None = None
    mode: str | None = None
    executor_key: str | None = None
    cold_start: bool | None = None
    db_op: str | None = None

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    def check(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise MalformedRecord(f"unknown record kind {self.kind!r}")
        if self.end_us < self.start_us:
            raise MalformedRecord(f"endTs {self.end_us} < startTs {self.start_us}")
        if self.kind == INVOCATION and (self.executor_key is None or self.cold_start is None):
            raise MalformedRecord("INVOCATION requires executorKey and coldStart")
        if self.kind == OUTGOING_CALL and (self.callee is None or self.mode not in MODES):
            raise MalformedRecord("OUTGOING_CALL requires calleeName and a valid mode")
        if self.kind == DB_CALL and (self.callee is None or self.db_op not in ("get", "set")):
            raise MalformedRecord("DB_CALL requires service name and dbOpKind get|set")


def serialize_record(r: TraceRecord) -> str:
    cold = _NONE if r.cold_start is None else ("1" if r.cold_start else "0")
    fields = (
        r.run_id,
        r.platform_id,
        r.kind,
        r.function,
        r.context_id,
        r.pair_id,
        r.callee or _NONE,
        r.mode or _NONE,
        str(r.start_us),
        str(r.end_us),
        r.executor_key or _NONE,
        cold,
        r.db_op or _NONE,
    )
    return "\t".join(fields)


_new_record = tuple.__new__  # builds a TraceRecord from its 13 values, as NamedTuple._make does


def parse_record(line: str) -> TraceRecord:
    """Parse one data line; raises ValueError/MalformedRecord on bad input."""
    fields = line.split("\t")
    if len(fields) != _FIELD_COUNT:
        raise MalformedRecord(f"expected {_FIELD_COUNT} fields, got {len(fields)}")
    (run_id, platform_id, kind, function, context_id, pair_id, callee, mode, start, end, executor_key, cold,
     db_op) = fields
    record = _new_record(TraceRecord, (
        run_id, platform_id, kind, function, context_id, pair_id, int(start), int(end),
        None if callee == _NONE else callee,
        None if mode == _NONE else mode,
        None if executor_key == _NONE else executor_key,
        None if cold == _NONE else cold == "1",
        None if db_op == _NONE else db_op,
    ))
    record.check()
    return record


def format_drop_line(platform_id: str, count: int) -> str:
    return f"{DROP_PREFIX} {platform_id} {count}"


def parse_drop_line(line: str) -> tuple[str, int]:
    parts = line.split()
    if len(parts) != 3 or parts[0] != DROP_PREFIX:
        raise ValueError(f"not a drop line: {line!r}")
    return parts[1], int(parts[2])


ID_BLOCK = 1024  # ids drawn per call to the generator


class IdSource:
    """Seeded generator for 128-bit identifiers, rendered as 32 hex chars.

    Ids are drawn ``ID_BLOCK`` at a time: one ``rng.bytes(16 * ID_BLOCK)``
    call, kept as hex and handed out in 32-char slices. ``Generator.bytes``
    fills whole 32-bit words from the bit generator's stream, and 16 bytes are
    exactly four words, so a block is the concatenation of the ids that one
    ``rng.bytes(16)`` call per id would give: the id sequence is unchanged,
    at a fraction of the per-call overhead. Drawing ahead moves no other
    stream, since the generator serves ids alone.

    Confined to a single run's event loop; replaying the same seed replays
    the same id sequence.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = ""
        self._pos = 0

    def _next(self) -> str:
        if self._pos == len(self._block):
            self._block = self._rng.bytes(16 * ID_BLOCK).hex()
            self._pos = 0
        start = self._pos
        self._pos = start + 32
        return self._block[start:self._pos]

    def new_context(self) -> str:
        return self._next()

    def new_pair(self) -> str:
        return self._next()

    def new_executor_key(self) -> str:
        return self._next()

    def new_run_id(self) -> str:
        return "r" + self._next()[:12]


class RecordSink:
    """Per-platform log sink with a tumbling 1-second rate limit window.

    Timestamps are written on the platform's logged clock (true virtual time
    plus the platform's clock offset); rate limiting and emission order use
    true virtual time.
    """

    def __init__(self, platform_id: str, lines_per_second: int | None = None, clock_offset_us: int = 0):
        self.platform_id = platform_id
        self.lines_per_second = lines_per_second
        self.clock_offset_us = clock_offset_us
        self._lines: list[tuple[str, str]] = []  # (run_id, line)
        self._window: int | None = None
        self._window_count = 0
        self.drops = 0

    def emit(self, record: TraceRecord, at_us: int) -> bool:
        """Append one record; returns False when the rate limiter drops it."""
        record.check()
        if self.lines_per_second is not None:
            window = at_us // 1_000_000
            if window != self._window:
                self._window = window
                self._window_count = 0
            if self._window_count >= self.lines_per_second:
                self.drops += 1
                return False
            self._window_count += 1
        if self.clock_offset_us:
            record = record._replace(
                start_us=record.start_us + self.clock_offset_us,
                end_us=record.end_us + self.clock_offset_us,
            )
        self._lines.append((record.run_id, serialize_record(record)))
        return True

    def lines(self, run_id: str) -> list[str]:
        return [line for rid, line in self._lines if rid == run_id]

