"""Trace record schema and the rate-limited log sink.

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

import sys
from typing import NamedTuple

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


def _check_fields(kind, start_us, end_us, callee, mode, executor_key, cold_start, db_op) -> None:
    """Raise MalformedRecord unless the fields form a valid record."""
    if kind not in RECORD_KINDS:
        raise MalformedRecord(f"unknown record kind {kind!r}")
    if end_us < start_us:
        raise MalformedRecord(f"endTs {end_us} < startTs {start_us}")
    if kind == INVOCATION and (executor_key is None or cold_start is None):
        raise MalformedRecord("INVOCATION requires executorKey and coldStart")
    if kind == OUTGOING_CALL and (callee is None or mode not in MODES):
        raise MalformedRecord("OUTGOING_CALL requires calleeName and a valid mode")
    if kind == DB_CALL and (callee is None or db_op not in ("get", "set") or mode is not None):
        raise MalformedRecord("DB_CALL requires service name, dbOpKind get|set and no mode")


def _format_line(run_id, platform_id, kind, function, context_id, pair_id, start_us, end_us, callee, mode,
                 executor_key, cold_start, db_op) -> str:
    """One log line from a record's fields, taken in ``TraceRecord`` order."""
    cold = _NONE if cold_start is None else ("1" if cold_start else "0")
    return (f"{run_id}\t{platform_id}\t{kind}\t{function}\t{context_id}\t{pair_id}\t{callee or _NONE}\t"
            f"{mode or _NONE}\t{start_us}\t{end_us}\t{executor_key or _NONE}\t{cold}\t{db_op or _NONE}")


_new_record = tuple.__new__  # builds a TraceRecord from its 13 values, as NamedTuple._make does
_intern = sys.intern
# the parsed value of each known kind, mode and db op column, one shared string
# apiece; "-" reads as None, and a value not listed here is kept as written
_KIND_OF = {kind: kind for kind in RECORD_KINDS}
_MODE_OF = {_NONE: None, **{mode: mode for mode in MODES}}
_DB_OP_OF = {_NONE: None, "get": "get", "set": "set"}
# the cold-start column holds only these; any other value is refused
_COLD_OF = {_NONE: None, "0": False, "1": True}
# a timestamp must lie strictly between these, so the analyzer's float
# arithmetic on durations and quartiles cannot overflow
_TS_LOW, _TS_HIGH = -2 ** 63, 2 ** 63


def parse_record(line: str) -> TraceRecord:
    """Parse one data line; raises ValueError/MalformedRecord on bad input.

    The columns whose values repeat across the lines of a run (run id,
    platform, kind, function, callee, mode, db op, context id and executor
    key) come out as one shared string per value: the kind, mode and db op
    from fixed tables, the names and ids through ``sys.intern``. A context id
    is shared by every record of its workflow, an executor key by every
    invocation it served. The pair ids stay the line's own strings: a pair id
    names at most a call and its invocation, so sharing it saves little.
    """
    fields = line.split("\t")
    if len(fields) != _FIELD_COUNT:
        raise MalformedRecord(f"expected {_FIELD_COUNT} fields, got {len(fields)}")
    (run_id, platform_id, kind, function, context_id, pair_id, callee, mode, start, end, executor_key, cold,
     db_op) = fields
    start = int(start)
    end = int(end)
    kind = _KIND_OF.get(kind, kind)
    callee = None if callee == _NONE else _intern(callee)
    mode = _MODE_OF.get(mode, mode)
    executor_key = None if executor_key == _NONE else _intern(executor_key)
    try:
        cold = _COLD_OF[cold]
    except KeyError:
        raise MalformedRecord(f"coldStart must be 0, 1 or -, got {cold!r}") from None
    db_op = _DB_OP_OF.get(db_op, db_op)
    _check_fields(kind, start, end, callee, mode, executor_key, cold, db_op)
    if start <= _TS_LOW or end >= _TS_HIGH:  # start <= end is checked above
        raise MalformedRecord("timestamp outside the signed 64-bit range")
    return _new_record(TraceRecord, (_intern(run_id), _intern(platform_id), kind, _intern(function),
                                     _intern(context_id), pair_id, start, end, callee, mode, executor_key, cold, db_op))


def is_log_name(name: object) -> bool:
    """True when ``name`` can fill a name column of a log line (function,
    callee or platform): a non-empty string other than ``-``, which reads as
    an empty column, with no tab and nothing ``str.splitlines`` ends a line
    at. Any other name would split or shift the columns of its lines. A
    surrogate code point is refused too: UTF-8 cannot encode it."""
    return (isinstance(name, str) and name != _NONE and "\t" not in name and name.splitlines() == [name]
            and not any("\ud800" <= c <= "\udfff" for c in name))


def format_drop_line(platform_id: str, count: int) -> str:
    return f"{DROP_PREFIX} {platform_id} {count}"


def parse_drop_line(line: str) -> tuple[str, int]:
    """The platform id and count of a ``#dropped`` line; the count must be
    ASCII digits only, as ``format_drop_line`` writes it."""
    parts = line.split()
    if len(parts) != 3 or parts[0] != DROP_PREFIX or not (parts[2].isascii() and parts[2].isdigit()):
        raise ValueError(f"not a drop line: {line!r}")
    return parts[1], int(parts[2])


class RecordSink:
    """Log sink of one platform in one run, with a tumbling 1-second rate
    limit window.

    Timestamps are written on the platform's logged clock (true virtual time
    plus the platform's clock offset); rate limiting and emission order use
    true virtual time. ``lines`` holds the kept lines in emission order and
    ``drops`` counts the records the rate limit dropped.
    """

    def __init__(self, run_id: str, platform_id: str, lines_per_second: int | None = None,
                 clock_offset_us: int = 0):
        self.run_id = run_id
        self.platform_id = platform_id
        self.lines_per_second = lines_per_second
        self.clock_offset_us = clock_offset_us
        self.lines: list[str] = []
        self._window: int | None = None
        self._window_count = 0
        self.drops = 0

    def emit(self, at_us: int, kind: str, function: str, context_id: str, pair_id: str, start_us: int,
             end_us: int, callee: str | None = None, mode: str | None = None, executor_key: str | None = None,
             cold_start: bool | None = None, db_op: str | None = None) -> None:
        """Append one record of this platform at virtual time ``at_us``, given
        by its fields, or count it in ``drops`` when the rate limiter drops
        it; raises MalformedRecord for fields that form no valid record, whose
        line ``parse_record`` would refuse."""
        _check_fields(kind, start_us, end_us, callee, mode, executor_key, cold_start, db_op)
        if self.lines_per_second is not None:
            window = at_us // 1_000_000
            if window != self._window:
                self._window = window
                self._window_count = 0
            if self._window_count >= self.lines_per_second:
                self.drops += 1
                return
            self._window_count += 1
        offset = self.clock_offset_us
        self.lines.append(_format_line(self.run_id, self.platform_id, kind, function, context_id, pair_id,
                                       start_us + offset, end_us + offset, callee, mode, executor_key, cold_start,
                                       db_op))
