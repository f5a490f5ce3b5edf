import importlib.util
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faasbench import runner
from faasbench.benchmarks import load_builtin
from faasbench.records import (
    DB_CALL,
    DROP_PREFIX,
    HEADER_LINE,
    INVOCATION,
    LOADGEN,
    OUTGOING_CALL,
    MalformedRecord,
    RecordSink,
    TraceRecord,
    _check_fields,
    format_drop_line,
    parse_drop_line,
    parse_record,
)
from faasbench.simulator import ID_BLOCK, IdSource

from conftest import recipe_with, serialize_record


def invocation_fields(**kw) -> dict:
    """The fields of an INVOCATION record of run r1 on platform p1, as RecordSink.emit takes them."""
    base = dict(
        kind=INVOCATION,
        function="fn",
        context_id="c" * 32,
        pair_id="a" * 32,
        start_us=10,
        end_us=20,
        executor_key="e" * 32,
        cold_start=True,
    )
    base.update(kw)
    return base


def make_invocation(**kw) -> TraceRecord:
    return TraceRecord(run_id="r1", platform_id="p1", **invocation_fields(**kw))


def test_round_trip_all_kinds():
    records = [
        make_invocation(),
        TraceRecord("r1", "p1", OUTGOING_CALL, "fn", "c" * 32, "b" * 32, start_us=5, end_us=9,
                    callee="other", mode="sync"),
        TraceRecord("r1", "p1", OUTGOING_CALL, "fn", "c" * 32, "d" * 32, start_us=5, end_us=9,
                    callee="evt", mode="async"),
        TraceRecord("r1", "loadgen", OUTGOING_CALL, "loadgen", "c" * 32, "f" * 32, start_us=0, end_us=100,
                    callee="frontend", mode="sync"),
        TraceRecord("r1", "p1", DB_CALL, "fn", "c" * 32, "9" * 32, start_us=3, end_us=6,
                    callee="keystore", db_op="get"),
    ]
    for r in records:
        assert parse_record(serialize_record(r)) == r


hexid = st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)
name = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-", min_size=1, max_size=24)


@settings(max_examples=200)
@given(
    run=name, platform=name, fn=name, ctx=hexid, pair=hexid,
    start=st.integers(min_value=-(10 ** 12), max_value=10 ** 12),
    dur=st.integers(min_value=0, max_value=10 ** 9),
    cold=st.booleans(),
)
def test_round_trip_property(run, platform, fn, ctx, pair, start, dur, cold):
    r = TraceRecord(
        run_id=run, platform_id=platform, kind=INVOCATION, function=fn,
        context_id=ctx, pair_id=pair, start_us=start, end_us=start + dur,
        executor_key="ab" * 16, cold_start=cold,
    )
    assert parse_record(serialize_record(r)) == r


def test_malformed_records_rejected():
    for record in (
        make_invocation(start_us=20, end_us=10),
        make_invocation(executor_key=None),
        TraceRecord("r", "p", OUTGOING_CALL, "f", "c", "p2", 1, 2),  # no callee/mode
        TraceRecord("r", "p", "WEIRD", "f", "c", "p2", 1, 2),
        TraceRecord("r", "p", DB_CALL, "f", "c", "p2", 1, 2, callee="svc", db_op="drop"),
    ):
        with pytest.raises(MalformedRecord):
            parse_record(serialize_record(record))


def test_parse_rejects_wrong_field_count():
    with pytest.raises(MalformedRecord):
        parse_record("a\tb\tc\td\te")


@pytest.mark.parametrize("cold, want", [("-", None), ("1", True), ("0", False), ("true", MalformedRecord),
                                        ("", MalformedRecord), ("2", MalformedRecord)])
def test_parse_maps_the_cold_field(cold, want):
    # a damaged column is refused, not read as a warm start
    fields = serialize_record(make_invocation()).split("\t")
    fields[11] = cold
    if want is None:  # an INVOCATION needs its flag, so read "-" on a call record
        fields[2], fields[6], fields[7], fields[10] = OUTGOING_CALL, "callee", "sync", "-"
    if want is MalformedRecord:
        with pytest.raises(MalformedRecord, match=f"coldStart must be 0, 1 or -, got {cold!r}"):
            parse_record("\t".join(fields))
    else:
        assert parse_record("\t".join(fields)).cold_start is want


def test_records_are_immutable():
    r = make_invocation()
    with pytest.raises(AttributeError):
        r.start_us = 0
    assert r._replace(start_us=0).start_us == 0 and r.start_us == 10


def _reference_cold(column: str) -> bool | None:
    if column not in ("-", "0", "1"):
        raise MalformedRecord("coldStart")
    return None if column == "-" else column == "1"


def _reference_parse(line: str) -> TraceRecord:
    """The column mapping spelled out field by field, by keyword."""
    f = line.split("\t")
    if len(f) != 13:
        raise MalformedRecord("field count")
    record = TraceRecord(
        run_id=f[0], platform_id=f[1], kind=f[2], function=f[3], context_id=f[4], pair_id=f[5],
        callee=None if f[6] == "-" else f[6], mode=None if f[7] == "-" else f[7],
        start_us=int(f[8]), end_us=int(f[9]), executor_key=None if f[10] == "-" else f[10],
        cold_start=_reference_cold(f[11]), db_op=None if f[12] == "-" else f[12],
    )
    _check_fields(record.kind, record.start_us, record.end_us, record.callee, record.mode, record.executor_key,
                  record.cold_start, record.db_op)
    return record


def _outcome(parse, line):
    try:
        return parse(line)
    except ValueError as exc:  # MalformedRecord is a ValueError
        return type(exc)


_VALID_LINES = [
    serialize_record(make_invocation()),
    serialize_record(make_invocation(cold_start=False)),
    serialize_record(TraceRecord("r1", "p1", OUTGOING_CALL, "fn", "c" * 32, "b" * 32, 5, 9,
                                 callee="other", mode="async")),
    serialize_record(TraceRecord("r1", "p1", DB_CALL, "fn", "c" * 32, "9" * 32, 3, 6, callee="kv", db_op="set")),
]
_TOKENS = st.sampled_from(["-", "", "r1", INVOCATION, OUTGOING_CALL, DB_CALL, "WEIRD", "sync", "async", "trigger",
                           "bad", "get", "set", "drop", "0", "1", "7", "-3", "12x", " 5", "1_0"])


@settings(max_examples=300)
@given(line=st.sampled_from(_VALID_LINES), edits=st.dictionaries(st.integers(0, 12), _TOKENS, max_size=3),
       width=st.sampled_from([13, 13, 13, 12, 14]))
def test_parse_record_matches_the_field_by_field_mapping(line, edits, width):
    fields = line.split("\t")
    for i, token in edits.items():
        fields[i] = token
    line = "\t".join((fields + ["x"])[:width])
    assert _outcome(parse_record, line) == _outcome(_reference_parse, line)


def test_sink_rate_limit_cap_arithmetic():
    # 300 records within one virtual second at limit 250 -> 250 kept, 50 dropped
    sink = RecordSink("r1", "p1", lines_per_second=250)
    for i in range(300):
        sink.emit(i * 1000, **invocation_fields(pair_id=f"{i:032x}"))
    assert len(sink.lines) == 250
    assert sink.drops == 50


def test_sink_window_is_tumbling():
    sink = RecordSink("r1", "p1", lines_per_second=2)
    times = [0, 100, 900, 1_000_000, 1_000_001, 1_999_999, 2_000_000]
    for i, t in enumerate(times):
        sink.emit(t, **invocation_fields(pair_id=f"{i:032x}"))
    assert [parse_record(line).pair_id for line in sink.lines] == [f"{i:032x}" for i in (0, 1, 3, 4, 6)]
    assert sink.drops == 2


def test_unlimited_sink_never_drops():
    sink = RecordSink("r1", "p1", lines_per_second=None)
    for i in range(1000):
        sink.emit(0, **invocation_fields(pair_id=f"{i:032x}"))
    assert sink.drops == 0


def test_sink_validates_on_emit():
    sink = RecordSink("r1", "p1")
    with pytest.raises(MalformedRecord):
        sink.emit(0, **invocation_fields(start_us=9, end_us=1))


_CALL = dict(function="fn", context_id="c" * 32, pair_id="b" * 32, start_us=5, end_us=9)


@pytest.mark.parametrize("fields", [
    invocation_fields(start_us=21),
    invocation_fields(executor_key=None),
    invocation_fields(cold_start=None),
    dict(_CALL, kind=OUTGOING_CALL, callee="other", mode="bad"),
    dict(_CALL, kind=OUTGOING_CALL, callee="other"),
    dict(_CALL, kind=OUTGOING_CALL, mode="sync"),
    dict(_CALL, kind=DB_CALL, callee="kv", db_op="drop"),
    dict(_CALL, kind=DB_CALL, callee="kv"),
    dict(_CALL, kind="WEIRD", callee="other", mode="sync"),
], ids=["end-before-start", "no-executor-key", "no-cold-flag", "bad-mode", "no-mode", "no-callee", "bad-db-op",
        "no-db-op", "unknown-kind"])
def test_sink_rejects_at_emit_each_record_that_check_rejects(fields):
    record = TraceRecord(run_id="r1", platform_id="p1", **fields)
    with pytest.raises(MalformedRecord):  # the log's reader refuses its line
        parse_record(serialize_record(record))
    sink = RecordSink("r1", "p1")
    with pytest.raises(MalformedRecord):
        sink.emit(0, **fields)
    assert sink.lines == [] and sink.drops == 0


def test_sink_applies_clock_offset_to_lines_only():
    sink = RecordSink("r1", "p1", clock_offset_us=50_000)
    sink.emit(200, **invocation_fields(start_us=100, end_us=200))
    parsed = parse_record(sink.lines[0])
    assert parsed.start_us == 50_100 and parsed.end_us == 50_200
    assert parsed.run_id == "r1" and parsed.platform_id == "p1"  # the sink's own run and platform
    # the rate limiter windows true time: a logged clock 999 990 us ahead
    # does not carry the second line into the next window
    sink = RecordSink("r1", "p1", lines_per_second=1, clock_offset_us=999_990)
    sink.emit(0, **invocation_fields(start_us=0, end_us=0))
    sink.emit(20, **invocation_fields(start_us=20, end_us=20))
    assert len(sink.lines) == 1 and sink.drops == 1


def test_simulated_lines_with_a_clock_offset_parse_back(tmp_path):
    r = recipe_with("exp2-edge-cloud", "cloud-a", clock_offset_us=2500)
    result = runner.run_benchmark(load_builtin(r.benchmark), r.config, r.profile, 7, tmp_path, scale=0.05)
    lines = result.log_path.read_text().splitlines()
    assert lines[0] == HEADER_LINE
    records = [parse_record(line) for line in lines[1:] if not line.startswith(DROP_PREFIX)]
    platforms = {rec.platform_id for rec in records}
    assert platforms == {LOADGEN, "edge-1", "cloud-a"}
    assert len(records) == result.analysis.parse.records


def test_id_source_uniqueness_at_scale():
    ids = IdSource(np.random.default_rng(0))
    seen = {ids.new_id() for _ in range(100_000)}
    assert len(seen) == 100_000


def test_id_source_replay_under_seed():
    a = IdSource(np.random.default_rng(42))
    b = IdSource(np.random.default_rng(42))
    assert [a.new_id() for _ in range(10)] == [b.new_id() for _ in range(10)]


@pytest.mark.parametrize("make_rng", [
    lambda: np.random.default_rng(7),
    lambda: np.random.default_rng(np.random.SeedSequence(7).spawn(3)[0]),  # as SimEnvironment seeds ids
], ids=["seed", "spawned"])
def test_id_source_blocks_replay_one_draw_per_id(make_rng):
    ids = IdSource(make_rng())
    reference = make_rng()
    n = 2 * ID_BLOCK + 300  # crosses two block boundaries
    for i in range(n):
        want = reference.bytes(16).hex()
        if i % 7 == 3:  # run ids interleaved irregularly with plain ids
            assert ids.new_run_id() == "r" + want[:12], f"id {i}"
        else:
            assert ids.new_id() == want, f"id {i}"


def test_id_format():
    ids = IdSource(np.random.default_rng(1))
    ctx = ids.new_id()
    assert len(ctx) == 32 and int(ctx, 16) >= 0


def test_drop_line_round_trip():
    line = format_drop_line("p1", 42)
    assert parse_drop_line(line) == ("p1", 42)
    with pytest.raises(ValueError):
        parse_drop_line("#dropped p1")


# a fresh interpreter loads one module file on its own, with no package
# around it, and reports whether numpy came with it
_LOAD_ALONE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location(sys.argv[1], sys.argv[2])
module = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = module  # before exec_module, as an import does: dataclasses look the module up
spec.loader.exec_module(module)
print(sorted(name for name in ("numpy", "faasbench") if name in sys.modules))
"""


@pytest.mark.parametrize("name", ["records", "distributions"])
def test_the_module_loads_on_its_own_without_numpy(name):
    # the offline analyzer's leaf modules use numpy at most in annotations
    path = importlib.util.find_spec(f"faasbench.{name}").origin
    out = subprocess.run([sys.executable, "-c", _LOAD_ALONE, name, path], capture_output=True, encoding="utf-8",
                         check=True)
    assert out.stdout == "[]\n"
