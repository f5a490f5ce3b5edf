import csv
import gc
import hashlib
import json
import math
import random
import struct
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faasbench import analysis as analysis_module, runner
from faasbench.analysis import (
    AnalysisError,
    LatencyBreakdown,
    METRIC_NAMES,
    ParseReport,
    RunAnalysis,
    analyze_log_text,
    analyze_records,
    build_trees,
    coldstart_crosscheck,
    count_contexts,
    coldstart_report,
    decompose,
    estimate_skew_corrected_network,
    parse_logs,
    PhaseWindow,
    summarize,
    summary_stats,
    trigger_metrics,
    write_reports,
)
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.charts import BOX_EDGE, INK, MEDIAN, _ticks, box_chart_png
from faasbench.distributions import parse_duration
from faasbench.records import (
    DB_CALL,
    HEADER_LINE,
    INVOCATION,
    LOADGEN,
    MODE_ASYNC,
    MODE_SYNC,
    MODE_TRIGGER,
    OUTGOING_CALL,
    TraceRecord,
)
from faasbench.recipes import KEYSTORE, exp3_three_way_factory, recipe
from faasbench.runner import analyze_file, default_config, run_benchmark
from faasbench.workload import execute, schedule

from conftest import (burst_profile, deployed_env, parallel_publish_app, recipe_with, serialize_record,
                      set_collector, truth_edges_by_context)

MS = 1000


def _id(n: int) -> str:
    return f"{n:032x}"


def rec(kind, fn, pair, start, end, platform="p1", ctx=_id(1), **kw):
    base = dict(
        run_id="r1", platform_id=platform, kind=kind, function=fn,
        context_id=ctx, pair_id=pair, start_us=start, end_us=end,
    )
    if kind == INVOCATION:
        base.setdefault("executor_key", _id(99))
        base.setdefault("cold_start", False)
    base.update(kw)
    return TraceRecord(**base)


def root_rec(pair, start, end, callee="a", ctx=_id(1)):
    return rec(OUTGOING_CALL, LOADGEN, pair, start, end, platform=LOADGEN, ctx=ctx,
               callee=callee, mode=MODE_SYNC)


def coldstart_fields(analysis):
    """An analysis' four cold-start results, comparable as one value."""
    return analysis.total_invocations, analysis.total_cold, analysis.per_phase, analysis.timeline


# -- parsing -----------------------------------------------------------------


def test_parse_empty_input():
    records, report = parse_logs("")
    assert records == [] and report.parse_errors == 0


def test_parse_round_trip_line():
    r = rec(INVOCATION, "fn", _id(2), 10, 20)
    text = HEADER_LINE + "\n" + serialize_record(r) + "\n"
    records, report = parse_logs(text)
    assert records == [r] and report.parse_errors == 0


def test_parse_skips_malformed_lines():
    text = HEADER_LINE + "\na\tb\tc\td\te\n"
    records, report = parse_logs(text)
    assert records == [] and report.parse_errors == 1


def test_parse_requires_header():
    r = rec(INVOCATION, "fn", _id(2), 10, 20)
    with pytest.raises(AnalysisError, match="^missing or unsupported log header: "):
        parse_logs(serialize_record(r))
    with pytest.raises(AnalysisError, match="^missing or unsupported log header: '#faastrace v999'$"):
        parse_logs("#faastrace v999\n")


def _edit(line: str, **at) -> str:
    fields = line.split("\t")
    for i, value in at.items():
        fields[int(i[1:])] = value
    return "\t".join(fields)


GOOD_INV = serialize_record(rec(INVOCATION, "fn", _id(2), 10, 20))
GOOD_CALL = serialize_record(rec(OUTGOING_CALL, "fn", _id(3), 12, 18, callee="g", mode=MODE_SYNC))
GOOD_DB = serialize_record(rec(DB_CALL, "fn", _id(4), 13, 14, callee="keystore", db_op="get"))

MALFORMED_LINES = {
    "twelve fields": GOOD_INV.rsplit("\t", 1)[0],
    "fourteen fields": GOOD_INV + "\t-",
    "non-integer start": _edit(GOOD_INV, f8="10.5"),
    "non-integer end": _edit(GOOD_INV, f9="x"),
    "end before start": _edit(GOOD_INV, f8="21"),
    "unknown kind": _edit(GOOD_INV, f2="RETURN"),
    "invocation without executor key": _edit(GOOD_INV, f10="-"),
    "invocation without cold flag": _edit(GOOD_INV, f11="-"),
    "call without callee": _edit(GOOD_CALL, f6="-"),
    "call with a bad mode": _edit(GOOD_CALL, f7="oneway"),
    "call without a mode": _edit(GOOD_CALL, f7="-"),
    "db call with a bad op": _edit(GOOD_DB, f12="drop"),
    "start at -2**63": _edit(GOOD_INV, f8=str(-2 ** 63)),
    "end at 2**63": _edit(GOOD_INV, f9=str(2 ** 63)),
    "start and end far past 64 bits": _edit(GOOD_INV, f8=str(-10 ** 400), f9=str(10 ** 400)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_parse_counts_and_skips_each_malformed_line(case):
    text = "\n".join([HEADER_LINE, GOOD_INV, MALFORMED_LINES[case], GOOD_CALL, GOOD_DB]) + "\n"
    records, report = parse_logs(text)
    assert report.parse_errors == 1 and report.records == 3
    assert [serialize_record(r) for r in records] == [GOOD_INV, GOOD_CALL, GOOD_DB]


def test_parse_takes_timestamps_strictly_inside_64_bits():
    line = _edit(GOOD_INV, f8=str(-2 ** 63 + 1), f9=str(2 ** 63 - 1))
    records, report = parse_logs(HEADER_LINE + "\n" + line)
    assert report.parse_errors == 0 and (records[0].start_us, records[0].end_us) == (-2 ** 63 + 1, 2 ** 63 - 1)


def test_parse_skips_blank_and_comment_lines():
    lines = ["", "  ", HEADER_LINE, "\t", GOOD_INV, " \t ", "# a note", "#" + GOOD_CALL, "", GOOD_DB]
    records, report = parse_logs("\n".join(lines))
    assert report.parse_errors == 0 and report.drops == {}
    assert [serialize_record(r) for r in records] == [GOOD_INV, GOOD_DB]


def test_parse_collects_drop_counters():
    text = HEADER_LINE + "\n#dropped p1 42\n#dropped loadgen 0\n"
    _, report = parse_logs(text)
    assert report.drops == {"p1": 42, "loadgen": 0}
    assert report.total_drops == 42


@pytest.mark.parametrize("count", ["-5", "+7", "1_000", "\u0664"])
def test_parse_counts_a_drop_count_other_than_ascii_digits_as_an_error(count):
    # the sinks write the count as ASCII digits; int() would also take a sign,
    # underscores or another script's digits
    _, report = parse_logs(f"{HEADER_LINE}\n#dropped p1 {count}\n#dropped loadgen 3\n")
    assert report.parse_errors == 1 and report.drops == {"loadgen": 3}


def test_analyze_file_splits_lines_like_splitlines(tmp_path, monkeypatch):
    # the file reader ends lines at \n, \r and \r\n, splitlines at all of these,
    # and a line cut by the end of a chunk read goes on in the next
    lines = [HEADER_LINE, GOOD_INV, GOOD_CALL, GOOD_DB, "#dropped p1 3", _edit(GOOD_INV, f3="f\x85n"), GOOD_CALL,
             "", _edit(GOOD_DB, f3="f\u2028n"), GOOD_DB]
    separators = ["\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\n", "\r\n", "\x0b"]
    text = "".join(line + sep for line, sep in zip(lines, separators + ["\r"]))
    path = tmp_path / "raw.log"
    path.write_text(text, newline="")  # keep every \r as written
    records, report = parse_logs(path.read_text())
    assert report == ParseReport(records=5, parse_errors=4, drops={"p1": 3})
    parsed, counted = [], []

    def recording_parse_logs(text_or_lines):
        parsed.append(parse_logs(text_or_lines))
        return parsed[-1]

    def recording_count_contexts(line_batches):
        counted.append([line for batch in line_batches for line in batch])
        return count_contexts([counted[-1]])

    monkeypatch.setattr(analysis_module, "parse_logs", recording_parse_logs)
    monkeypatch.setattr(runner, "count_contexts", recording_count_contexts)
    for chunk in (1, 2, 3, 7, runner.READ_CHUNK_CHARS):
        monkeypatch.setattr(runner, "READ_CHUNK_CHARS", chunk)
        parsed.clear()
        counted.clear()
        kept = analyze_file(path, keep_trees=True)
        assert parsed == [(records, report)], chunk
        # the streamed read counts its contexts over the same lines, and parses them
        streamed = analyze_file(path)
        assert counted == [path.read_text().splitlines()], chunk
        assert streamed.parse == report and streamed.tree_count == kept.tree_count == len(kept.trees)
        assert coldstart_fields(streamed) == coldstart_fields(kept) and streamed.metrics == kept.metrics


def _column_values(records, column):
    """Distinct values of a column, and the distinct string objects holding them."""
    values = [getattr(r, column) for r in records]
    return {v for v in values if v is not None}, {id(v) for v in values if v is not None}


def test_parsed_records_share_one_string_per_column_value(tmp_path):
    r = recipe("exp3-three-way-factory")
    result = run_benchmark(load_builtin(r.benchmark), r.config, r.profile, 7, tmp_path, scale=0.2)
    from_lines, _ = parse_logs(result.log_path.read_text().splitlines())
    from_text, _ = parse_logs(result.log_path.read_text())
    records = from_lines + from_text
    for column in ("run_id", "platform_id", "kind", "function", "callee", "mode", "db_op", "context_id",
                   "executor_key"):
        values, objects = _column_values(records, column)
        assert len(objects) == len(values), column
    # the kinds and modes are the module's own constants
    assert _column_values(records, "kind")[1] == {id(INVOCATION), id(OUTGOING_CALL), id(DB_CALL)}
    assert _column_values(records, "mode")[1] == {id(MODE_SYNC), id(MODE_ASYNC), id(MODE_TRIGGER)}
    # pair ids stay the line's own strings
    values, objects = _column_values(records, "pair_id")
    assert len(objects) == len(records) and len(values) < len(records)


def test_raw_log_is_the_collected_lines_each_ended_by_a_newline(tmp_path, monkeypatch):
    r = recipe("exp3-three-way-factory")
    app = load_builtin(r.benchmark)
    collected = []
    collect_log = runner.SimEnvironment.collect_log

    def capture(env, run_id):
        collected.append(collect_log(env, run_id))
        return collected[-1]

    monkeypatch.setattr(runner.SimEnvironment, "collect_log", capture)
    result = run_benchmark(app, r.config, r.profile, 7, tmp_path / "a", scale=0.2)
    (lines,) = collected
    assert result.log_path.read_bytes() == ("\n".join(lines) + "\n").encode()
    # a chunk size that divides nothing evenly writes the same bytes
    monkeypatch.setattr(runner, "WRITE_CHUNK_LINES", 7)
    chunked = run_benchmark(app, r.config, r.profile, 7, tmp_path / "b", scale=0.2)
    assert len(lines) % 7 and chunked.log_path.read_bytes() == ("\n".join(lines) + "\n").encode()


# -- tree building -----------------------------------------------------------


def decomposed(tree):
    """decompose one tree into fresh metric groups: (its totals, the groups)."""
    metrics = {name: {} for name in METRIC_NAMES}
    return decompose(tree, metrics), metrics


def chain_records():
    """loadgen -> a -> b with one db call on a; constant 15ms legs."""
    return [
        root_rec(_id(10), 0, 100 * MS),
        rec(INVOCATION, "a", _id(10), 15 * MS, 85 * MS),
        rec(OUTGOING_CALL, "a", _id(11), 20 * MS, 60 * MS, callee="b", mode=MODE_SYNC),
        rec(INVOCATION, "b", _id(11), 35 * MS, 45 * MS),
        rec(DB_CALL, "a", _id(12), 62 * MS, 65 * MS, callee="keystore", db_op="get"),
    ]


def test_tree_depth_one():
    records = [root_rec(_id(10), 0, 40 * MS), rec(INVOCATION, "a", _id(10), 15 * MS, 25 * MS)]
    trees = build_trees(records)
    assert len(trees) == 1
    tree = trees[0]
    assert tree.complete and tree.root_node.record.function == "a"
    assert sum(1 for _ in tree.nodes()) == 1


def test_tree_chain_structure():
    trees = build_trees(chain_records())
    assert len(trees) == 1 and trees[0].complete
    a = trees[0].root_node
    assert a.record.function == "a"
    assert [e.child.record.function for e in a.calls] == ["b"]
    assert [d.callee for d in a.db_calls] == ["keystore"]


def test_walk_and_decompose_keep_depth_first_call_order():
    records = [
        root_rec(_id(10), 0, 100 * MS),
        rec(INVOCATION, "a", _id(10), 10 * MS, 90 * MS),
        rec(OUTGOING_CALL, "a", _id(11), 20 * MS, 50 * MS, callee="b", mode=MODE_SYNC),
        rec(INVOCATION, "b", _id(11), 25 * MS, 45 * MS),
        rec(OUTGOING_CALL, "b", _id(12), 30 * MS, 40 * MS, callee="d", mode=MODE_SYNC),
        rec(INVOCATION, "d", _id(12), 32 * MS, 38 * MS),
        rec(OUTGOING_CALL, "a", _id(13), 60 * MS, 80 * MS, callee="c", mode=MODE_SYNC),
        rec(INVOCATION, "c", _id(13), 65 * MS, 75 * MS),
    ]
    (tree,) = build_trees(records)
    assert tree.complete
    assert [n.record.function for n in tree.nodes()] == ["a", "b", "d", "c"]  # pre-order
    _, metrics = decomposed(tree)
    assert list(metrics["network"]) == ["a->b", "a->c", "b->d"]
    assert list(metrics["compute"]) == ["a", "b", "d", "c"]  # a node's rows, then its subtree's


def test_a_record_goes_to_the_innermost_invocation_that_contains_it():
    # four overlapping invocations of b in one context: two nested, two that
    # start in the same microsecond
    calls = [(11, 10, 90, 20, 80), (12, 25, 65, 30, 60), (13, 95, 160, 100, 150), (14, 95, 150, 100, 140)]
    records = [root_rec(_id(10), 0, 200 * MS), rec(INVOCATION, "a", _id(10), 5 * MS, 195 * MS)]
    for pair, call_start, call_end, start, end in calls:
        records.append(rec(OUTGOING_CALL, "a", _id(pair), call_start * MS, call_end * MS, callee="b", mode=MODE_SYNC))
        records.append(rec(INVOCATION, "b", _id(pair), start * MS, end * MS))
    stores = {20: (40, 45), 21: (65, 70), 22: (110, 120), 23: (141, 145)}
    records += [rec(DB_CALL, "b", _id(pair), start * MS, end * MS, callee="keystore", db_op="get")
                for pair, (start, end) in stores.items()]
    (tree,) = build_trees(records)
    assert tree.complete
    owners = {d.pair_id: n.record.pair_id for n in tree.nodes() for d in n.db_calls}
    assert owners == {
        _id(20): _id(12),  # inside both nested ones: the later start wins
        _id(21): _id(11),  # past the inner one's end
        _id(22): _id(14),  # inside both equal starts: the larger pair id wins
        _id(23): _id(13),  # past the end of 14
    }


def test_dropped_invocation_marks_tree_incomplete():
    records = [r for r in chain_records() if not (r.kind == INVOCATION and r.function == "b")]
    trees = build_trees(records)
    assert len(trees) == 1
    assert not trees[0].complete
    metrics = {name: {} for name in METRIC_NAMES}
    with pytest.raises(AnalysisError, match=f"^context {trees[0].context_id} is incomplete$"):
        decompose(trees[0], metrics)
    assert metrics == {name: {} for name in METRIC_NAMES}  # no row of an incomplete tree


def test_orphans_grouped_under_synthetic_root():
    records = [r for r in chain_records() if r.platform_id != LOADGEN]
    # drop the outgoing a->b record too: b becomes an orphan below orphan a
    records = [r for r in records if r.kind != OUTGOING_CALL]
    trees = build_trees(records)
    synthetic = [t for t in trees if t.root is None]
    assert len(synthetic) == 1
    assert not synthetic[0].complete
    assert {n.record.function for n in synthetic[0].nodes()} == {"a", "b"}


def test_tree_partition_counts():
    records = chain_records()
    trees = build_trees(records)
    n_inv = sum(1 for r in records if r.kind == INVOCATION)
    assert sum(1 for t in trees for _ in t.nodes()) == n_inv


def test_dropped_outgoing_record_poisons_the_whole_context():
    # only the a->b OUTGOING record is lost: the root tree would look closed
    # while silently missing b's subtree, so detectable loss in the context
    # must mark it incomplete and keep it out of decomposition
    records = [r for r in chain_records() if r.kind != OUTGOING_CALL or r.platform_id == LOADGEN]
    trees = build_trees(records)
    assert len(trees) == 1  # orphan folds into the context's root tree
    tree = trees[0]
    assert not tree.complete
    assert tree.root is not None
    assert {n.record.function for n in tree.nodes()} == {"a", "b"}
    n_inv = sum(1 for r in records if r.kind == INVOCATION)
    assert sum(1 for t in trees for _ in t.nodes()) == n_inv
    with pytest.raises(AnalysisError, match=f"^context {tree.context_id} is incomplete$"):
        decomposed(tree)


def test_duplicated_invocation_pair_id_marks_only_its_context_incomplete():
    # a replayed INVOCATION line would silently replace the original node
    r = exp3_three_way_factory()
    app, cfg, profile = load_builtin(r.benchmark), r.config, r.profile.scaled(0.05)
    env, plan = deployed_env(app, cfg, seed=4)
    execute(schedule(profile, env.loadgen_rng), plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    before = {t.context_id: t.complete for t in build_trees(records)}
    assert len(before) > 1 and all(before.values())

    replayed = next(rec for rec in records if rec.kind == INVOCATION)
    after = build_trees(records + [replayed])
    assert {t.context_id for t in after if not t.complete} == {replayed.context_id}
    assert len(after) == len(before)


def test_a_replayed_root_line_leaves_its_context_without_a_complete_tree():
    # the second root line finds its invocation linked: an unmatched pair,
    # not a second complete tree over the same invocation
    r = recipe("exp4-coldstart")
    env, plan = deployed_env(load_builtin(r.benchmark), r.config, seed=7)
    execute(schedule(r.profile.scaled(0.01), env.loadgen_rng), plan, env)
    env.run_until_idle()
    records, report = parse_logs(env.collect_log(env.run_id))
    clean = analyze_records(records, report)
    assert clean.incomplete_trees == 0 and clean.complete_trees > 1
    root = next(r for r in records if r.platform_id == LOADGEN)
    replayed = analyze_records(records + [root], report)
    assert [t.complete for t in replayed.trees if t.context_id == root.context_id] == [False, False]
    assert replayed.complete_trees == clean.complete_trees - 1
    for metric, groups in replayed.metrics.items():
        for group, counts in groups.items():
            assert Counter(counts) <= Counter(clean.metrics[metric][group]), (metric, group)


def test_a_replayed_db_call_line_marks_its_context_and_adds_no_db_row():
    records = chain_records()
    db = next(r for r in records if r.kind == DB_CALL)
    analysis = analyze_records(records + [db], ParseReport(records=6))
    (tree,) = analysis.trees
    assert not tree.complete
    assert analysis.metrics["db"] == {} and analysis.breakdowns == []


def two_root_records():
    """One context of two load-generator calls: loadgen -> a, then loadgen -> a -> b."""
    return [
        root_rec(_id(10), 0, 20 * MS),
        rec(INVOCATION, "a", _id(10), 5 * MS, 15 * MS),
        root_rec(_id(20), 30 * MS, 80 * MS),
        rec(INVOCATION, "a", _id(20), 35 * MS, 75 * MS),
        rec(OUTGOING_CALL, "a", _id(21), 40 * MS, 60 * MS, callee="b", mode=MODE_SYNC),
        rec(INVOCATION, "b", _id(21), 45 * MS, 55 * MS),
    ]


def test_a_lost_leaf_marks_both_trees_of_a_two_root_context():
    assert [t.complete for t in build_trees(two_root_records())] == [True, True]
    trees = build_trees(two_root_records()[:-1])
    assert [t.root.pair_id for t in trees] == [_id(10), _id(20)]
    assert [t.complete for t in trees] == [False, False]


def test_a_context_of_one_db_call_yields_one_rootless_tree(tmp_path):
    lone = rec(DB_CALL, "a", _id(30), 0, MS, ctx=_id(2), callee="keystore", db_op="get")
    records = chain_records() + [lone]
    analysis = analyze_records(records, ParseReport(records=len(records)))
    (tree,) = [t for t in analysis.trees if t.context_id == _id(2)]
    assert tree.root is None and tree.root_node is None and tree.orphans == () and not tree.complete
    write_reports(analysis, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["trees"] == {"total": 2, "complete": 1, "incomplete": 1}


def test_a_repeated_invocation_pair_counts_its_first_line():
    records = chain_records()
    first_b = records[3]
    later_b = first_b._replace(end_us=first_b.end_us + 5 * MS, cold_start=True)
    analysis = analyze_records(records + [later_b], ParseReport(records=6))
    assert analysis.metrics["exec_duration"]["b"] == {first_b.end_us - first_b.start_us: 1}
    assert analysis.total_invocations == 2 and analysis.total_cold == 0
    (tree,) = analysis.trees
    assert not tree.complete
    assert [n.record for n in tree.nodes()] == [records[1], first_b]


def test_replayed_invocation_line_is_counted_once(tmp_path):
    # factory-events at seed 7: 900 orderSupplies invocations, 29700 in all
    r = recipe("exp3-three-way-factory")
    result = run_benchmark(load_builtin(r.benchmark), r.config, r.profile, 7, tmp_path, scale=5.0)
    text = result.log_path.read_text()
    replayed = next(line for line in text.splitlines() if line.split("\t")[2:4] == [INVOCATION, "orderSupplies"])
    result.log_path.write_text(text + replayed + "\n")

    analysis = analyze_file(result.log_path)
    assert analysis.trees is None and analysis.incomplete_trees == 1
    assert sum(analysis.metrics["exec_duration"]["orderSupplies"].values()) == 900
    assert analysis.total_invocations == 29700
    assert analysis.metrics["exec_duration"] == result.analysis.metrics["exec_duration"]
    assert coldstart_fields(analysis) == coldstart_fields(result.analysis)
    assert analysis.cold_flag_mismatches == 0
    ctx = replayed.split("\t")[4]
    assert {t.context_id for t in analyze_file(result.log_path, keep_trees=True).trees if not t.complete} == {ctx}
    assert analysis.parse.records == result.analysis.parse.records + 1


# -- decomposition -----------------------------------------------------------


def test_decompose_forced_arithmetic():
    # A executes 10ms, makes one 6ms sync call to B which executes 2ms
    records = [
        root_rec(_id(10), 0, 20 * MS),
        rec(INVOCATION, "A", _id(10), 5 * MS, 15 * MS),
        rec(OUTGOING_CALL, "A", _id(11), 6 * MS, 12 * MS, callee="B", mode=MODE_SYNC),
        rec(INVOCATION, "B", _id(11), 8 * MS, 10 * MS),
    ]
    bd, metrics = decomposed(build_trees(records)[0])
    assert metrics["compute"] == {"B": {2 * MS: 1}, "A": {4 * MS: 1}}
    assert metrics["network"] == {"A->B": {4 * MS: 1}}
    assert metrics["root_round_trip"] == {"a": {20 * MS: 1}}  # keyed by the root call's callee
    # root leg 20 - 10 plus the A->B leg 4
    assert (bd.total_compute_us, bd.total_network_us, bd.total_db_us) == (6 * MS, 14 * MS, 0)
    assert bd.conservation_residual_us == 0


def test_decompose_leaf_only():
    records = [root_rec(_id(10), 0, 9 * MS), rec(INVOCATION, "A", _id(10), 2 * MS, 7 * MS)]
    bd, metrics = decomposed(build_trees(records)[0])
    assert metrics["compute"] == {"A": {5 * MS: 1}}
    assert metrics["network"] == {} and metrics["db"] == {}
    # the only network is the root's: load-generator round trip minus A's execution
    assert (bd.total_compute_us, bd.total_network_us, bd.total_db_us) == (5 * MS, 4 * MS, 0)
    assert bd.conservation_residual_us == 0


def test_decompose_parallel_block_span():
    # two overlapping 6ms calls starting together: block span 8ms (second runs 2..8)
    records = [
        root_rec(_id(10), 0, 30 * MS),
        rec(INVOCATION, "A", _id(10), 5 * MS, 25 * MS),
        rec(OUTGOING_CALL, "A", _id(11), 6 * MS, 12 * MS, callee="B", mode=MODE_SYNC),
        rec(INVOCATION, "B", _id(11), 8 * MS, 10 * MS),
        rec(OUTGOING_CALL, "A", _id(12), 6 * MS, 14 * MS, callee="C", mode=MODE_SYNC),
        rec(INVOCATION, "C", _id(12), 9 * MS, 11 * MS),
    ]
    bd, metrics = decomposed(build_trees(records)[0])
    assert metrics["compute"] == {"B": {2 * MS: 1}, "C": {2 * MS: 1}, "A": {20 * MS - 8 * MS: 1}}
    # in-block edges keep their drill-down rows
    assert metrics["network"] == {"A->B": {4 * MS: 1}, "A->C": {6 * MS: 1}}
    # branch internals are drill-down only: conservation uses the span, so the
    # totals hold A's compute, the root leg 10 and the 8ms block wait, and
    # neither B and C's compute nor the in-block network legs
    assert (bd.total_compute_us, bd.total_network_us, bd.total_db_us) == (12 * MS, 18 * MS, 0)
    assert bd.conservation_residual_us == 0


def test_decompose_async_edges_do_not_reduce_compute():
    pub_name = "__publisher_p1"
    records = [
        root_rec(_id(10), 0, 30 * MS),
        rec(INVOCATION, "A", _id(10), 5 * MS, 25 * MS),
        # async call accepted after 5ms, publisher runs 10..12
        rec(OUTGOING_CALL, "A", _id(11), 10 * MS, 12 * MS, callee="evt", mode=MODE_ASYNC),
        rec(INVOCATION, pub_name, _id(11), 10 * MS, 12 * MS),
        rec(OUTGOING_CALL, pub_name, _id(12), 10 * MS, 10 * MS, callee="evt", mode=MODE_TRIGGER),
        rec(INVOCATION, "evt", _id(12), 110 * MS, 111 * MS),
    ]
    bd, metrics = decomposed(build_trees(records)[0])
    # async edge not subtracted; the publisher and the triggered function are
    # outside the root round trip
    assert metrics["compute"] == {"A": {20 * MS: 1}, "evt": {1 * MS: 1}, pub_name: {2 * MS: 1}}
    assert metrics["publish_latency"] == {"p1->p1": {0: 1}}
    assert metrics["trigger_delay"] == {"p1->p1": {100 * MS: 1}}
    assert metrics["network"] == {}
    assert (bd.total_compute_us, bd.total_network_us, bd.total_db_us) == (20 * MS, 10 * MS, 0)
    assert bd.conservation_residual_us == 0


def test_a_publisher_is_decomposed_like_any_node():
    # a publisher that makes a store call: its db row is kept and its compute
    # excludes the call; neither touches the conserved totals
    pub_name = "__publisher_p1"
    records = [
        root_rec(_id(10), 0, 30 * MS),
        rec(INVOCATION, "A", _id(10), 5 * MS, 25 * MS),
        rec(OUTGOING_CALL, "A", _id(11), 10 * MS, 14 * MS, callee="evt", mode=MODE_ASYNC),
        rec(INVOCATION, pub_name, _id(11), 10 * MS, 14 * MS),
        rec(DB_CALL, pub_name, _id(13), 11 * MS, 12 * MS, callee="keystore", db_op="get"),
        rec(OUTGOING_CALL, pub_name, _id(12), 13 * MS, 13 * MS, callee="evt", mode=MODE_TRIGGER),
        rec(INVOCATION, "evt", _id(12), 110 * MS, 111 * MS),
    ]
    bd, metrics = decomposed(build_trees(records)[0])
    assert metrics["db"] == {"p1/keystore": {1 * MS: 1}}
    assert metrics["compute"] == {"A": {20 * MS: 1}, pub_name: {3 * MS: 1}, "evt": {1 * MS: 1}}
    assert metrics["publish_latency"] == {"p1->p1": {0: 1}}
    assert metrics["trigger_delay"] == {"p1->p1": {100 * MS: 1}}
    assert (bd.total_compute_us, bd.total_network_us, bd.total_db_us) == (20 * MS, 10 * MS, 0)
    assert bd.conservation_residual_us == 0


def test_an_async_call_without_a_trigger_adds_no_trigger_group():
    records = [
        root_rec(_id(10), 0, 30 * MS),
        rec(INVOCATION, "A", _id(10), 5 * MS, 25 * MS),
        rec(OUTGOING_CALL, "A", _id(11), 10 * MS, 12 * MS, callee="evt", mode=MODE_ASYNC),
        rec(INVOCATION, "__publisher_p1", _id(11), 10 * MS, 12 * MS),
    ]
    _, metrics = decomposed(build_trees(records)[0])
    assert metrics["publish_latency"] == {"p1->p1": {0: 1}}
    assert metrics["trigger_delay"] == {}


def test_trigger_metrics_empty_for_sync_only():
    _, metrics = decomposed(build_trees(chain_records())[0])
    assert metrics["network"] and metrics["db"]
    assert trigger_metrics(metrics) == ({}, {})


# -- skew-corrected estimates ------------------------------------------------


def symmetric_edge_records(offset_us=0):
    return [
        root_rec(_id(10), 0, 50 * MS),
        rec(INVOCATION, "A", _id(10), 10 * MS, 46 * MS),
        rec(OUTGOING_CALL, "A", _id(11), 11 * MS, 43 * MS, callee="B", mode=MODE_SYNC),
        rec(INVOCATION, "B", _id(11), 26 * MS + offset_us, 28 * MS + offset_us, platform="p2"),
    ]


def one_way_estimates(records):
    return estimate_skew_corrected_network(decomposed(build_trees(records)[0])[1])


def test_one_way_estimate_symmetric_exact():
    assert one_way_estimates(symmetric_edge_records()) == {"p1->p2": {15 * MS: 1}}


def test_one_way_estimate_ignores_clock_offset():
    base = one_way_estimates(symmetric_edge_records())
    skewed = one_way_estimates(symmetric_edge_records(offset_us=50 * MS))
    assert base == skewed == {"p1->p2": {15 * MS: 1}}


def test_one_way_estimate_asymmetric_mean():
    # 10ms out, 20ms back: estimate is the 15ms mean (documented bias 5ms/leg)
    records = [
        root_rec(_id(10), 0, 50 * MS),
        rec(INVOCATION, "A", _id(10), 0, 40 * MS),
        rec(OUTGOING_CALL, "A", _id(11), 1 * MS, 33 * MS, callee="B", mode=MODE_SYNC),
        rec(INVOCATION, "B", _id(11), 11 * MS, 13 * MS, platform="p2"),
    ]
    assert one_way_estimates(records) == {"p1->p2": {15 * MS: 1}}


# -- cold starts -------------------------------------------------------------


def test_coldstart_report_phases_and_timeline():
    records = []
    for i in range(10):
        records.append(
            rec(INVOCATION, "fn", _id(20 + i), i * 500 * MS, i * 500 * MS + 9 * MS,
                ctx=_id(50 + i), cold_start=(i == 0), executor_key=_id(7))
        )
    phases = [
        PhaseWindow("0:burst", "burst", 0, 2_000_000),
        PhaseWindow("1:pause", "pause", 2_000_000, 3_000_000),
        PhaseWindow("2:burst", "burst", 3_000_000, 5_000_000),
    ]
    report = coldstart_report(records, phases)
    assert report.total_invocations == 10 and report.total_cold == 1
    by_name = {name: (n, cold) for name, n, cold in report.per_phase}
    assert by_name["0:burst"] == (4, 1)
    assert by_name["1:pause"] == (2, 0)
    assert report.timeline[0].count == 2  # bucket 0 of the last burst covers [3s, 4s)
    assert report.timeline[0].p50_exec_us == 9 * MS


def test_coldstart_timeline_bucket_edges():
    lo = 7_000_000
    starts = [lo - 1, lo, lo + 999_999, lo + 1_000_000, lo + 30_000_000]
    records = [rec(INVOCATION, "fn", _id(20 + i), s, s + (i + 1) * MS, ctx=_id(50 + i), cold_start=(i == 1))
               for i, s in enumerate(starts)]
    report = coldstart_report(records, [PhaseWindow("0:burst", "burst", lo, lo + 60_000_000)])
    assert [(b.index, b.count, b.cold) for b in report.timeline[:3]] == [(0, 2, 1), (1, 1, 0), (2, 0, 0)]
    assert [b.p50_exec_us for b in report.timeline[:3]] == [2 * MS, 4 * MS, None]
    assert len(report.timeline) == 30 and sum(b.count for b in report.timeline) == 3


def test_coldstart_timeline_equals_a_scan_per_second():
    rng = np.random.default_rng(5)
    lo = 2_000_000
    records = [rec(INVOCATION, "fn", _id(i), int(s), int(s) + int(d), ctx=_id(10_000 + i), cold_start=bool(c))
               for i, (s, d, c) in enumerate(zip(rng.integers(0, 40_000_000, 400), rng.integers(1, 9_000, 400),
                                                 rng.integers(0, 2, 400)))]
    report = coldstart_report(records, [PhaseWindow("0:burst", "burst", lo, lo + 40_000_000)])
    for i, b in enumerate(report.timeline):
        bucket = [r for r in records if lo + i * 1_000_000 <= r.start_us < lo + (i + 1) * 1_000_000]
        execs = sorted(r.end_us - r.start_us for r in bucket)
        assert (b.index, b.count, b.cold) == (i, len(bucket), sum(1 for r in bucket if r.cold_start))
        # the nearest rank, 1-based ceil(n / 2), of the sorted list
        assert b.p50_exec_us == (execs[max(1, math.ceil(0.5 * len(execs))) - 1] if execs else None)


def test_coldstart_phases_equal_a_scan_per_phase():
    # windows as a profile gives them: in time order, touching, one of them empty
    phases = [PhaseWindow("0:burst", "burst", 0, 3_000_000), PhaseWindow("1:pause", "pause", 3_000_000, 3_000_000),
              PhaseWindow("2:constantRate", "constantRate", 3_000_000, 7_000_000),
              PhaseWindow("3:burst", "burst", 7_000_000, 9_000_000)]
    rng = np.random.default_rng(11)
    starts = [0, 2_999_999, 3_000_000, 6_999_999, 7_000_000, 8_999_999, 9_000_000, *rng.integers(0, 9_000_000, 300)]
    records = [rec(INVOCATION, "fn", _id(i), int(s), int(s) + 5, ctx=_id(10_000 + i), cold_start=i % 3 == 0)
               for i, s in enumerate(starts)]
    report = coldstart_report(records, phases)
    assert report.per_phase == [
        (ph.name, sum(1 for r in within), sum(1 for r in within if r.cold_start))
        for ph in phases for within in [[r for r in records if ph.start_us <= r.start_us < ph.end_us]]]
    assert report.per_phase[1][1] == 0 and sum(n for _, n, _ in report.per_phase) == len(records) - 1


def test_coldstart_crosscheck_detects_bad_flags():
    ok = [
        rec(INVOCATION, "fn", _id(1), 0, 5, executor_key=_id(7), cold_start=True),
        rec(INVOCATION, "fn", _id(2), 10, 15, executor_key=_id(7), cold_start=False),
    ]
    assert coldstart_crosscheck(ok) == 0
    bad = [
        rec(INVOCATION, "fn", _id(1), 0, 5, executor_key=_id(7), cold_start=False),
        rec(INVOCATION, "fn", _id(2), 10, 15, executor_key=_id(7), cold_start=True),
    ]
    assert coldstart_crosscheck(bad) == 2
    # the first invocation is the least (start, end, pair id), whatever the input order
    five = [rec(INVOCATION, "fn", _id(i), 10 * i, 10 * i + 5, executor_key=_id(7), cold_start=i in (3, 6))
            for i in (4, 3, 6, 5, 7)]
    assert coldstart_crosscheck(five) == 1
    for seed in range(5):
        random.Random(seed).shuffle(five)
        assert coldstart_crosscheck(five) == 1
    # equal starts are ordered by end, then by pair id
    by_end = [rec(INVOCATION, "fn", _id(1), 0, 9, executor_key=_id(7), cold_start=False),
              rec(INVOCATION, "fn", _id(2), 0, 5, executor_key=_id(7), cold_start=True)]
    assert coldstart_crosscheck(by_end) == 0
    assert coldstart_crosscheck(by_end[::-1]) == 0
    by_pair = [rec(INVOCATION, "fn", _id(2), 0, 5, executor_key=_id(7), cold_start=False),
               rec(INVOCATION, "fn", _id(1), 0, 5, executor_key=_id(7), cold_start=True)]
    assert coldstart_crosscheck(by_pair) == 0
    assert coldstart_crosscheck(by_pair[::-1]) == 0


# -- summaries ---------------------------------------------------------------


def test_nearest_rank_quantiles():
    vals = [1, 2, 3, 4, 5]
    s = summary_stats(Counter(vals))
    assert s.p50 == 3 and s.p25 == 2 and s.p75 == 4
    assert s.min == 1 and s.max == 5


def test_summary_empty():
    s = summary_stats(Counter())
    assert s.count == 0 and s.p50 is None and s.min is None


def test_whiskers_exclude_far_outliers():
    s = summary_stats(Counter([1, 2, 3, 4, 100]))
    assert s.whisker_high == 4 and s.max == 100
    assert s.whisker_low == 1


@pytest.mark.parametrize("offsets, whiskers", [([3], (3, 3)), ([-20, -3, 7, 8, 18], (-3, 18))])
def test_whiskers_of_integers_past_2_53_are_exact(offsets, whiskers):
    # as floats, 2**54 + 3 reads as 2**54 + 4, and 2**54 - 20 as inside the
    # lower limit 2**54 - 3 - 1.5 * 11
    base = 2 ** 54
    s = summary_stats(Counter(base + o for o in offsets))
    assert (s.whisker_low - base, s.whisker_high - base) == whiskers


def test_summarize_groups_and_pool():
    out = summarize({"a": Counter([1, 2, 3]), "b": Counter([10])})
    assert out["a"].p50 == 2 and out["b"].count == 1
    assert out["_all"].count == 4


def test_summarize_median_recovery_lognormal():
    rng = np.random.default_rng(0)
    samples = list(np.exp(rng.normal(np.log(15_000), 0.3, size=1500)))
    s = summary_stats(Counter(samples))
    assert abs(s.p50 - 15_000) / 15_000 < 0.10


# -- charts ------------------------------------------------------------------


def decode_png(data: bytes) -> np.ndarray:
    """RGB pixels of an 8-bit RGB PNG; checks the signature, IHDR and every chunk CRC."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        kind, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(kind + body), kind
        chunks.append((kind, body))
        pos += 12 + length
    kinds = [kind for kind, _ in chunks]
    assert kinds[0] == b"IHDR" and kinds[-1] == b"IEND"
    assert set(kinds) == {b"IHDR", b"IDAT", b"IEND"}  # no tIME or other chunk
    width, height, *fmt = struct.unpack(">IIBBBBB", chunks[0][1])
    assert fmt == [8, 2, 0, 0, 0]  # 8-bit RGB, deflate, adaptive filtering, no interlace
    raw = zlib.decompress(b"".join(body for kind, body in chunks if kind == b"IDAT"))
    assert len(raw) == height * (1 + 3 * width)
    rows = np.frombuffer(raw, np.uint8).reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any()  # filter type None on every row
    return rows[:, 1:].reshape(height, width, 3)


def measured_boxes(img: np.ndarray) -> list[tuple[int, int, int, int, int]]:
    """(whisker low, p25, p50, p75, whisker high) pixel columns of each box, top to bottom."""
    def is_(color):
        return (img == color).all(axis=2)

    median, box, ink = is_(MEDIAN), is_(BOX_EDGE) | is_(MEDIAN), is_(INK)
    box_rows = np.flatnonzero(median.any(axis=1))
    runs = np.split(box_rows, np.flatnonzero(np.diff(box_rows) > 1) + 1)
    boxes = []
    for rows in runs:
        (x50,) = set(np.flatnonzero(median[rows].any(axis=0)))
        cols = np.flatnonzero(box[rows].any(axis=0))
        x25, x75 = cols.min(), cols.max()
        left = right = 0
        for y in rows:  # the whiskers are ink running out from the box edges
            n = 0
            while ink[y, x25 - 1 - n]:
                n += 1
            left = max(left, n)
            n = 0
            while ink[y, x75 + 1 + n]:
                n += 1
            right = max(right, n)
        boxes.append((x25 - left, x25, x50, x75, x75 + right))
    return boxes


def known_analysis() -> RunAnalysis:
    analysis = RunAnalysis()
    analysis.parse = ParseReport(records=18)
    analysis.metrics = {
        "exec_duration": {
            "f": Counter(range(100, 1100, 100)),
            "g": Counter([400, 600, 700, 900, 1000, 1100, 1300, 9000]),
        },
        "trigger_delay": {"p1->p2": Counter([100, 4900, 5000, 5200, 5300, 5400, 5500, 5600, 5700])},
        "db": {},
    }
    return analysis


def test_charts_draw_the_summary_csv_statistics(tmp_path):
    analysis = known_analysis()
    write_reports(analysis, tmp_path / "a", charts=True)
    write_reports(analysis, tmp_path / "b", charts=True)

    charts = tmp_path / "a" / "charts"
    assert sorted(p.name for p in charts.iterdir()) == ["exec_duration.png", "trigger_delay.png"]

    with (tmp_path / "a" / "summary.csv").open() as fh:
        table = list(csv.DictReader(fh))
    for metric in ("exec_duration", "trigger_delay"):
        data = (charts / f"{metric}.png").read_bytes()
        assert data == (tmp_path / "b" / "charts" / f"{metric}.png").read_bytes()

        stats = [
            [float(row[k]) for k in ("whisker_low_us", "p25_us", "p50_us", "p75_us", "whisker_high_us")]
            for row in table if row["metric"] == metric
        ]
        boxes = measured_boxes(decode_png(data))
        assert len(boxes) == len(stats)  # one box per group, the pooled _all included
        lo = min(s[0] for s in stats)
        hi = max(s[-1] for s in stats)
        x_lo = min(b[0] for b in boxes)
        x_hi = max(b[-1] for b in boxes)
        for values, columns in zip(stats, boxes):
            expected = tuple(x_lo + round((v - lo) / (hi - lo) * (x_hi - x_lo)) for v in values)
            assert columns == expected

    # the data has outliers beyond the whiskers on both sides; the charts leave them out
    summaries = analysis.summaries()
    assert summaries["exec_duration"]["g"].whisker_high < summaries["exec_duration"]["g"].max
    assert summaries["trigger_delay"]["p1->p2"].whisker_low > summaries["trigger_delay"]["p1->p2"].min


@pytest.mark.parametrize("lo, spread, a_as_float",
                         [(2 ** 53, 3, False), (2 ** 53 + 1, 1, False), (2 ** 62 + 2536, 28, False),
                          (-2 ** 63 + 4804, 19, False), (2 ** 62, 1, True), (2 ** 50 + 0.5, 0.25, False)],
                         ids=["2**53", "2**53+1", "2**62", "-2**63", "2**62-float-and-int", "2**50-halves"])
def test_charts_of_a_range_below_float_precision(lo, spread, a_as_float):
    # a few microseconds apart, where float ticks round together or past the
    # range, or a tick inside it still maps past the plot's end; a float low
    # end and an int high end that are equal as floats span no float range;
    # halves near 2**50 are 2 float spacings apart
    a = [float(lo)] if a_as_float else [lo, lo + spread]
    groups = {"a": summary_stats(Counter(a)), "b": summary_stats(Counter([lo + 1, lo + spread // 2, lo + spread]))}
    boxes = measured_boxes(decode_png(box_chart_png("near the float limit (us)", groups)))
    assert len(boxes) == len(groups)
    # the ticks are distinct values inside the range with distinct labels
    ticks = _ticks(lo, lo + spread)
    values = [v for v, _ in ticks]
    assert ticks and values == sorted(set(values)) and len({label for _, label in ticks}) == len(ticks)
    assert lo <= values[0] and values[-1] <= lo + spread
    if type(lo) is int:  # an integer axis: at least two exact int ticks
        assert len(ticks) >= 2 and ticks == [(v, str(v)) for v in values]
    else:  # a float axis no finer than the float spacing: each label is its tick's exact value
        assert all(float(label) == v for v, label in ticks)


_EXEC = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
_EXEC_G = [400, 600, 700, 900, 1000, 1100, 1300, 9000]


@pytest.mark.parametrize("title, groups, sha256", [
    ("exec_duration (us)", {"f": _EXEC, "g": _EXEC_G, "_all": _EXEC + _EXEC_G},
     "fad4b4becd0c6693442cfab0808b27042847719e9991a204ff87101741862b75"),
    ("network_oneway (us) é", {"p1->p2": [0.5, 1.25, 2.0, 3.75, 4.5], "p2->p1": [-1.5, 0.25, 0.75]},
     "c42124168910e2da4adfb14d552f3107a11d4425d247f400a17feb97d32d6fb5"),
    ("near the float limit (us)", {"a": [2 ** 62 + 2536, 2 ** 62 + 2564],
                                   "b": [2 ** 62 + 2537, 2 ** 62 + 2550, 2 ** 62 + 2564]},
     "d872c6b86e68825f7139e48be49b742f28f7719bb64dc3a6f2451f2ef9b6d05f"),
    ("halves", {"a": [2 ** 50 + 0.5, 2 ** 50 + 0.75], "b": [2 ** 50 + 0.625]},
     "32cfffee241860cb12233647ed343083eeaf6dc9e0f7d937f210c55a70cc9c32"),
    ("one value", {"only": [7, 7, 7]}, "27fe69ed6c9c028be286ef4e33b6d3c3131fdbe8fe6c987621fc164d2ab058a8"),
], ids=["int-axis", "float-axis-and-a-non-ascii-title", "2**62-int-axis", "2**50-halves", "one-value"])
def test_chart_bytes_are_pinned(title, groups, sha256):
    # the sha256 of each PNG as first drawn: a change of the drawing or of
    # the encoding must keep every byte
    png = box_chart_png(title, {group: summary_stats(Counter(values)) for group, values in groups.items()})
    assert hashlib.sha256(png).hexdigest() == sha256


# -- whole-run analysis ------------------------------------------------------


def webshop_run(seed=15, scale=0.005):
    app = load_builtin("webshop")
    env, plan = deployed_env(app, default_config(app), seed=seed)
    profile = builtin_profile("webshop").scaled(scale)
    execute(schedule(profile, env.loadgen_rng), plan, env)
    env.run_until_idle()
    return env


def test_analyze_simulated_run_end_to_end(tmp_path):
    env = webshop_run()
    records, report = parse_logs(env.collect_log(env.run_id))
    analysis = analyze_records(records, report)
    assert analysis.incomplete_trees == 0
    assert analysis.cold_flag_mismatches == 0
    assert all(bd.conservation_residual_us == 0 for bd in analysis.breakdowns)
    # linkage completeness: every invocation matches exactly one outgoing record
    out_pairs = [r.pair_id for r in records if r.kind == OUTGOING_CALL and r.mode != MODE_TRIGGER]
    inv_pairs = [r.pair_id for r in records if r.kind == INVOCATION]
    assert sorted(out_pairs) == sorted(inv_pairs)

    write_reports(analysis, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cold_starts.csv", "publish_latency.csv", "summary.csv", "summary.json", "timeline.csv", "trees.csv",
        "trigger_delays.csv"]


# text fields as a hand-edited log may name them: commas, quotes and line breaks included
TEXT = st.text(alphabet=st.sampled_from(',"\r\n ab\u00e9\u4e2d'), max_size=6) | st.text(max_size=6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows=st.lists(st.tuples(TEXT, TEXT, *[st.integers(-2**70, 2**70)] * 4), max_size=5))
@example(rows=[("", "a,b", 1, 0, 0, 1), ('say "x"', "line\nbreak", 0, 0, 0, 0), ("a\rb", "c", 0, 0, 0, 0)])
def test_trees_csv_rows_are_those_csv_writer_writes(rows, tmp_path_factory):
    analysis = RunAnalysis()
    analysis.breakdowns = [LatencyBreakdown(*row) for row in rows]
    out = tmp_path_factory.mktemp("reports")
    write_reports(analysis, out)
    expected = out / "expected.csv"
    with expected.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["context", "entry", "root_round_trip_us", "compute_us", "network_us", "db_us", "residual_us"])
        writer.writerows((*row, row[2] - sum(row[3:])) for row in rows)
    assert (out / "trees.csv").read_bytes() == expected.read_bytes()


def test_analysis_matches_simulator_ground_truth():
    env = webshop_run()
    records, report = parse_logs(env.collect_log(env.run_id))
    trees = build_trees(records)
    edges = set()
    for t in trees:
        edges |= t.edge_set()
    assert edges == set(env.truth.edges)


def smartcity_run(seed=3, scale=0.02):
    app = load_builtin("smartcity")
    env, plan = deployed_env(app, default_config(app), seed=seed)
    profile = builtin_profile("smartcity").scaled(scale)
    execute(schedule(profile, env.loadgen_rng), plan, env)
    env.run_until_idle()
    records, report = parse_logs(env.collect_log(env.run_id))
    return env, records, report


def test_linkage_completeness_including_triggers():
    # with async edges: every outgoing record (sync, async, trigger) matches
    # exactly one invocation's inbound pair, and vice versa
    _, records, _ = smartcity_run()
    out_pairs = sorted(r.pair_id for r in records if r.kind == OUTGOING_CALL)
    inv_pairs = sorted(r.pair_id for r in records if r.kind == INVOCATION)
    assert out_pairs == inv_pairs


def test_async_records_attach_despite_cold_publishers():
    # an async outgoing record can end after its caller's own invocation does
    # (cold publisher); trees must still close and pair-based metrics must
    # stay exact (parent attribution among same-named overlapping invocations
    # is best effort: the schema carries no executor id on outgoing records)
    app = load_builtin("smartfactory")
    env, plan = deployed_env(app, default_config(app), seed=2)
    profile = builtin_profile("smartfactory").scaled(0.02)
    execute(schedule(profile, env.loadgen_rng), plan, env)
    env.run_until_idle()
    records, report = parse_logs(env.collect_log(env.run_id))
    analysis = analyze_records(records, report)
    assert analysis.incomplete_trees == 0
    # default config: one platform, 15ms legs, trigger 100ms constants
    for values in analysis.metrics["publish_latency"].values():
        assert set(values) == {15 * MS}
    for values in analysis.metrics["trigger_delay"].values():
        assert set(values) == {100 * MS}


def test_trigger_records_follow_their_event_when_publishers_start_together(tmp_path):
    # both trigger records fall inside both publisher invocations, which start
    # in the same microsecond; each goes to the publisher of its own event
    app = parallel_publish_app()
    res = run_benchmark(app, default_config(app), burst_profile(["entry"], 5), seed=7, out_dir=tmp_path)
    truth = truth_edges_by_context(res.truth)
    assert len(res.analysis.trees) == len(truth) == 5
    for tree in res.analysis.trees:
        assert tree.complete
        assert tree.edge_set() == truth[tree.context_id]
    assert {bd.conservation_residual_us for bd in res.analysis.breakdowns} == {0}


def test_conservation_holds_per_tree_with_sampled_distributions(tmp_path):
    # each realized sample is conserved, so the identity is exact even when
    # every distribution is non-degenerate
    network = parse_duration("lognormal(15,0.4)")
    r = recipe_with("exp1-single-cloud", cold_start_delay=parse_duration("uniform(100,500)"),
                    network_latency={"cloud-a": network, "loadgen": network,
                                     KEYSTORE: parse_duration("exponential(3)")})
    res = run_benchmark(load_builtin(r.benchmark), r.config, r.profile,
                        seed=21, scale=0.005, out_dir=tmp_path)
    assert res.analysis.breakdowns
    assert {bd.conservation_residual_us for bd in res.analysis.breakdowns} == {0}


def test_webshop_trees_exact_under_cold_overlap():
    # webshop invokes every function at most once per context, so trees match
    # ground truth exactly even while cold chains from adjacent contexts overlap
    env = webshop_run(seed=2, scale=0.01)
    records, report = parse_logs(env.collect_log(env.run_id))
    analysis = analyze_records(records, report)
    assert analysis.incomplete_trees == 0
    edges = set()
    for t in analysis.trees:
        edges |= t.edge_set()
    assert edges == set(env.truth.edges)


def test_causality_along_sync_edges():
    # skew-free: callStart <= calleeStart <= calleeEnd <= callEnd
    _, records, report = smartcity_run()
    analysis = analyze_records(records, report)
    assert analysis.incomplete_trees == 0
    for tree in analysis.trees:
        for node in tree.nodes():
            for edge in node.calls:
                if edge.record.mode != MODE_SYNC or edge.child is None:
                    continue
                callee = edge.child.record
                assert edge.record.start_us <= callee.start_us
                assert callee.start_us <= callee.end_us <= edge.record.end_us


def test_decomposition_components_nonnegative():
    _, records, report = smartcity_run()
    analysis = analyze_records(records, report)
    assert analysis.breakdowns and analysis.incomplete_trees == 0
    for metric in ("compute", "network", "db", "publish_latency", "trigger_delay"):
        assert all(v >= 0 for values in analysis.metrics[metric].values() for v in values), metric
    for bd in analysis.breakdowns:
        assert min(bd.total_compute_us, bd.total_network_us, bd.total_db_us) >= 0
        assert bd.conservation_residual_us == 0


TREE_METRICS = ("root_round_trip", "compute", "network", "network_oneway", "db", "publish_latency",
                "trigger_delay")


def _busy_us(intervals):
    """Length of the union of [start, end) intervals."""
    busy, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            busy += end - start
            reach = end
        elif end > reach:
            busy += end - reach
            reach = end
    return busy


def _duration_us(record):
    return record.end_us - record.start_us


def walked_groups(trees):
    """The tree-level metric groups, as value -> count multisets, rebuilt by
    a direct walk over the complete trees, each group made at its first row
    in decompose's row order: per node the rows of its sync
    and db calls by (start, end), its compute, and per async edge its publish
    and trigger rows; then the subtrees of its sync callees by (start, end)
    and of its other callees in call order. A publisher is a node like any
    other. Compute is the execution minus the union of the node's sync and db
    call intervals. Returns (groups, number of nodes whose sync or db calls
    overlap)."""
    groups = {name: {} for name in TREE_METRICS}
    blocks = 0

    def add(metric, group, value):
        groups[metric].setdefault(group, Counter())[value] += 1

    def visit(node):
        nonlocal blocks
        rec = node.record
        sync = [e for e in node.calls if e.record.mode == MODE_SYNC]
        calls = sorted([(e.record.start_us, e.record.end_us, e) for e in sync]
                       + [(d.start_us, d.end_us, d) for d in node.db_calls], key=lambda c: c[:2])
        spans = [(start, end) for start, end, _ in calls]
        for start, end, call in calls:
            if isinstance(call, TraceRecord):
                add("db", f"{rec.platform_id}/{call.callee}", _duration_us(call))
                continue
            callee = call.child.record
            network = _duration_us(call.record) - _duration_us(callee)
            add("network", f"{rec.function}->{callee.function}", network)
            add("network_oneway", f"{call.record.platform_id}->{callee.platform_id}", network / 2)
        busy = _busy_us(spans)
        blocks += busy < sum(end - start for start, end in spans)
        add("compute", rec.function, _duration_us(rec) - busy)
        for e in node.calls:
            if e.record.mode != MODE_ASYNC:
                continue
            pub = e.child.record
            group = f"{e.record.platform_id}->{pub.platform_id}"
            add("publish_latency", group, _duration_us(e.record) - _duration_us(pub))
            for t in e.child.calls:
                if t.record.mode == MODE_TRIGGER:
                    add("trigger_delay", group, t.child.record.start_us - pub.start_us)
        for _, _, call in calls:
            if not isinstance(call, TraceRecord):
                visit(call.child)
        for e in node.calls:
            if e.record.mode != MODE_SYNC:
                visit(e.child)

    for tree in trees:
        if tree.complete:
            add("root_round_trip", tree.root.callee, _duration_us(tree.root))
            visit(tree.root_node)
    return groups, blocks


@pytest.mark.parametrize("name", ["exp3-three-way-factory", "webshop", "exp2-edge-cloud"])
def test_oneway_publish_and_trigger_read_from_the_decomposition(name):
    if name == "webshop":
        app = load_builtin("webshop")
        cfg, profile = default_config(app), builtin_profile("webshop").scaled(0.005)
    else:
        r = recipe(name)
        app, cfg, profile = load_builtin(r.benchmark), r.config, r.profile.scaled(0.05)
    env, plan = deployed_env(app, cfg, seed=4)
    execute(schedule(profile, env.loadgen_rng), plan, env)
    env.run_until_idle()
    analysis = analyze_records(*parse_logs(env.collect_log(env.run_id)))
    complete = [t for t in analysis.trees if t.complete]
    assert complete and len(complete) == len(analysis.breakdowns)

    walked, blocks = walked_groups(analysis.trees)
    assert list(analysis.metrics) == list(METRIC_NAMES)
    for metric in TREE_METRICS:
        # same groups in the same order, each with the same counts
        assert list(analysis.metrics[metric].items()) == list(walked[metric].items()), metric
    assert estimate_skew_corrected_network(analysis.metrics) is analysis.metrics["network_oneway"]
    assert trigger_metrics(analysis.metrics) == (analysis.metrics["publish_latency"],
                                                 analysis.metrics["trigger_delay"])
    if name == "webshop":
        # the parallel fan-out puts edges in blocks, off the conserved totals
        assert blocks and walked["network_oneway"] and walked["db"] and not walked["publish_latency"]
    elif name == "exp2-edge-cloud":
        assert "cloud-a->edge-1" in walked["network_oneway"]  # a sync edge between platforms
    else:
        assert walked["publish_latency"] and walked["trigger_delay"]


# -- the paused collector ----------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_file_restores_the_collector(enabled, collector_restored, monkeypatch, streaming_run, tmp_path):
    set_collector(enabled)
    analysis = analyze_file(streaming_run / "raw.log", tmp_path / "reports")
    assert analysis.complete_trees > 0
    assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
    not_utf8 = tmp_path / "raw.log"
    not_utf8.write_bytes(HEADER_LINE.encode() + b"\n\xff\xfe\n")
    with pytest.raises(AnalysisError, match="not UTF-8"):
        analyze_file(not_utf8)
    assert gc.isenabled() is enabled and gc.get_freeze_count() == 0

    def failing_write_reports(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(runner, "write_reports", failing_write_reports)
    with pytest.raises(OSError, match="no space left"):
        analyze_file(streaming_run / "raw.log", tmp_path / "failed")
    assert gc.isenabled() is enabled and gc.get_freeze_count() == 0


def test_analyze_file_keeps_a_callers_frozen_objects(collector_restored, streaming_run, tmp_path):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        analyze_file(streaming_run / "raw.log", tmp_path)
        # still frozen, bar what the run freed; none newly frozen
        assert 0 < gc.get_freeze_count() <= frozen
    finally:
        gc.unfreeze()


def test_analysis_creates_no_reference_cycles(tmp_path, collector_restored):
    r = recipe("exp3-three-way-factory")
    text = run_benchmark(load_builtin(r.benchmark), r.config, r.profile, 7, tmp_path).log_path.read_text()
    gc.collect()
    gc.disable()
    analysis = analyze_log_text(text)
    assert analysis.complete_trees > 0
    assert gc.collect() == 0  # no cycle among what the analyzer dropped
    del analysis
    assert gc.collect() == 0  # nor in what it returned
