"""Lost and replayed log lines: the incomplete trees are exactly the contexts
that lost or replayed a line.

Each example deletes a few data lines from a clean log and replays a few of
the others, then checks that every tree of a touched context is incomplete,
every other tree is complete with the clean run's breakdown, every
context of the log still has a tree, and the trees' nodes are the log's
invocations, the first line of each (context, pair id), which the cold-start
report counts.

A DB_CALL line is never deleted. A lost store record leaves no pair that
reappears elsewhere: every invocation and call around it stays linked, so
its tree stays complete and its store time is booked as compute. It is the one loss the schema cannot show; under a rate limit the
platform's ``#dropped`` count is its only sign.

The streamed analysis, which counts each context's lines and analyzes a
context once its last line is read, writes the same seven reports as
``analyze_records`` over the same lines, whatever was lost, replayed,
garbled or appended.
"""

import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faasbench.analysis import (ParseReport, analyze_records, analyze_stream, count_contexts, parse_logs,
                                write_reports)
from faasbench.benchmarks import load_builtin
from faasbench.recipes import recipe
from faasbench.records import DB_CALL, INVOCATION, TraceRecord
from faasbench.runner import default_config
from faasbench.workload import US, LoadProfile, Phase, Workflow, WorkflowStep, execute, schedule

from conftest import burst_profile, deployed_env, recipe_with
from test_generated_apps import generated_apps


def _two_step_webshop():
    """webshop under a profile whose one workflow calls frontend twice, so
    every context has two load-generator roots."""
    app = load_builtin("webshop")
    twice = Workflow("twice", (WorkflowStep("frontend"), WorkflowStep("frontend")))
    profile = LoadProfile("two-step", (twice,),
                          (Phase(kind="burst", duration_us=2 * US, total_flows=8, mix=(("twice", 1.0),)),))
    return app, default_config(app), profile


def _recipe_case(r, scale):
    return load_builtin(r.benchmark), r.config, r.profile.scaled(scale)


BASES = {
    "factory": lambda: _recipe_case(recipe("exp3-three-way-factory"), 0.05),
    "coldstart": lambda: _recipe_case(recipe("exp4-coldstart"), 0.02),
    "edge-cloud-skewed": lambda: _recipe_case(recipe_with("exp2-edge-cloud", "cloud-a", clock_offset_us=2500), 0.05),
    "webshop-two-step": _two_step_webshop,
}


def _by_context(breakdowns) -> dict[str, list]:
    out: dict[str, list] = {}
    for bd in breakdowns:
        out.setdefault(bd.context_id, []).append(bd)
    return out


@lru_cache(maxsize=None)
def base_log(name: str):
    """(records, indexes of the lines that may be deleted, breakdowns by
    context) of one clean run at seed 7."""
    app, cfg, profile = BASES[name]()
    env, plan = deployed_env(app, cfg, seed=7)
    execute(schedule(profile, env.loadgen_rng), plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    clean = analyze_records(records, ParseReport())
    assert clean.trees and clean.incomplete_trees == 0
    deletable = tuple(i for i, r in enumerate(records) if r.kind != DB_CALL)
    return records, deletable, _by_context(clean.breakdowns)


@st.composite
def touched_logs(draw):
    """(base name, indexes of deleted lines, indexes of replayed lines)."""
    name = draw(st.sampled_from(sorted(BASES)))
    records, deletable, _ = base_log(name)
    deleted = draw(st.sets(st.sampled_from(deletable), max_size=3))
    replayed = draw(st.lists(st.integers(0, len(records) - 1).filter(lambda i: i not in deleted),
                             max_size=3, unique=True))
    return name, deleted, replayed


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=touched_logs())
def test_incomplete_trees_are_exactly_the_touched_contexts(case):
    name, deleted, replayed = case
    records, _, clean = base_log(name)
    log = [r for i, r in enumerate(records) if i not in deleted] + [records[i] for i in replayed]
    touched = {records[i].context_id for i in (*deleted, *replayed)}

    analysis = analyze_records(log, ParseReport(records=len(log)))
    for tree in analysis.trees:
        assert tree.complete == (tree.context_id not in touched), tree.context_id
    assert {t.context_id for t in analysis.trees} == {r.context_id for r in log}
    assert _by_context(analysis.breakdowns) == {ctx: bds for ctx, bds in clean.items() if ctx not in touched}
    # the trees' nodes are the log's invocations, the first line of each (context, pair id)
    first: dict[tuple[str, str], TraceRecord] = {}
    for r in log:
        if r.kind == INVOCATION:
            first.setdefault((r.context_id, r.pair_id), r)
    assert Counter(node.record for t in analysis.trees for node in t.nodes()) == Counter(first.values())
    assert analysis.total_invocations == len(first)


# -- the streamed analysis ----------------------------------------------------


def _clean_lines(app, config, profile, seed):
    """(the log's lines, the profile's phase windows) of one clean run."""
    env, plan = deployed_env(app, config, seed=seed)
    execute(schedule(profile, env.loadgen_rng), plan, env)
    env.run_until_idle()
    return env.collect_log(env.run_id), profile.phase_windows()


@lru_cache(maxsize=None)
def base_lines(name: str):
    return _clean_lines(*BASES[name](), seed=7)


def _with_context(line: str, ctx: str) -> str:
    fields = line.split("\t")
    fields[4] = ctx
    return "\t".join(fields)


def _broken(line: str) -> str:
    """The line with an end before its start: it keeps its context column,
    so the count of its context includes it, and it does not parse."""
    fields = line.split("\t")
    fields[9] = str(int(fields[8]) - 1)
    return "\t".join(fields)


@st.composite
def damaged(draw, lines):
    """The lines with up to three lost, up to three replayed anywhere, up to two
    garbage lines inserted, maybe every line of one context broken, and up to
    two lines appended: a line of one context copied into another, which for a
    cold invocation ties its executor's first invocation across two contexts."""
    lines = list(lines)
    data = [i for i, line in enumerate(lines) if line.count("\t") == 12]
    lost = set(draw(st.lists(st.sampled_from(data), max_size=3)))
    # inserted anywhere after the header
    replayed = draw(st.lists(st.tuples(st.sampled_from(data), st.integers(1, len(lines))), max_size=3))
    garbage = draw(st.lists(st.tuples(st.text(st.sampled_from("ab\t-0#"), max_size=20), st.integers(1, len(lines))),
                            max_size=2))
    contexts = sorted({lines[i].split("\t")[4] for i in data})
    broken = draw(st.sampled_from([None] + contexts))
    appended = [_with_context(lines[i], draw(st.sampled_from(contexts)))
                for i in draw(st.lists(st.sampled_from(data), max_size=2))]
    out = [_broken(line) if broken and line.count("\t") == 12 and line.split("\t")[4] == broken else line
           for i, line in enumerate(lines) if i not in lost]
    for line, at in sorted([(lines[i], at) for i, at in replayed] + garbage, key=lambda item: -item[1]):
        out.insert(min(at, len(out)), line)
    return out + appended


@st.composite
def logs(draw):
    """(lines, phase windows) of a damaged log of a recipe run or of a
    generated application."""
    if draw(st.booleans()):
        lines, phases = base_lines(draw(st.sampled_from(sorted(BASES))))
    else:
        app, config = draw(generated_apps())
        profile = burst_profile([fn.name for fn in app.entry_points()], draw(st.integers(1, 4)))
        lines, phases = _clean_lines(app, config, profile, draw(st.integers(0, 2**16)))
    return draw(damaged(lines)), phases


def _reports(analysis, out: Path) -> dict[str, bytes]:
    write_reports(analysis, out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _crosscheck_by_pair(lines) -> int:
    """The cold-flag mismatches by the first line of each (context, pair id),
    an executor's first invocation being each one with the pair id of its
    least (start, end, pair id)."""
    records, _ = parse_logs(lines)
    first: dict[tuple[str, str], TraceRecord] = {}
    for r in records:
        if r.kind == INVOCATION:
            first.setdefault((r.context_id, r.pair_id), r)
    least: dict[str, tuple] = {}
    for r in first.values():
        key = (r.start_us, r.end_us, r.pair_id)
        least[r.executor_key] = min(least.get(r.executor_key, key), key)
    return sum(r.cold_start != (least[r.executor_key][2] == r.pair_id) for r in first.values())


def assert_streamed_as_kept(lines, phases):
    """The streamed analysis of ``lines`` writes the reports of
    ``analyze_records`` over them; returns the streamed analysis."""
    kept = analyze_records(*parse_logs(lines), phases)
    streamed = analyze_stream(iter(lines), count_contexts([lines]), phases)
    assert streamed.trees is None and streamed.tree_count == kept.tree_count == len(kept.trees)
    assert streamed.parse == kept.parse and streamed.cold_flag_mismatches == kept.cold_flag_mismatches
    with tempfile.TemporaryDirectory() as tmp:
        assert _reports(streamed, Path(tmp) / "streamed") == _reports(kept, Path(tmp) / "kept")
    assert kept.cold_flag_mismatches == _crosscheck_by_pair(lines)
    return streamed


@settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=logs())
def test_the_streamed_analysis_writes_the_reports_of_analyze_records(case):
    assert_streamed_as_kept(*case)


def test_a_first_invocation_tied_across_two_contexts_counts_as_first_in_each():
    # the factory log's first cold invocation copied into another context: two
    # contexts hold the same least (start, end, pair id) of one executor
    lines, phases = base_lines("factory")
    cold = next(line for line in lines if line.split("\t")[2:3] == [INVOCATION] and line.split("\t")[11] == "1")
    other = next(line.split("\t")[4] for line in lines[1:] if line.split("\t")[4:5] != cold.split("\t")[4:5])
    analysis = assert_streamed_as_kept(lines + [_with_context(cold, other)], phases)
    # the copy is cold and first in its context too, so no flag disagrees
    assert analysis.cold_flag_mismatches == 0
    assert analysis.total_cold == analyze_records(*parse_logs(lines), phases).total_cold + 1


def test_a_context_whose_every_line_is_malformed_has_no_tree():
    lines, phases = base_lines("coldstart")
    ctx = lines[1].split("\t")[4]
    broken = [_broken(line) if line.count("\t") == 12 and line.split("\t")[4] == ctx else line for line in lines]
    counts = count_contexts([broken])
    assert counts[ctx] == sum(1 for line in lines if line.count("\t") == 12 and line.split("\t")[4] == ctx) > 0
    clean = assert_streamed_as_kept(lines, phases)
    streamed = assert_streamed_as_kept(broken, phases)
    assert streamed.tree_count == clean.tree_count - 1
    assert streamed.parse.parse_errors == counts[ctx]
    assert {bd.context_id for bd in streamed.breakdowns} == {bd.context_id for bd in clean.breakdowns} - {ctx}
