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
"""

from collections import Counter
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faasbench.analysis import ParseReport, analyze_records, parse_logs
from faasbench.benchmarks import load_builtin
from faasbench.recipes import exp2_edge_cloud, recipe
from faasbench.records import DB_CALL, INVOCATION, TraceRecord
from faasbench.runner import default_config
from faasbench.workload import US, LoadProfile, Phase, Workflow, WorkflowStep, execute, schedule

from conftest import deployed_env


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
    "edge-cloud-skewed": lambda: _recipe_case(exp2_edge_cloud(cloud_clock_offset_ms=2.5), 0.05),
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
    assert analysis.coldstart.total_invocations == len(first)
