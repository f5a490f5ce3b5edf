"""The analyzer's guarantees on generated applications, checked against the
simulator's ground truth, and its indifference to the order of a log's lines;
and its summaries of generated value multisets, checked against the sorted
list of every value.

Each application stays inside the domain where parent attribution is exact:
every function is the target of at most one step, and entry points of none,
so no function but a publisher runs twice in a context. Every workflow is a
single call to one entry point.
"""

import math
import tempfile
from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from faasbench.analysis import METRIC_NAMES, SummaryStats, build_trees, decompose, parse_logs, summary_stats
from faasbench.applications import (
    EVENT_ASYNC,
    HTTP_SYNC,
    ApplicationSpec,
    FunctionSpec,
    call,
    compute,
    db_get,
    db_set,
    parallel,
    publish,
)
from faasbench.deployment import DeploymentConfig, PlatformSpec
from faasbench.distributions import parse_duration
from faasbench.records import DB_CALL
from faasbench.runner import default_config, run_benchmark
from faasbench.workload import execute, schedule

from conftest import burst_profile, deployed_env, parallel_publish_app, truth_edges_by_context

SERVICE = "kv"
COMPUTE = ("constant(0)", "constant(2)", "lognormal(3,0.5)", "uniform(1,4)")
LEGS = ("constant(0)", "constant(5)", "lognormal(5,0.3)", "uniform(1,4)")
FILLER = st.one_of(
    st.sampled_from(COMPUTE).map(lambda spec: compute(parse_duration(spec))),
    st.just(db_get("k")),
    st.just(db_set("k")),
)


@st.composite
def bodies(draw, targets):
    """A body holding one call or publish step per target, plus compute and
    db steps, in any order; a run of two or more steps may become a parallel
    block split into two or more branches."""
    steps = draw(st.permutations(list(targets) + draw(st.lists(FILLER, max_size=3))))
    if len(steps) >= 2 and draw(st.booleans()):
        m = draw(st.integers(2, len(steps)))
        start = draw(st.integers(0, len(steps) - m))
        cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=1)))
        block = steps[start:start + m]
        branches = [block[a:b] for a, b in zip([0] + cuts, cuts + [m])]
        steps = steps[:start] + [parallel(*branches)] + steps[start + m:]
    return tuple(steps)


@st.composite
def generated_apps(draw):
    """(application, deployment config): 2-7 functions on 1-3 platforms.
    Function 0 is an entry point; each later function is another entry point
    or the target of one call (http-sync) or publish (event-async) step of an
    earlier function, so the call graph is a forest."""
    n = draw(st.integers(2, 7))
    kinds = [HTTP_SYNC]
    entry = [True]
    children: list[list] = [[]]
    for i in range(1, n):
        parent = draw(st.integers(0, i))  # i: another entry point
        entry.append(parent == i)
        kinds.append(HTTP_SYNC if parent == i else draw(st.sampled_from((HTTP_SYNC, EVENT_ASYNC))))
        if parent < i:
            children[parent].append((call if kinds[i] == HTTP_SYNC else publish)(f"f{i}"))
        children.append([])
    functions = tuple(
        FunctionSpec(f"f{i}", kinds[i], draw(bodies(children[i])), entry_point=entry[i]) for i in range(n)
    )
    app = ApplicationSpec("generated", functions, external_services=(SERVICE,))

    pids = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    platforms = tuple(
        PlatformSpec(
            id=pid,
            cold_start_delay=parse_duration(draw(st.sampled_from(("constant(0)", "constant(400)", "uniform(50,300)")))),
            network_latency={peer: parse_duration(draw(st.sampled_from(LEGS))) for peer in pids + ["loadgen", SERVICE]},
            trigger_delay=parse_duration(draw(st.sampled_from(("constant(100)", "lognormal(50,0.3)")))),
            clock_offset_us=draw(st.sampled_from((0, 2_500, -7_000))),
        )
        for pid in pids
    )
    config = DeploymentConfig(
        platforms=platforms,
        assignment={fn.name: draw(st.sampled_from(pids)) for fn in functions},
        service_bindings={SERVICE: draw(st.sampled_from(pids))},
    )
    return app, config


_TIE_APP = parallel_publish_app()


@settings(max_examples=25, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=generated_apps(), flows=st.integers(1, 4), seed=st.integers(0, 2**16))
@example(case=(_TIE_APP, default_config(_TIE_APP)), flows=5, seed=7)
def test_generated_app_trees_match_ground_truth(case, flows, seed):
    app, config = case
    profile = burst_profile([fn.name for fn in app.entry_points()], flows)
    with tempfile.TemporaryDirectory() as out:
        res = run_benchmark(app, config, profile, seed=seed, out_dir=out)
    analysis = res.analysis
    truth = truth_edges_by_context(res.truth)
    assert len(truth) == res.stats.instances == len(analysis.trees)  # one context per arrival
    for tree in analysis.trees:
        assert tree.complete
        assert tree.edge_set() == truth[tree.context_id]
    assert len(analysis.breakdowns) == len(analysis.trees)
    # one compute row per node of every complete tree, a publisher's included
    assert (sum(sum(v.values()) for v in analysis.metrics["compute"].values())
            == sum(1 for t in analysis.trees if t.complete for _ in t.nodes()))
    assert {bd.conservation_residual_us for bd in analysis.breakdowns} == {0}
    assert analysis.cold_flag_mismatches == 0


def _trees_as_read(records):
    """Everything ``build_trees`` and ``decompose`` read from a log: per tree
    its context, verdict, edges and every node's calls and db calls as pair
    ids; the breakdowns; and the metric multisets."""
    trees = build_trees(records)
    metrics = {name: {} for name in METRIC_NAMES}
    breakdowns = [decompose(tree, metrics) for tree in trees if tree.complete]
    shapes = [(tree.context_id, tree.complete, tree.edge_set(),
               [(node.record.pair_id, [e.record.pair_id for e in node.calls], [d.pair_id for d in node.db_calls])
                for node in tree.nodes()])
              for tree in trees]
    return shapes, breakdowns, metrics


@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(generated_apps(), st.just((_TIE_APP, default_config(_TIE_APP)))), flows=st.integers(1, 4),
       seed=st.integers(0, 2**16), data=st.data())
def test_trees_do_not_depend_on_the_order_of_the_lines(case, flows, seed, data):
    # a log with no repeated line, in log order and permuted; a lost line (never a
    # store call, whose loss the log cannot show) leaves orphans and incomplete trees
    app, config = case
    env, plan = deployed_env(app, config, seed=seed)
    execute(schedule(burst_profile([fn.name for fn in app.entry_points()], flows), env.loadgen_rng), plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    lost = data.draw(st.sampled_from([None] + [i for i, r in enumerate(records) if r.kind != DB_CALL]))
    if lost is not None:
        records = records[:lost] + records[lost + 1:]
    expected = _trees_as_read(records)
    for _ in range(2):
        assert _trees_as_read(data.draw(st.permutations(records))) == expected


def _summary_of_the_sorted_list(values) -> SummaryStats:
    """The nearest-rank statistics read off the sorted list of every value:
    the value at 1-based rank ceil(p * n), and as whiskers the most extreme
    values within 1.5 interquartile ranges of the quartiles, the limits taken
    exactly."""
    vals = sorted(values)
    n = len(vals)
    if not n:
        return SummaryStats(count=0)

    def rank(p):
        return vals[max(1, math.ceil(p * n)) - 1]

    p25, p75 = rank(0.25), rank(0.75)
    reach = Fraction(3, 2) * (Fraction(p75) - Fraction(p25))
    inside = [v for v in vals if Fraction(p25) - reach <= v <= Fraction(p75) + reach]
    return SummaryStats(n, vals[0], p25, rank(0.5), p75, vals[-1], inside[0], inside[-1])


# small ranges repeat values; integers past 2**53 have no exact float
INTS = st.integers(-30, 30) | st.integers(2**53 - 30, 2**53 + 30) | st.integers(-2**64, 2**64)
# halves of integers small enough that every quartile and whisker limit is an exact float
HALVES = (st.integers(-30, 30) | st.integers(-2**40, 2**40)).map(lambda k: k / 2)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=st.lists(INTS, max_size=60) | st.lists(HALVES, max_size=60))
def test_summary_of_a_multiset_equals_that_of_its_sorted_list(values):
    stats = summary_stats(Counter(values))
    expected = _summary_of_the_sorted_list(values)
    assert stats == expected
    assert [type(v) for v in stats] == [type(v) for v in expected]
    assert repr(stats) == repr(expected)
