"""The analyzer's guarantees on generated applications, checked against the
simulator's ground truth, and its indifference to the order of a log's lines;
its decomposition, checked against the one before its leaf path; and its
summaries of generated value multisets, checked against the sorted list of
every value.

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

from faasbench.analysis import (
    METRIC_NAMES,
    AnalysisError,
    CallTree,
    LatencyBreakdown,
    SummaryStats,
    TreeEdge,
    _start_end,
    build_trees,
    decompose,
    parse_logs,
    summary_stats,
)
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
from faasbench.records import (DB_CALL, INVOCATION, LOADGEN, MODE_ASYNC, MODE_SYNC, MODE_TRIGGER, OUTGOING_CALL,
                               TraceRecord)
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


def _reference_decompose(tree: CallTree, metrics: dict[str, dict[str, dict]]) -> LatencyBreakdown:
    """Split a complete tree (a root node in a context ``build_trees`` found
    clean) into compute/network/db: count each tree-level metric row into its
    group's value -> count dict in ``metrics`` (``RunAnalysis.metrics``, keyed
    by ``METRIC_NAMES``; a missing group is created) and return the tree's
    conserved totals; any other tree raises AnalysisError.

    The walk counts a node's rows where it meets the node: per sync or db
    call by (start, end) the call's rows, then the node's compute, then per
    async call its publish row and a trigger-delay row per trigger call of
    the publisher. Then it visits the node's sync callees by (start, end) and
    its other callees (a publisher, a triggered invocation) in call order; a
    sync callee outside a parallel block counts in the conserved totals when
    its caller does, any other callee never."""
    if not tree.complete:
        raise AnalysisError(f"context {tree.context_id} is incomplete")
    root = tree.root
    root_rec = tree.root_node.record
    round_trip = root.end_us - root.start_us
    # a group is made only when ``get`` misses it: ``setdefault(key, {})`` would build a dict per row
    groups = metrics["root_round_trip"]
    g = groups.get(root.callee) or groups.setdefault(root.callee, {})
    g[round_trip] = g.get(round_trip, 0) + 1
    compute_rows = metrics["compute"]
    network_rows = metrics["network"]
    oneway_rows = metrics["network_oneway"]
    db_rows = metrics["db"]
    publish_rows = metrics["publish_latency"]
    trigger_rows = metrics["trigger_delay"]
    total_compute = total_db = 0
    total_network = round_trip - (root_rec.end_us - root_rec.start_us)

    stack = [(tree.root_node, True)]  # (node, whether it counts in the conserved totals)
    while stack:
        node, conserved = stack.pop()
        rec = node.record
        calls = node.calls
        items = [(e.record.start_us, e.record.end_us, e) for e in calls if e.record.mode == MODE_SYNC]
        items += [(db.start_us, db.end_us, db) for db in node.db_calls]
        if len(items) > 1:
            items.sort(key=_start_end)
        base = len(stack)  # the node's children go above it, and are reversed to pop in visit order
        seq_sync_us = 0
        seq_db_us = 0
        block_wait_us = 0
        i = 0
        n = len(items)
        while i < n:
            cluster_start, cluster_end, _ = items[i]
            j = i + 1
            while j < n and items[j][0] < cluster_end:
                if items[j][1] > cluster_end:
                    cluster_end = items[j][1]
                j += 1
            in_block = j - i > 1
            if in_block:
                block_wait_us += cluster_end - cluster_start
            for start, end, item in items[i:j]:
                if type(item) is TreeEdge:
                    child = item.child
                    child_rec = child.record
                    network = end - start - (child_rec.end_us - child_rec.start_us)
                    key = f"{rec.function}->{child_rec.function}"
                    g = network_rows.get(key) or network_rows.setdefault(key, {})
                    g[network] = g.get(network, 0) + 1
                    key = f"{rec.platform_id}->{child_rec.platform_id}"
                    g = oneway_rows.get(key) or oneway_rows.setdefault(key, {})
                    oneway = network / 2
                    g[oneway] = g.get(oneway, 0) + 1
                    stack.append((child, conserved and not in_block))
                    if not in_block:
                        seq_sync_us += end - start
                        if conserved:
                            total_network += network
                else:
                    key = f"{rec.platform_id}/{item.callee}"
                    g = db_rows.get(key) or db_rows.setdefault(key, {})
                    db = end - start
                    g[db] = g.get(db, 0) + 1
                    if not in_block:
                        seq_db_us += db
            i = j

        compute = rec.end_us - rec.start_us - seq_sync_us - seq_db_us - block_wait_us
        g = compute_rows.get(rec.function) or compute_rows.setdefault(rec.function, {})
        g[compute] = g.get(compute, 0) + 1
        if conserved:
            total_compute += compute
            total_db += seq_db_us
            total_network += block_wait_us

        for e in calls:
            mode = e.record.mode
            if mode == MODE_SYNC:
                continue
            child = e.child
            stack.append((child, False))  # an async subtree falls outside the root round trip
            if mode == MODE_ASYNC:
                pub_rec = child.record
                key = f"{e.record.platform_id}->{pub_rec.platform_id}"
                g = publish_rows.get(key) or publish_rows.setdefault(key, {})
                publish = e.record.end_us - e.record.start_us - (pub_rec.end_us - pub_rec.start_us)
                g[publish] = g.get(publish, 0) + 1
                for t in child.calls:
                    if t.record.mode == MODE_TRIGGER:
                        g = trigger_rows.get(key) or trigger_rows.setdefault(key, {})
                        delay = t.child.record.start_us - pub_rec.start_us
                        g[delay] = g.get(delay, 0) + 1
        if len(stack) - base > 1:
            stack[base:] = reversed(stack[base:])

    return LatencyBreakdown(tree.context_id, root.callee, round_trip, total_compute, total_network, total_db)


def _decomposed(decompose_fn, trees):
    """The breakdowns ``decompose_fn`` gives for the complete trees, counted
    into one run's metrics, and those metrics as lists: the groups of each
    metric in the order they were made, each with its rows in the order they
    were first counted, and every row's count."""
    metrics = {name: {} for name in METRIC_NAMES}
    breakdowns = [decompose_fn(tree, metrics) for tree in trees if tree.complete]
    return breakdowns, [(name, [(key, list(rows.items())) for key, rows in groups.items()])
                        for name, groups in metrics.items()]


@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(generated_apps(), st.just((_TIE_APP, default_config(_TIE_APP)))), flows=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_decompose_equals_the_decomposition_before_its_leaf_path(case, flows, seed):
    app, config = case
    env, plan = deployed_env(app, config, seed=seed)
    execute(schedule(burst_profile([fn.name for fn in app.entry_points()], flows), env.loadgen_rng), plan, env)
    env.run_until_idle()
    trees = build_trees(parse_logs(env.collect_log(env.run_id))[0])
    assert any(tree.complete for tree in trees)
    assert _decomposed(decompose, trees) == _decomposed(_reference_decompose, trees)


@st.composite
def one_call_contexts(draw):
    """(function, platform, store, clock offset, root start, out leg, execution,
    back leg, cold, store calls) of a context of one call: a root call from the
    load generator and its invocation, whose logged times run ``offset`` us off
    the load generator's, with 0-2 store calls, each an (offset into the
    invocation, duration) pair. A store call may take no time, and two may
    overlap or start in the same microsecond."""
    execution = draw(st.integers(0, 4_000))
    store_calls = []
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, execution))
        store_calls.append((at, draw(st.integers(0, execution - at))))
    return (draw(st.sampled_from(("f", "g"))), draw(st.sampled_from(("p1", "p2"))), draw(st.sampled_from(("kv", "s3"))),
            draw(st.sampled_from((0, 2_500, -7_000))), draw(st.integers(0, 3_000)), draw(st.integers(0, 500)),
            execution, draw(st.integers(0, 500)), draw(st.booleans()), store_calls)


def _one_call_records(n, function, platform, store, offset, start, out, execution, back, cold, store_calls):
    """The log records of the ``n``-th context drawn by ``one_call_contexts``."""
    ctx = f"{n:032x}"
    invoked = start + out + offset
    records = [
        TraceRecord("r1", LOADGEN, OUTGOING_CALL, LOADGEN, ctx, f"{n}-root", start, start + out + execution + back,
                    callee=function, mode=MODE_SYNC),
        TraceRecord("r1", platform, INVOCATION, function, ctx, f"{n}-root", invoked, invoked + execution,
                    executor_key=f"{platform}-{function}", cold_start=cold),
    ]
    records += [TraceRecord("r1", platform, DB_CALL, function, ctx, f"{n}-db{i}", invoked + at, invoked + at + took,
                            callee=store, db_op="get")
                for i, (at, took) in enumerate(store_calls)]
    return records


@settings(max_examples=300, derandomize=True, deadline=None)
@given(contexts=st.lists(one_call_contexts(), min_size=1, max_size=4))
@example(contexts=[("f", "p1", "kv", -7_000, 0, 100, 300, 100, True, [(300, 0)])])  # a zero-length call at the end
@example(contexts=[("f", "p1", "kv", -7_000, 0, 0, 0, 0, True, [(0, 0), (0, 0)])])  # two in one instant
@example(contexts=[("g", "p2", "s3", 2_500, 10, 5, 40, 5, False, []),
                   ("f", "p1", "kv", 0, 0, 5, 40, 5, True, [(3, 9)])])  # two groups made in context order
def test_decompose_of_one_call_contexts_equals_the_decomposition_before_its_leaf_path(contexts):
    records = [r for n, ctx in enumerate(contexts) for r in _one_call_records(n, *ctx)]
    trees = build_trees(records)
    assert all(tree.complete for tree in trees) and len(trees) == len(contexts)
    assert _decomposed(decompose, trees) == _decomposed(_reference_decompose, trees)


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
