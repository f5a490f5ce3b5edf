"""Post-experiment drill-down: call trees, latency decomposition, summaries.

Metric definitions:

* execution duration — invocation end minus start (logged clock).
* compute — execution duration minus the node's sequential outgoing sync
  call durations, its sequential keyed-store call durations, and the
  blocking span of each parallel fan-out block.
* network (per sync edge) — outgoing call duration minus the callee's
  execution duration.
* db — keyed-store call duration.
* publish latency (per async edge) — outgoing async call duration minus the
  publisher invocation's execution duration.
* trigger delay — triggered function start minus publisher start (both run
  on the destination platform, so constant clock offsets cancel).
* one-way network estimate (per sync edge) — (caller round trip minus
  callee execution) / 2, assuming both directions take comparably long.

Each metric group is a multiset: a plain dict from value to how often it
occurs, so the metric state grows with the distinct values, not with the
run. Integer microseconds repeat heavily: a webshop run at scale 1.0 counts
1.39M rows into 120 distinct values. Every report reads a group only through
``summary_stats``, whose nearest-rank figures are exact on a multiset, so no
row list is ever needed. ``decompose`` walks each complete tree once and
counts every tree-level metric row (root round trip, compute, network,
one-way estimate as network / 2 per sync edge, db, and publish latency and
trigger delays per async edge) straight into the run's metric groups; it
keeps per tree only the conserved totals. A group is created by its first
row, so the groups of a metric keep the order the walk first meets them.

Conservation: for a complete tree, root round trip equals total compute +
total network + total db exactly, where parallel blocks contribute their
blocking span as network-wait (branch internals are drill-down detail, not
part of the sum) and async subtrees fall outside the root round trip.

A context's analysis reads only that context's records, and across contexts
every report is a count, a multiset or a list sorted at the end. So, as
Dapper (Sigelman et al., 2010) and Canopy (Kaldor et al., 2017) assemble each
trace on its own, ``_context_trees`` is the one per-context path: it builds a
context's trees, decomposes the complete ones and folds the context's
invocations, the trees' nodes (of a replayed line, the first in log order),
into the run's ``RunAnalysis`` itself, which keeps no invocation list. Two
readers call it: ``analyze_records`` (through ``build_trees``) buckets a
parsed log by context and keeps every record and tree; the streamed read of
``analyze_file`` counts
each context's lines in pass 1 (``count_contexts``), then parses them in
pass 2 (``analyze_stream``) and hands a context over once its count is
reached, and at the end each context still open, such as one with a line
that did not parse. It holds only the open contexts' records.

Neither needs a joined copy of the log. Each parsed record shares one string
per value of the columns whose values repeat across a run's lines: run id,
platform, kind, function, callee, mode, db op, context id and executor key
(``records.parse_record``): a run's hundreds of thousands of records name a
few dozen functions, a few dozen records share each context and a few
hundred invocations each executor. Only the pair ids stay the line's own
strings. The dicts keyed on these columns also compare shared
strings by identity before their characters.

``_context_trees`` makes one pass over the context's records, held in one
list: it classifies them, sorts the nodes once and the call and store
records once, each by (start, pair id), and takes the owner lists, the
orphans and every node's calls and db calls in order from those sorts. A
record's owner is found by bisect over its function's owner list. A context
pays only for what it has: the async-call table is built only when it has an
async call, a root node without calls is not linked, and the orphan scan
runs only when a node is left unlinked. ``decompose`` and ``CallTree.nodes``
each walk a tree in one loop over one explicit stack of nodes, so a publisher
is a node like any other and any depth works.

All quantiles are nearest-rank, and ``summary_stats`` is the one code that
takes them: the metric groups' figures and each cold-start timeline second's
p50 execution duration. Whiskers extend to the most extreme values within 1.5
interquartile ranges of the quartiles. ``summary_stats`` finds them from the
sorted distinct values and their cumulative counts, which give the same
figures as the sorted list of every row.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .records import (
    DB_CALL,
    DROP_PREFIX,
    HEADER_LINE,
    INVOCATION,
    LOADGEN,
    MODE_ASYNC,
    MODE_SYNC,
    MODE_TRIGGER,
    OUTGOING_CALL,
    TraceRecord,
    parse_drop_line,
    parse_record,
)


class AnalysisError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing


@dataclass
class ParseReport:
    records: int = 0
    parse_errors: int = 0
    drops: dict[str, int] = field(default_factory=dict)

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())


def _parsed(text_or_lines, report: ParseReport) -> Iterator[TraceRecord]:
    """The records of a collected log, given as text or as an iterable of its
    lines, in log order; malformed lines and ``#dropped`` counts go into
    ``report``, and the records are left to the caller to count."""
    lines = iter(text_or_lines.splitlines() if isinstance(text_or_lines, str) else text_or_lines)
    for line in lines:  # the first line that is not blank is the header
        if line.strip():
            if line.strip() != HEADER_LINE:
                raise AnalysisError(f"missing or unsupported log header: {line[:60]!r}")
            break
    for line in lines:
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith(DROP_PREFIX):
                try:
                    platform_id, count = parse_drop_line(line)
                    report.drops[platform_id] = report.drops.get(platform_id, 0) + count
                except ValueError:
                    report.parse_errors += 1
            continue
        try:
            record = parse_record(line)
        except ValueError:
            report.parse_errors += 1
        else:
            yield record


def parse_logs(text_or_lines) -> tuple[list[TraceRecord], ParseReport]:
    """Parse a collected log, given as text or as an iterable of its lines;
    malformed lines are counted and skipped."""
    report = ParseReport()
    records = list(_parsed(text_or_lines, report))
    report.records = len(records)
    return records, report


# ---------------------------------------------------------------------------
# call trees


# slotted: a run builds a node per invocation and an edge per call, and a slot
# instance carries no per-instance __dict__
@dataclass(slots=True)
class TreeEdge:
    record: TraceRecord  # OUTGOING_CALL
    child: "TreeNode | None" = None


@dataclass(slots=True)
class TreeNode:
    record: TraceRecord  # INVOCATION
    calls: list[TreeEdge] = field(default_factory=list)
    db_calls: list[TraceRecord] = field(default_factory=list)


@dataclass(slots=True)
class CallTree:
    """A root call (None in a context that has none) and the invocations linked below it;
    ``orphans`` (invocations whose inbound call is missing, and their subtrees) ride on a context's first tree."""
    context_id: str
    root: TraceRecord | None  # loadgen OUTGOING_CALL
    root_node: TreeNode | None
    complete: bool
    orphans: tuple[TreeNode, ...] = ()

    def nodes(self):
        """The root node's subtree, then each orphan's, in pre-order with
        children in call order; one explicit stack, so any depth."""
        stack = list(reversed(self.orphans))
        if self.root_node is not None:
            stack.append(self.root_node)
        while stack:
            node = stack.pop()
            yield node
            for edge in reversed(node.calls):
                if edge.child is not None:
                    stack.append(edge.child)

    def edge_set(self) -> set[tuple[str, str | None, str, str]]:
        """(context, parent pair, pair, kind) tuples, comparable with the
        simulator's exported ground truth; a call edge's kind is its mode."""
        out: set[tuple[str, str | None, str, str]] = set()
        if self.root is not None:
            out.add((self.context_id, None, self.root.pair_id, "root"))
        for node in self.nodes():
            for edge in node.calls:
                out.add((self.context_id, node.record.pair_id, edge.record.pair_id, edge.record.mode))
            for db in node.db_calls:
                out.add((self.context_id, node.record.pair_id, db.pair_id, "db"))
        return out


# the (start, pair id) sort key of a record and of a node, the start of a node, and its record
_start_pair = attrgetter("start_us", "pair_id")
_node_start_pair = attrgetter("record.start_us", "record.pair_id")
_node_start = attrgetter("record.start_us")
_record_of = attrgetter("record")


def build_trees(records: list[TraceRecord], run: RunAnalysis | None = None) -> list[CallTree]:
    """One tree per load-generator root call, in context id order; a context
    with none yields one rootless tree, so every context of the log has a
    tree. Each context is folded into ``run`` if given."""
    by_ctx: defaultdict[str, list[TraceRecord]] = defaultdict(list)
    for r in records:
        by_ctx[r.context_id].append(r)
    trees: list[CallTree] = []
    for ctx in sorted(by_ctx):
        trees += _context_trees(by_ctx.pop(ctx), run)  # each context's list is freed once it is built
    return trees


def _context_trees(records: list[TraceRecord], run: RunAnalysis | None) -> list[CallTree]:
    """The call trees of one context, from its records in log order, in
    (start, pair id) order of their roots, folded into ``run`` if given.

    The context gets one verdict, which sets ``complete`` on all of its
    trees. It is lossy on
    an unmatched pair (a call or root whose invocation is missing or already
    linked), an orphan invocation, a caller-side record with no owner, or a
    pair id logged twice by records of one kind (INVOCATION, OUTGOING_CALL or
    DB_CALL). Every tree of a lossy context is incomplete: a lost or replayed
    line would otherwise leave a tree that looks closed while it misses a
    subtree or counts rows twice. A tree with a root node in a clean context
    is complete. Of a replayed invocation the first line in log order is the
    node, and only here: every node lands in one tree, under a root or among
    the orphans, so the trees' nodes are the run's invocations. A lost DB_CALL
    is the one loss the schema cannot show: no pair of it reappears, so its
    tree stays complete and its store time is booked as compute."""
    ctx = records[0].context_id
    # the context's records by kind, in log order
    nodes: dict[str, TreeNode] = {}
    replayed = False  # an invocation pair id logged twice
    roots: list[TraceRecord] = []
    placed: list[TraceRecord] = []  # function and db calls, each placed under its owner
    db_count = 0
    # the callee of each async call by its pair id (the inbound pair of the
    # publisher invocation the call started), when the context has one
    published: dict[str, str] | None = None
    for r in records:
        kind = r.kind
        if kind == INVOCATION:
            if r.pair_id in nodes:
                replayed = True  # a replayed invocation keeps its first line
            else:
                nodes[r.pair_id] = TreeNode(r, [], [])
        elif kind == OUTGOING_CALL:
            if r.platform_id == LOADGEN:
                roots.append(r)
            else:
                placed.append(r)
                if r.mode == MODE_ASYNC:
                    if published is None:
                        published = {}
                    published[r.pair_id] = r.callee
        elif kind == DB_CALL:
            placed.append(r)
            db_count += 1

    # the context's one sort of its nodes: it orders each owner list and the orphans
    ordered = list(nodes.values())
    if len(ordered) > 1:
        ordered.sort(key=_node_start_pair)
    lossy = replayed
    if placed:
        by_owner: dict[str, list[TreeNode]] = {}  # a function's invocations
        for node in ordered:
            by_owner.setdefault(node.record.function, []).append(node)
        # placed in (start, pair id) order, so each node's calls and db calls come out sorted
        if len(placed) > 1:
            placed.sort(key=_start_pair)
        for rec in placed:
            owner = _find_owner(by_owner, rec, published)
            if owner is None:
                lossy = True  # a caller-side record with no owner
            elif rec.kind == DB_CALL:
                owner.db_calls.append(rec)
            else:
                owner.calls.append(TreeEdge(rec))
        # a call logged twice is unmatched below (its invocation is linked by then), a db call
        # by its pair set, which most contexts have too few store records to need
        if db_count > 1 and len({r.pair_id for r in placed if r.kind == DB_CALL}) != db_count:
            lossy = True

    # the context's trees, judged complete once its verdict is in
    context_trees: list[CallTree] = []
    consumed: set[str] = set()
    if len(roots) > 1:
        roots.sort(key=_start_pair)
    for root in roots:
        root_node = nodes.get(root.pair_id)
        if root_node is None or root.pair_id in consumed:
            lossy = True  # an unmatched root, a root logged twice included
            root_node = None
        else:
            consumed.add(root.pair_id)
            if root_node.calls and _link(root_node, nodes, consumed):
                lossy = True
        context_trees.append(CallTree(ctx, root, root_node, False))
    if not context_trees:
        context_trees.append(CallTree(ctx, None, None, False))

    if len(consumed) < len(nodes):  # consumed holds pair ids of nodes only
        lossy = True  # an orphan invocation
        orphans: list[TreeNode] = []
        for node in ordered:
            pair = node.record.pair_id
            if pair not in consumed:
                consumed.add(pair)
                _link(node, nodes, consumed)
                orphans.append(node)
        context_trees[0].orphans = tuple(orphans)

    if not lossy:  # the context's one verdict
        for tree in context_trees:
            tree.complete = tree.root_node is not None
    if run is not None:
        run.add(context_trees, map(_record_of, ordered))
    return context_trees


def _find_owner(by_owner: dict[str, list[TreeNode]], rec: TraceRecord,
                published: dict[str, str] | None) -> TreeNode | None:
    """The innermost invocation of ``rec``'s function on ``rec``'s platform
    that contains it. Each owner list holds one function's invocations, sorted
    by (start, pair id): the candidates that start by ``rec``'s start are the
    prefix a bisect finds, and the first of them from its end that runs on
    ``rec``'s platform and contains ``rec`` is the latest-starting one, and of
    equal starts the one with the larger pair id."""
    candidates = by_owner.get(rec.function)
    if candidates is None:
        return None
    platform = rec.platform_id
    # sync/db records complete within their invocation; an async record closes
    # when the publisher finishes, which may be after the caller's own end, so
    # only its send instant must fall inside the owner
    start = rec.start_us
    end = start if rec.mode == MODE_ASYNC else rec.end_us
    # publishers of one context may start in the same microsecond; a trigger
    # record belongs to the one whose inbound async call names the same callee
    trigger = rec.mode == MODE_TRIGGER
    i = bisect_right(candidates, start, key=_node_start)
    while i:
        i -= 1
        r = candidates[i].record
        if (end <= r.end_us and r.platform_id == platform
                and (not trigger or (published.get(r.pair_id) if published else None) == rec.callee)):
            return candidates[i]
    return None


def _link(node: TreeNode, nodes: dict[str, TreeNode], consumed: set[str]) -> bool:
    """Attach children depth-first in call order; True when a call's
    invocation is missing or already linked."""
    unmatched = False
    stack = [iter(node.calls)]
    while stack:
        # resume the deepest node's calls; descend at its next linked child
        for edge in stack[-1]:
            child = nodes.get(edge.record.pair_id)
            if child is None or edge.record.pair_id in consumed:
                unmatched = True
                continue
            consumed.add(edge.record.pair_id)
            edge.child = child
            if child.calls:
                stack.append(iter(child.calls))
                break
        else:
            stack.pop()
    return unmatched


# ---------------------------------------------------------------------------
# latency decomposition


@dataclass(slots=True)
class LatencyBreakdown:
    """One complete tree's conserved totals; its metric rows live in the
    run's metric groups."""
    context_id: str
    entry_function: str
    root_round_trip_us: int
    total_compute_us: int
    total_network_us: int
    total_db_us: int

    @property
    def conservation_residual_us(self) -> int:
        return self.root_round_trip_us - (self.total_compute_us + self.total_network_us + self.total_db_us)


# the run's metric groups, in summary.json order; each metric maps a group to its multiset
METRIC_NAMES = ("root_round_trip", "exec_duration", "compute", "network", "network_oneway", "db",
                "publish_latency", "trigger_delay")

_start_end = itemgetter(0, 1)  # the sort key of a node's (start, end, call) items


def decompose(tree: CallTree, metrics: dict[str, dict[str, dict]]) -> LatencyBreakdown:
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


def trigger_metrics(metrics: dict[str, dict[str, dict]]) -> tuple[dict[str, dict], dict[str, dict]]:
    """({"origin->dest": publish latency -> count}, {"origin->dest": trigger
    delay -> count}), the multisets ``decompose`` filled in the run's metrics,
    one publish row per async edge; sync-only trees contribute nothing.
    A run calls none of this; it stays only for perfbench's ``ANALYSIS_CALLS``
    table and the tests, until the benchmark stops wrapping it."""
    return metrics["publish_latency"], metrics["trigger_delay"]


def estimate_skew_corrected_network(metrics: dict[str, dict[str, dict]]) -> dict[str, dict]:
    """{"from->to": one-way estimate -> count}, the multisets ``decompose``
    filled in the run's metrics: per sync edge (caller round trip − callee
    execution) / 2. Duration based, so constant per-platform clock offsets
    cancel; under asymmetric legs the estimate is the two-leg mean
    (documented bias). A run calls none of this; it stays only for
    perfbench's ``ANALYSIS_CALLS`` table and the tests, until the benchmark
    stops wrapping it."""
    return metrics["network_oneway"]


# ---------------------------------------------------------------------------
# cold starts


class PhaseWindow(NamedTuple):
    name: str
    kind: str
    start_us: int
    end_us: int


class BucketStat(NamedTuple):  # one second of the cold-start timeline
    index: int
    count: int
    cold: int
    p50_exec_us: float | None


TIMELINE_SECONDS = 30  # seconds of the cold-start timeline, from the start of the last burst


def coldstart_report(invocations: Iterable[TraceRecord], phases: list[PhaseWindow] | None = None) -> RunAnalysis:
    """The analysis of the invocations alone, the nodes of the call trees,
    for its cold-start counts. A phase or timeline bucket holds an invocation
    by its logged start, so a platform's clock offset moves it (the totals
    excepted), and one that starts after the last phase ends is in no phase.
    The phases are in time order and do not overlap, as
    ``LoadProfile.phase_windows`` gives them. A run calls none of this; it
    stays only for perfbench's ``ANALYSIS_CALLS`` table and the tests, until
    the benchmark stops wrapping it."""
    run = RunAnalysis(phases)
    run.add([], invocations)
    return run


def coldstart_crosscheck(records: Iterable[TraceRecord]) -> int:
    """Recompute cold flags from the first invocation of each executor key,
    its least (start, end, pair id); returns the number of invocations whose
    logged flag disagrees. Pass the call trees' invocations to count a
    replayed line once. A run calls none of this; it stays only for
    perfbench's ``ANALYSIS_CALLS`` table and the tests, until the benchmark
    stops wrapping it."""
    run = RunAnalysis()
    run.add([], (r for r in records if r.kind == INVOCATION and r.executor_key))
    return run.cold_flag_mismatches


# ---------------------------------------------------------------------------
# summaries


class SummaryStats(NamedTuple):
    """A group's nearest-rank statistics, in summary.csv's column order."""

    count: int
    min: float | None = None
    p25: float | None = None
    p50: float | None = None
    p75: float | None = None
    max: float | None = None
    whisker_low: float | None = None
    whisker_high: float | None = None


def summary_stats(counts) -> SummaryStats:
    """The nearest-rank statistics of a multiset, a mapping of each value to
    how often it occurs (a metric group, or ``Counter(values)``); they equal
    those of the sorted list of every occurrence."""
    vals = sorted(counts)
    if not vals:
        return SummaryStats(count=0)
    cumulative = list(accumulate([counts[v] for v in vals]))
    n = cumulative[-1]

    def rank(p: float):
        # the value at 1-based rank ceil(p*n): the first whose cumulative count reaches it
        return vals[bisect_left(cumulative, max(1, math.ceil(p * n)))]

    p25 = rank(0.25)
    p75 = rank(0.75)
    iqr = p75 - p25
    # the values inside the whisker limits are one run of the sorted values,
    # and it holds the quartiles. Integer limits, rounded inward, bound the
    # same integers exactly; a float limit past 2**53 could round past a quartile
    reach = 3 * iqr // 2 if type(iqr) is int else 1.5 * iqr
    low = bisect_left(vals, p25 - reach)
    high = bisect_right(vals, p75 + reach)
    return SummaryStats(
        count=n,
        min=vals[0],
        p25=p25,
        p50=rank(0.5),
        p75=p75,
        max=vals[-1],
        whisker_low=vals[low],
        whisker_high=vals[high - 1],
    )


def summarize(groups: dict[str, dict]) -> dict[str, SummaryStats]:
    """Per-group nearest-rank summaries of value -> count multisets; adds an
    ``_all`` group that pools them by adding counts."""
    out = {key: summary_stats(counts) for key, counts in sorted(groups.items())}
    if groups:
        pooled: dict = {}
        for counts in groups.values():
            for v, c in counts.items():
                pooled[v] = pooled.get(v, 0) + c
        out["_all"] = summary_stats(pooled)
    return out


# ---------------------------------------------------------------------------
# whole-run analysis and report files


class RunAnalysis:
    """A run's analysis, folded one trace context at a time by ``add``.

    ``parse`` counts the log's records, parse errors and drops, and
    ``tree_count`` its trees. ``metrics`` maps each of ``METRIC_NAMES`` to
    its groups, and each group is an exact multiset: a dict of value ->
    count. ``breakdowns`` are in context id order; ``trees``, in the same
    order, is kept only by ``analyze_records`` and is None after a streamed
    analysis. ``total_invocations`` and ``total_cold`` count the invocations,
    ``per_phase`` and ``timeline`` count them per phase and per second of the
    last burst, and ``cold_flag_mismatches`` checks their cold flags."""

    def __init__(self, phases: list[PhaseWindow] | None = None):
        self.parse = ParseReport()
        self.tree_count = 0
        self.metrics: dict[str, dict[str, dict]] = {name: {} for name in METRIC_NAMES}
        self.breakdowns: list[LatencyBreakdown] = []
        self.trees: list[CallTree] | None = None
        self.total_invocations = 0
        self.total_cold = 0
        self._phases = phases or []
        self._phase_starts = [ph.start_us for ph in self._phases]
        self._phase_ends = [ph.end_us for ph in self._phases]
        self._phase_invocations = [0] * len(self._phases)
        self._phase_cold = [0] * len(self._phases)
        bursts = [ph for ph in self._phases if ph.kind == "burst"]
        # the cold-start profile lives in the load-peak phase: the last burst (the one after any pause)
        self._burst_start = bursts[-1].start_us if bursts else None
        self._timeline_exec: list[dict[int, int]] = [{} for _ in range(TIMELINE_SECONDS)]
        self._timeline_cold = [0] * TIMELINE_SECONDS
        self._first: dict[str, list] = {}  # executor key -> [(start, end, pair id), ties, cold ties]

    @property
    def complete_trees(self) -> int:
        return len(self.breakdowns)  # one breakdown per complete tree

    @property
    def incomplete_trees(self) -> int:
        return self.tree_count - self.complete_trees

    @property
    def per_phase(self) -> list[tuple[str, int, int]]:
        """(phase name, invocations, cold) per phase, in profile order."""
        return list(zip([ph.name for ph in self._phases], self._phase_invocations, self._phase_cold))

    @property
    def timeline(self) -> list[BucketStat]:
        """The first ``TIMELINE_SECONDS`` seconds of the last burst; none without a burst."""
        if self._burst_start is None:
            return []
        return [BucketStat(i, s.count, self._timeline_cold[i], s.p50)
                for i, s in enumerate(map(summary_stats, self._timeline_exec))]

    @property
    def cold_flag_mismatches(self) -> int:
        # a cold invocation that is not first disagrees, and so does a first one that is not cold
        return self.total_cold + sum(ties - 2 * cold_ties for _, ties, cold_ties in self._first.values())

    def summaries(self) -> dict[str, dict[str, SummaryStats]]:
        return {metric: summarize(groups) for metric, groups in self.metrics.items()}

    def add(self, trees: list[CallTree], invocations: Iterable[TraceRecord]) -> None:
        """Fold one context: its trees, each complete one decomposed, and its
        invocations, the trees' nodes, into the execution durations and the
        cold-start counts."""
        self.tree_count += len(trees)
        for tree in trees:
            if tree.complete:
                self.breakdowns.append(decompose(tree, self.metrics))
        exec_duration = self.metrics["exec_duration"]
        starts = self._phase_starts
        burst = self._burst_start
        first = self._first
        for r in invocations:
            start = r.start_us
            d = r.end_us - start
            cold = r.cold_start
            g = exec_duration.get(r.function) or exec_duration.setdefault(r.function, {})
            g[d] = g.get(d, 0) + 1
            self.total_invocations += 1
            if cold:
                self.total_cold += 1
            if starts:
                i = bisect_right(starts, start) - 1
                if i >= 0 and start < self._phase_ends[i]:
                    self._phase_invocations[i] += 1
                    if cold:
                        self._phase_cold[i] += 1
                if burst is not None:
                    i = (start - burst) // 1_000_000
                    if 0 <= i < TIMELINE_SECONDS:
                        g = self._timeline_exec[i]
                        g[d] = g.get(d, 0) + 1
                        if cold:
                            self._timeline_cold[i] += 1
            key = (start, r.end_us, r.pair_id)
            f = first.get(r.executor_key)
            if f is None or key < f[0]:
                first[r.executor_key] = [key, 1, 1 if cold else 0]
            elif key == f[0]:  # the same first invocation in another context
                f[1] += 1
                if cold:
                    f[2] += 1


def analyze_records(records: list[TraceRecord], parse_report: ParseReport,
                    phases: list[PhaseWindow] | None = None) -> RunAnalysis:
    """Analyze a run's parsed records, keeping its call trees; ``build_trees``
    visits the contexts in id order, so the breakdowns come out in it."""
    run = RunAnalysis(phases)
    run.parse = parse_report
    run.trees = build_trees(records, run)
    return run


def analyze_log_text(text_or_lines, phases: list[PhaseWindow] | None = None) -> RunAnalysis:
    """Parse and analyze a collected log, given as text or as its lines,
    keeping its records and call trees."""
    records, report = parse_logs(text_or_lines)
    return analyze_records(records, report, phases)


_context_of = attrgetter("context_id")  # the sort key of the streamed breakdowns

# map(str.split, lines, _TAB, _FIVE) splits each line at its first five tabs, with no Python frame per line
_TAB = repeat("\t")
_FIVE = repeat(5)


def count_contexts(line_batches: Iterable[list[str]]) -> Counter[str]:
    """Pass 1 of the streamed analysis: the lines per context id, the fifth
    column of every line with at least six, of a log's lines given as lists.
    So every record's line is counted; a line that does not parse may be
    too, which only keeps its context open to the end of pass 2."""
    counts: Counter[str] = Counter()
    for lines in line_batches:
        counts.update([fields[4] for fields in map(str.split, lines, _TAB, _FIVE) if len(fields) == 6])
    return counts


def analyze_stream(lines: Iterable[str], counts: Counter[str], phases: list[PhaseWindow] | None = None) -> RunAnalysis:
    """Pass 2 of the streamed analysis: parse the lines that ``count_contexts``
    counted into ``counts`` (consumed here) and analyze each context once its
    count is reached, and at the end each context still open. Keeps no tree;
    otherwise the result equals ``analyze_records`` over the same lines."""
    run = RunAnalysis(phases)
    report = run.parse
    open_contexts: dict[str, tuple[list[TraceRecord], int]] = {}
    get = open_contexts.get
    for r in _parsed(lines, report):
        ctx = r.context_id
        held = get(ctx)
        if held is None:  # the context's first record
            need = counts.pop(ctx)
            bucket = [r]
            if need > 1:
                open_contexts[ctx] = (bucket, need)
                continue
        else:
            bucket, need = held
            bucket.append(r)
            if len(bucket) < need:
                continue
            del open_contexts[ctx]
        report.records += len(bucket)
        _context_trees(bucket, run)
    for bucket, _ in open_contexts.values():  # a context with a line that did not parse
        report.records += len(bucket)
        _context_trees(bucket, run)
    run.breakdowns.sort(key=_context_of)  # stable: a context's trees keep their order
    return run


def write_reports(analysis: RunAnalysis, out_dir: str | Path, charts: bool = False) -> None:
    """Write summary.json and the CSV tables into ``out_dir``, and with
    ``charts`` one box chart per metric into its ``charts`` directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summaries = analysis.summaries()

    def emit_csv(name: str, header: list[str], rows) -> None:
        with (out / name).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    stat_header = ["metric", "group", "count", "min_us", "p25_us", "p50_us", "p75_us", "max_us",
                   "whisker_low_us", "whisker_high_us"]
    stat_keys = ("count", "min", "p25", "p50", "p75", "max", "whiskerLow", "whiskerHigh")  # in summary.json
    emit_csv("summary.csv", stat_header,
             [[metric, group, *s] for metric, groups in summaries.items() for group, s in groups.items()])

    emit_csv(
        "trees.csv",
        ["context", "entry", "root_round_trip_us", "compute_us", "network_us", "db_us", "residual_us"],
        ((bd.context_id, bd.entry_function, bd.root_round_trip_us, bd.total_compute_us,
          bd.total_network_us, bd.total_db_us, bd.conservation_residual_us)
         for bd in analysis.breakdowns),
    )

    for name, metric in (("trigger_delays.csv", "trigger_delay"), ("publish_latency.csv", "publish_latency")):
        emit_csv(name, stat_header[1:], [[g, *s] for g, s in summaries.get(metric, {}).items()])
    emit_csv("cold_starts.csv", ["phase", "invocations", "cold"], analysis.per_phase)
    emit_csv("timeline.csv", ["bucket_s", "count", "cold", "p50_exec_us"], analysis.timeline)

    summary = {
        "schemaVersion": 1,
        "records": analysis.parse.records,
        "parseErrors": analysis.parse.parse_errors,
        "drops": analysis.parse.drops,
        "totalDrops": analysis.parse.total_drops,
        "trees": {
            "total": analysis.tree_count,
            "complete": analysis.complete_trees,
            "incomplete": analysis.incomplete_trees,
        },
        "coldStarts": {
            "invocations": analysis.total_invocations,
            "cold": analysis.total_cold,
            "flagMismatches": analysis.cold_flag_mismatches,
            "perPhase": [
                {"phase": name, "invocations": n, "cold": c} for name, n, c in analysis.per_phase
            ],
        },
        "metrics": {
            metric: {group: dict(zip(stat_keys, s)) for group, s in groups.items()}
            for metric, groups in summaries.items()
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    if charts:  # one box chart per metric with data, from the statistics in summary.csv
        from .charts import box_chart_png  # only runs that ask for charts pay for this import

        (out / "charts").mkdir(exist_ok=True)
        for metric, groups in summaries.items():
            boxes = {group: s for group, s in groups.items() if s.count}
            if boxes:
                (out / "charts" / f"{metric}.png").write_bytes(box_chart_png(f"{metric} (us)", boxes))
