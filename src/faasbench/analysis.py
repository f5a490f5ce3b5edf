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

``decompose`` walks each complete tree once and appends every tree-level
metric row (root round trip, compute, network, one-way estimate as network / 2
per sync edge, db, and publish latency and trigger delays per async edge)
straight into the run's metric groups, a node's rows where the walk meets the
node; it keeps per tree only the conserved totals. No later pass reads the
rows back. Row order inside a group is the walk's, and no report depends on it.

Conservation: for a complete tree, root round trip equals total compute +
total network + total db exactly, where parallel blocks contribute their
blocking span as network-wait (branch internals are drill-down detail, not
part of the sum) and async subtrees fall outside the root round trip.

Record-level metrics (execution durations, cold-start counts and the
cold-flag cross-check) read the invocations of the call trees. ``build_trees``
is the one place that picks them: each (context, pair id) invocation once,
from its first line in log order.

The analyzer takes the log as text or as its lines (``analyze_file``, which
a run calls on its own ``raw.log``, hands over the file's lines as it reads
them), so it never needs a joined copy of the log. Each parsed record shares one string
per value of the columns whose values repeat across a run's lines: run id,
platform, kind, function, callee, mode, db op, context id and executor key
(``records.parse_record``): a run's hundreds of thousands of records name a
few dozen functions, a few dozen records share each context and a few
hundred invocations each executor. Only the pair ids stay the line's own
strings. The dicts keyed on these columns also compare shared
strings by identity before their characters.

``build_trees`` makes one pass per context over the context's records, held
in one list: it classifies them, sorts the nodes once and the call and store
records once, each by (start, pair id), and takes the owner lists, the
orphans and every node's calls and db calls in order from those sorts. A
record's owner is found by bisect over its function's owner list. A context
pays only for what it has: the async-call table is built only when it has an
async call, a root node without calls is not linked, and the orphan scan
runs only when a node is left unlinked. ``decompose`` and ``CallTree.nodes``
each walk a tree in one loop over one explicit stack of nodes, so a publisher
is a node like any other and any depth works.

All quantiles are nearest-rank; whiskers extend to the most extreme values
within 1.5 interquartile ranges of the quartiles.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

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


def parse_logs(text_or_lines) -> tuple[list[TraceRecord], ParseReport]:
    """Parse a collected log, given as text or as an iterable of its lines;
    malformed lines are counted and skipped."""
    lines = iter(text_or_lines.splitlines() if isinstance(text_or_lines, str) else text_or_lines)
    report = ParseReport()
    records: list[TraceRecord] = []
    for line in lines:  # the first line that is not blank is the header
        if line.strip():
            if line.strip() != HEADER_LINE:
                raise AnalysisError(f"missing or unsupported log header: {line[:60]!r}")
            break
    append = records.append
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
            append(parse_record(line))
        except ValueError:
            report.parse_errors += 1
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


# the (start, pair id) sort key of a record and of a node, and the start of a node
_start_pair = attrgetter("start_us", "pair_id")
_node_start_pair = attrgetter("record.start_us", "record.pair_id")
_node_start = attrgetter("record.start_us")


def build_trees(records: list[TraceRecord]) -> list[CallTree]:
    """One tree per load-generator root call; a context with none yields one
    rootless tree, so every context of the log has a tree.

    Each context gets one verdict, which sets ``complete`` on all of its
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
    by_ctx: defaultdict[str, list[TraceRecord]] = defaultdict(list)
    for r in records:
        by_ctx[r.context_id].append(r)

    trees: list[CallTree] = []
    for ctx in sorted(by_ctx):
        # the context's records by kind, in log order
        nodes: dict[str, TreeNode] = {}
        replayed = False  # an invocation pair id logged twice
        roots: list[TraceRecord] = []
        placed: list[TraceRecord] = []  # function and db calls, each placed under its owner
        db_count = 0
        # the callee of each async call by its pair id (the inbound pair of the
        # publisher invocation the call started), when the context has one
        published: dict[str, str] | None = None
        for r in by_ctx[ctx]:
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
        trees += context_trees
    return trees


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


# the run's metric groups, in summary.json order
METRIC_NAMES = ("root_round_trip", "exec_duration", "compute", "network", "network_oneway", "db",
                "publish_latency", "trigger_delay")

_start_end = itemgetter(0, 1)  # the sort key of a node's (start, end, call) items


def decompose(tree: CallTree, metrics: dict[str, dict[str, list]]) -> LatencyBreakdown:
    """Split a complete tree (a root node in a context ``build_trees`` found
    clean) into compute/network/db: append each tree-level metric row to its
    group in ``metrics`` (``RunAnalysis.metrics``, keyed by ``METRIC_NAMES``)
    and return the tree's conserved totals; any other tree raises AnalysisError.

    The walk appends a node's rows where it meets the node: per sync or db
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
    metrics["root_round_trip"].setdefault(root.callee, []).append(round_trip)
    compute_rows = metrics["compute"]
    network_rows = metrics["network"]
    oneway_rows = metrics["network_oneway"]
    db_rows = metrics["db"]
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
                    network_rows.setdefault(f"{rec.function}->{child_rec.function}", []).append(network)
                    oneway_rows.setdefault(f"{rec.platform_id}->{child_rec.platform_id}", []).append(network / 2)
                    stack.append((child, conserved and not in_block))
                    if not in_block:
                        seq_sync_us += end - start
                        if conserved:
                            total_network += network
                else:
                    db_rows.setdefault(f"{rec.platform_id}/{item.callee}", []).append(end - start)
                    if not in_block:
                        seq_db_us += end - start
            i = j

        compute = rec.end_us - rec.start_us - seq_sync_us - seq_db_us - block_wait_us
        compute_rows.setdefault(rec.function, []).append(compute)
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
                group = f"{e.record.platform_id}->{pub_rec.platform_id}"
                metrics["publish_latency"].setdefault(group, []).append(
                    e.record.end_us - e.record.start_us - (pub_rec.end_us - pub_rec.start_us))
                for t in child.calls:
                    if t.record.mode == MODE_TRIGGER:
                        metrics["trigger_delay"].setdefault(group, []).append(
                            t.child.record.start_us - pub_rec.start_us)
        if len(stack) - base > 1:
            stack[base:] = reversed(stack[base:])

    return LatencyBreakdown(tree.context_id, root.callee, round_trip, total_compute, total_network, total_db)


def trigger_metrics(metrics: dict[str, dict[str, list]]) -> tuple[dict[str, list], dict[str, list]]:
    """({"origin->dest": publish latencies}, {"origin->dest": trigger delays}),
    the groups ``decompose`` filled in the run's metrics, one publish row per
    async edge; sync-only trees contribute nothing."""
    return metrics["publish_latency"], metrics["trigger_delay"]


def estimate_skew_corrected_network(metrics: dict[str, dict[str, list]]) -> dict[str, list]:
    """{"from->to": one-way estimates}, the group ``decompose`` filled in the
    run's metrics: per sync edge (caller round trip − callee execution) / 2.
    Duration based, so constant per-platform clock offsets cancel; under
    asymmetric legs the estimate is the two-leg mean (documented bias)."""
    return metrics["network_oneway"]


# ---------------------------------------------------------------------------
# cold starts


class PhaseWindow(NamedTuple):
    name: str
    kind: str
    start_us: int
    end_us: int


@dataclass
class BucketStat:
    index: int
    count: int
    cold: int
    p50_exec_us: float | None


@dataclass
class ColdstartReport:
    total_invocations: int
    total_cold: int
    per_phase: list[tuple[str, int, int]]  # (phase name, invocations, cold)
    timeline: list[BucketStat]  # last burst phase, per second, first TIMELINE_SECONDS


TIMELINE_SECONDS = 30  # seconds of the cold-start timeline, from the start of the last burst


def coldstart_report(invocations: list[TraceRecord], phases: list[PhaseWindow] | None = None) -> ColdstartReport:
    """Cold-start counts of the run's invocations, the nodes of the call trees.
    A phase or timeline bucket holds an invocation by its logged start, so a
    platform's clock offset moves it (the totals excepted), and one that
    starts after the last phase ends is in no phase."""
    total_cold = sum(1 for r in invocations if r.cold_start)
    per_phase: list[tuple[str, int, int]] = []
    timeline: list[BucketStat] = []
    if phases:
        for ph in phases:
            within = [r for r in invocations if ph.start_us <= r.start_us < ph.end_us]
            per_phase.append((ph.name, len(within), sum(1 for r in within if r.cold_start)))
        bursts = [ph for ph in phases if ph.kind == "burst"]
        if bursts:
            # the cold-start profile lives in the load-peak phase: the last
            # burst (the one after any pause)
            burst = bursts[-1]
            buckets: list[list[TraceRecord]] = [[] for _ in range(TIMELINE_SECONDS)]
            for r in invocations:
                i = (r.start_us - burst.start_us) // 1_000_000
                if 0 <= i < TIMELINE_SECONDS:
                    buckets[i].append(r)
            for i, bucket in enumerate(buckets):
                execs = sorted(r.duration_us for r in bucket)
                timeline.append(
                    BucketStat(i, len(bucket), sum(1 for r in bucket if r.cold_start),
                               nearest_rank(execs, 0.5) if execs else None)
                )
    return ColdstartReport(len(invocations), total_cold, per_phase, timeline)


_start_end_pair = attrgetter("start_us", "end_us", "pair_id")


def coldstart_crosscheck(records: list[TraceRecord]) -> int:
    """Recompute cold flags from the first invocation of each executor key,
    its least (start, end, pair id), kept as a running minimum; returns the
    number of invocations whose logged flag disagrees. Pass the call trees'
    invocations to count a replayed line once."""
    invs = [r for r in records if r.kind == INVOCATION and r.executor_key]
    first: dict[str, tuple[int, int, str]] = {}
    for r in invs:
        key = _start_end_pair(r)
        if key < first.setdefault(r.executor_key, key):
            first[r.executor_key] = key
    return sum(1 for r in invs if bool(r.cold_start) != (first[r.executor_key][2] == r.pair_id))


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


def nearest_rank(sorted_values, p: float):
    """Nearest-rank quantile on an ascending list (1-based ceil(p*n))."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty")
    idx = max(1, math.ceil(p * n))
    return sorted_values[idx - 1]


def summary_stats(values) -> SummaryStats:
    vals = sorted(values)
    if not vals:
        return SummaryStats(count=0)
    p25 = nearest_rank(vals, 0.25)
    p75 = nearest_rank(vals, 0.75)
    iqr = p75 - p25
    # the values inside the whisker limits are one run of the sorted values,
    # and it holds the quartiles. Integer limits, rounded inward, bound the
    # same integers exactly; a float limit past 2**53 could round past a quartile
    reach = 3 * iqr // 2 if type(iqr) is int else 1.5 * iqr
    low = bisect_left(vals, p25 - reach)
    high = bisect_right(vals, p75 + reach)
    return SummaryStats(
        count=len(vals),
        min=vals[0],
        p25=p25,
        p50=nearest_rank(vals, 0.5),
        p75=p75,
        max=vals[-1],
        whisker_low=vals[low],
        whisker_high=vals[high - 1],
    )


def summarize(groups: dict[str, list]) -> dict[str, SummaryStats]:
    """Per-group nearest-rank summaries; adds an ``_all`` pooled group."""
    out = {key: summary_stats(vals) for key, vals in sorted(groups.items())}
    if groups:
        pooled: list = []
        for vals in groups.values():
            pooled.extend(vals)
        out["_all"] = summary_stats(pooled)
    return out


# ---------------------------------------------------------------------------
# whole-run analysis and report files


@dataclass
class RunAnalysis:
    parse: ParseReport
    trees: list[CallTree]
    breakdowns: list[LatencyBreakdown]
    coldstart: ColdstartReport
    cold_flag_mismatches: int
    metrics: dict[str, dict[str, list]]

    @property
    def complete_trees(self) -> int:
        return len(self.breakdowns)  # one breakdown per complete tree

    @property
    def incomplete_trees(self) -> int:
        return len(self.trees) - self.complete_trees

    def summaries(self) -> dict[str, dict[str, SummaryStats]]:
        return {metric: summarize(groups) for metric, groups in self.metrics.items()}


def analyze_records(records: list[TraceRecord], parse_report: ParseReport,
                    phases: list[PhaseWindow] | None = None) -> RunAnalysis:
    trees = build_trees(records)
    metrics: dict[str, dict[str, list]] = {name: {} for name in METRIC_NAMES}
    breakdowns = [decompose(tree, metrics) for tree in trees if tree.complete]

    # record-level metric: execution durations (usable under log loss)
    invocations = [node.record for tree in trees for node in tree.nodes()]
    exec_duration = metrics["exec_duration"]
    for r in invocations:
        exec_duration.setdefault(r.function, []).append(r.duration_us)

    return RunAnalysis(
        parse=parse_report,
        trees=trees,
        breakdowns=breakdowns,
        coldstart=coldstart_report(invocations, phases),
        cold_flag_mismatches=coldstart_crosscheck(invocations),
        metrics=metrics,
    )


def analyze_log_text(text_or_lines, phases: list[PhaseWindow] | None = None) -> RunAnalysis:
    """Parse and analyze a collected log, given as text or as its lines."""
    records, report = parse_logs(text_or_lines)
    return analyze_records(records, report, phases)


def write_reports(analysis: RunAnalysis, out_dir: str | Path, charts: bool = False) -> dict[str, str]:
    """Write summary.json plus the CSV tables; returns {name: path}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}

    summaries = analysis.summaries()

    def emit_csv(name: str, header: list[str], rows) -> None:
        path = out / name
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written[name] = str(path)

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

    emit_csv(
        "trigger_delays.csv",
        stat_header[1:],
        [[g, *s] for g, s in summaries.get("trigger_delay", {}).items()],
    )
    emit_csv(
        "publish_latency.csv",
        stat_header[1:],
        [[g, *s] for g, s in summaries.get("publish_latency", {}).items()],
    )
    emit_csv(
        "cold_starts.csv",
        ["phase", "invocations", "cold"],
        [[name, n, cold] for name, n, cold in analysis.coldstart.per_phase],
    )
    emit_csv(
        "timeline.csv",
        ["bucket_s", "count", "cold", "p50_exec_us"],
        [[b.index, b.count, b.cold, b.p50_exec_us] for b in analysis.coldstart.timeline],
    )

    summary = {
        "schemaVersion": 1,
        "records": analysis.parse.records,
        "parseErrors": analysis.parse.parse_errors,
        "drops": analysis.parse.drops,
        "totalDrops": analysis.parse.total_drops,
        "trees": {
            "total": len(analysis.trees),
            "complete": analysis.complete_trees,
            "incomplete": analysis.incomplete_trees,
        },
        "coldStarts": {
            "invocations": analysis.coldstart.total_invocations,
            "cold": analysis.coldstart.total_cold,
            "flagMismatches": analysis.cold_flag_mismatches,
            "perPhase": [
                {"phase": name, "invocations": n, "cold": c} for name, n, c in analysis.coldstart.per_phase
            ],
        },
        "metrics": {
            metric: {group: dict(zip(stat_keys, s)) for group, s in groups.items()}
            for metric, groups in summaries.items()
        },
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    written["summary.json"] = str(summary_path)

    if charts:
        _write_charts(summaries, out / "charts", written)
    return written


def _write_charts(summaries: dict[str, dict[str, SummaryStats]], chart_dir: Path,
                  written: dict[str, str]) -> None:
    """One box chart per metric with data, from the statistics in summary.csv."""
    from .charts import box_chart_png  # only runs that ask for charts pay for this import

    chart_dir.mkdir(parents=True, exist_ok=True)
    for metric, groups in summaries.items():
        boxes = {group: s for group, s in groups.items() if s.count}
        if not boxes:
            continue
        path = chart_dir / f"{metric}.png"
        path.write_bytes(box_chart_png(f"{metric} (us)", boxes))
        written[f"charts/{metric}.png"] = str(path)
