"""Deterministic discrete-event FaaS platform simulator.

One :class:`SimEnvironment` hosts every simulated platform of a run behind a
single event kernel (virtual time is integer microseconds from the run
epoch) and runs every invocation. A :class:`SimPlatform` is only a
platform's state and holds no reference back to the environment, so a run
builds no reference cycle: reference counting frees the environment, its
sinks and their lines once the last reference to it goes.

Invocations run as generator tasks that yield either a delay or another task
to wait on, and are resumed with None. The kernel steps them in ``(fire_at,
insertion order)`` from three queues (a ready FIFO, an arrival calendar and
a heap; see :class:`Kernel`), so a fixed seed fully determines the emitted
log byte stream.

Platform semantics:

* Executors serve one request at a time. An arrival reuses the most recently
  idle executor of its function if that executor's idle time is within the
  keep-alive window; otherwise a fresh executor is created and the invocation
  pays the cold-start delay before its body runs. Logged invocation
  timestamps span accept-to-completion, so a cold start is contained in the
  logged execution duration.
* Network legs are sampled one-way and independently per direction. Each
  leg's distribution is bound into the deployment plan by
  ``deployment.compile``; the simulator only samples it.
* A publish delivers the event to the target platform's publisher function
  (one delivery leg); the caller resumes at accept. The publisher runs with
  ordinary executor semantics, and the triggered function's arrival is
  scheduled at publisher-accept plus a trigger-delay sample.
* Keyed-store operations cost one sample of the function's bound store leg;
  the store keeps no contents and is never a bottleneck.

Each emitter hands its record's fields to ``RecordSink.emit``, which checks
them and writes the log line in one step.

The ground truth keeps each fact once. An executor is only its key: an idle
pool holds ``(idle since, executor key)`` pairs, and the truth the cold
invocation it was created for. ``_acquire`` returns the key and ``cold``, True
exactly when it creates one; the same flag goes to the log line and to the
truth, and ``GroundTruth.executors`` lists the cold invocations, each one's
``arrival_us`` the executor's birth.
A truth invocation holds its context, pair, timings, cold flag and executor
key; its function and platform are those of its log line.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .deployment import CallRoute, DeploymentConfig, ResolvedFunction, publisher_name
from .records import (
    DB_CALL,
    INVOCATION,
    LOADGEN,
    MODE_ASYNC,
    MODE_SYNC,
    MODE_TRIGGER,
    OUTGOING_CALL,
    HEADER_LINE,
    RecordSink,
    format_drop_line,
)
from .rng import Generator, SeedSequence


class SimulationError(Exception):
    """A run cannot go on (``faasbench run`` exits 4)."""


class Task:
    """A resumable generator process managed by the kernel."""

    __slots__ = ("gen", "done", "waiters")

    def __init__(self, gen):
        self.gen = gen
        self.done = False
        self.waiters: list[Task] = []


class Kernel:
    """Stable-priority event loop over (fire_at, insertion order), in three
    queues: ``_ready``, a FIFO of the tasks scheduled at ``now`` for ``now``
    (a zero delay, a finished task's waiters, a wait on a done task, a spawn
    at ``now``); ``_calendar``, a sorted deque of ``(fire_at, seq, task)``
    that takes each spawn no earlier than its last entry, such as the
    arrivals ``workload.execute`` spawns in time order; and ``_heap`` for
    every other future resume.

    The next task is the least head of the calendar and the heap while it is
    due at ``now``, then the ready FIFO, then the least head again. That is
    one heap's order by one invariant: a task is made ready only for ``now``
    at ``now``, and ``now`` never decreases, so every calendar or heap entry
    due at ``now`` was pushed before every ready task.
    """

    def __init__(self) -> None:
        self.now = 0
        self._ready: deque[Task] = deque()
        self._calendar: deque[tuple[int, int, Task]] = deque()
        self._heap: list[tuple[int, int, Task]] = []
        self._seq = itertools.count()

    def spawn(self, gen, delay_us: int = 0, at_us: int | None = None) -> Task:
        task = Task(gen)
        now = self.now
        fire = now + delay_us if at_us is None else at_us
        if fire == now:
            self._ready.append(task)
        elif fire < now:
            raise SimulationError(f"cannot schedule in the past ({fire} < {now})")
        elif not self._calendar or self._calendar[-1][0] <= fire:
            self._calendar.append((fire, next(self._seq), task))
        else:
            heapq.heappush(self._heap, (fire, next(self._seq), task))
        return task

    def run_until_idle(self) -> None:
        """Step tasks in (fire_at, insertion order) until none is scheduled.

        A task yields an int delay to resume after it, or a Task to resume
        once that task has finished; every resume sends None."""
        ready, calendar, heap = self._ready, self._calendar, self._heap
        seq = self._seq
        push = heapq.heappush
        pop = heapq.heappop
        next_ready = ready.popleft
        next_arrival = calendar.popleft
        now = self.now
        while True:
            if ready and not (heap and heap[0][0] == now) and not (calendar and calendar[0][0] == now):
                task = next_ready()
            elif calendar and (not heap or calendar[0] < heap[0]):
                now, _, task = next_arrival()
                self.now = now
            elif heap:
                now, _, task = pop(heap)
                self.now = now
            else:
                return
            try:
                cmd = next(task.gen)
            except StopIteration:
                task.done = True
                ready.extend(task.waiters)
                task.waiters.clear()
                continue
            if type(cmd) is not int:
                if isinstance(cmd, Task):
                    if cmd.done:
                        ready.append(task)
                    else:
                        cmd.waiters.append(task)
                    continue
                cmd = int(cmd)
            if cmd > 0:
                push(heap, (now + cmd, next(seq), task))
            elif cmd == 0:
                ready.append(task)
            else:
                raise SimulationError(f"negative delay {cmd}")


ID_BLOCK = 1024  # ids drawn per call to the generator


class IdSource:
    """Seeded generator for 128-bit identifiers, rendered as 32 hex chars.

    Ids are drawn ``ID_BLOCK`` at a time: one ``rng.bytes(16 * ID_BLOCK)``
    call, kept as hex and handed out in 32-char slices. ``bytes`` fills whole
    32-bit words from the bit generator's stream, and 16 bytes are exactly
    four words, so a block is the concatenation of the ids that one
    ``rng.bytes(16)`` call per id would give: the id sequence is unchanged,
    at a fraction of the per-call overhead. Drawing ahead moves no other
    stream, since the generator serves ids alone. The run passes a
    ``faasbench.rng.Generator``, whose ``bytes`` ``tests/test_rng.py`` pins
    to numpy 2.4.6's, so the ids, and the log digests, are those a numpy
    ``Generator`` would give.

    Confined to a single run's event loop; replaying the same seed replays
    the same id sequence.
    """

    def __init__(self, rng: Generator):
        self._rng = rng
        self._block = ""
        self._pos = 0

    def new_id(self) -> str:
        if self._pos == len(self._block):
            self._block = self._rng.bytes(16 * ID_BLOCK).hex()
            self._pos = 0
        start = self._pos
        self._pos = start + 32
        return self._block[start:self._pos]

    def new_run_id(self) -> str:
        return "r" + self.new_id()[:12]


class TruthEdge(NamedTuple):
    context_id: str
    parent_pair: str | None
    pair: str
    kind: str  # root | sync | async | trigger | db


class TruthInvocation(NamedTuple):
    context_id: str
    pair: str
    arrival_us: int
    body_start_us: int
    end_us: int
    cold: bool
    executor_key: str


@dataclass
class GroundTruth:
    """Simulator-exported truth used by analyzer fidelity checks."""

    edges: list[TruthEdge] = field(default_factory=list)
    invocations: list[TruthInvocation] = field(default_factory=list)

    @property
    def executors(self) -> list[TruthInvocation]:
        """The cold invocations: one per executor, born at its ``arrival_us``."""
        return [inv for inv in self.invocations if inv.cold]


class SimPlatform:
    """A simulated platform's state: its spec, the functions deployed on it,
    its idle executors per function and its log sink."""

    __slots__ = ("spec", "sink", "functions", "idle")

    def __init__(self, run_id: str, spec):
        self.spec = spec
        self.sink = RecordSink(run_id, spec.id, spec.log_lines_per_second, spec.clock_offset_us)
        self.functions: dict[str, ResolvedFunction] = {}
        self.idle: dict[str, list[tuple[int, str]]] = {}  # function -> [(idle since, executor key)]


_new_fact = tuple.__new__  # builds a TruthEdge or TruthInvocation from its fields, as NamedTuple._make does


def _recorder(facts: list, kind: type):
    """A truth hook that appends the fact of ``kind`` its fields make to ``facts``."""
    append = facts.append

    def record(*fields) -> None:
        append(_new_fact(kind, fields))

    return record


# the hooks of a run that keeps no ground truth: they build nothing
def _no_edge(context_id, parent_pair, pair, kind) -> None:
    pass


def _no_invocation(context_id, pair, arrival_us, body_start_us, end_us, cold, executor_key) -> None:
    pass


class SimEnvironment:
    """All simulated platforms of one run behind a single event kernel. The
    run id is the first id the environment draws, and every sink writes it.
    The five places that record the ground truth pass a fact's fields to a
    hook bound here once. Without ``keep_truth`` the environment keeps no
    truth: ``truth`` is None, and the hooks are no-ops."""

    def __init__(self, config: DeploymentConfig, seed: int, keep_truth: bool = True):
        ids_ss, sample_ss, loadgen_ss = SeedSequence(seed).spawn(3)
        self.ids = IdSource(Generator(ids_ss))
        self.run_id = self.ids.new_run_id()
        self.sample_rng = Generator(sample_ss)
        self.loadgen_rng = Generator(loadgen_ss)
        self.kernel = Kernel()
        self.truth = GroundTruth() if keep_truth else None
        self._truth_edge = _recorder(self.truth.edges, TruthEdge) if keep_truth else _no_edge
        self._truth_invocation = _recorder(self.truth.invocations, TruthInvocation) if keep_truth else _no_invocation
        self.platforms = {p.id: SimPlatform(self.run_id, p) for p in config.platforms}
        self.loadgen_sink = RecordSink(self.run_id, LOADGEN)

    def sync_call(self, sink, function, context_id, parent_pair, target, route: CallRoute):
        """One synchronous request from ``function`` (on a platform or the
        load generator) to ``target`` along ``route``: draws the pair id, the
        outbound leg, then the return leg, and records the caller's
        OUTGOING_CALL in the caller's ``sink`` and a truth edge, ``root`` when
        there is no ``parent_pair`` (the load generator's) and else ``sync``."""
        dst, out, back = route
        t0 = self.kernel.now
        pair = self.ids.new_id()
        yield out.sample(self.sample_rng)
        yield self.start_invocation(self.platforms[dst], target, context_id, pair)
        yield back.sample(self.sample_rng)
        end = self.kernel.now
        sink.emit(end, OUTGOING_CALL, function, context_id, pair, t0, end, callee=target, mode=MODE_SYNC)
        self._truth_edge(context_id, parent_pair, pair, "root" if parent_pair is None else "sync")

    # -- invocation machinery ----------------------------------------------

    def start_invocation(self, platform: SimPlatform, fn_name: str, context_id: str, inbound_pair: str) -> Task:
        """Begin serving an arrival on ``platform`` at the current virtual time."""
        rfn = platform.functions.get(fn_name)
        if rfn is None:
            raise SimulationError(f"function {fn_name!r} is not deployed on this platform")
        arrival = self.kernel.now
        key, cold = self._acquire(platform, fn_name, arrival)
        return self.kernel.spawn(self._invocation_gen(platform, rfn, context_id, inbound_pair, arrival, key, cold))

    def _acquire(self, platform: SimPlatform, fn_name: str, arrival: int) -> tuple[str, bool]:
        """The key of an executor for the arrival, and True when the executor
        is created for it: a cold start."""
        # _invocation_gen returns an executor to its pool at kernel.now, which
        # never decreases, so each pool is sorted by idle time: the top is the
        # most recently idle executor, and if it has expired so has every
        # executor below it
        pool = platform.idle.get(fn_name)
        if pool:
            if pool[-1][0] + platform.spec.keep_alive_us >= arrival:
                return pool.pop()[1], False
            pool.clear()
        return self.ids.new_id(), True

    def _invocation_gen(self, platform, rfn, context_id, inbound_pair, arrival, executor_key, cold):
        if cold:
            delay = platform.spec.cold_start_delay.sample(self.sample_rng)
            if delay:
                yield delay
        body_start = self.kernel.now
        yield from self._run_body(platform, rfn, context_id, inbound_pair, rfn.spec.body)
        end = self.kernel.now
        platform.idle.setdefault(rfn.name, []).append((end, executor_key))
        platform.sink.emit(end, INVOCATION, rfn.name, context_id, inbound_pair, arrival, end,
                           executor_key=executor_key, cold_start=cold)
        self._truth_invocation(context_id, inbound_pair, arrival, body_start, end, cold, executor_key)

    def _run_body(self, platform, rfn, context_id, inbound_pair, steps):
        for step in steps:
            if step.kind == "compute":
                d = step.compute_time.sample(self.sample_rng)
                if d:
                    yield d
            elif step.kind == "call":
                yield from self.sync_call(platform.sink, rfn.name, context_id, inbound_pair,
                                          step.target, rfn.call_routes[step.target])
            elif step.kind == "publish":
                # caller idles until the event is accepted downstream
                yield self._publish(platform, rfn, context_id, inbound_pair, step)
            elif step.kind in ("dbGet", "dbSet"):
                yield from self._db_op(platform, rfn, context_id, inbound_pair, step)
            elif step.kind == "parallelBlock":
                branches = [self.kernel.spawn(self._run_body(platform, rfn, context_id, inbound_pair, branch))
                            for branch in step.branches]
                for branch in branches:
                    yield branch

    def _publish(self, platform, rfn, context_id, inbound_pair, step) -> int:
        """Send one event toward its publisher; returns the delivery leg."""
        t0 = self.kernel.now
        pair1 = self.ids.new_id()
        dst, leg = rfn.publish_routes[step.target]
        out = leg.sample(self.sample_rng)
        delivery = self._async_delivery(platform, rfn.name, context_id, inbound_pair, t0, pair1, step.target, dst)
        self.kernel.spawn(delivery, delay_us=out)
        return out

    def _async_delivery(self, platform, function, context_id, inbound_pair, t0, pair1, target, dst: str):
        yield self._start_publisher(self.platforms[dst], context_id, pair1, target)
        end = self.kernel.now
        platform.sink.emit(end, OUTGOING_CALL, function, context_id, pair1, t0, end,
                           callee=target, mode=MODE_ASYNC)
        self._truth_edge(context_id, inbound_pair, pair1, "async")

    def _start_publisher(self, platform: SimPlatform, context_id: str, pair1: str, target: str) -> Task:
        """Accept an event for ``target``, which runs on ``platform`` too:
        schedule the trigger and run the publisher."""
        accept = self.kernel.now
        pub = publisher_name(platform.spec.id)
        pair2 = self.ids.new_id()
        trig = platform.spec.trigger_delay.sample(self.sample_rng)
        platform.sink.emit(accept, OUTGOING_CALL, pub, context_id, pair2, accept, accept,
                           callee=target, mode=MODE_TRIGGER)
        self._truth_edge(context_id, pair1, pair2, "trigger")
        self.kernel.spawn(self._trigger_fire(platform, target, context_id, pair2), delay_us=trig)
        return self.start_invocation(platform, pub, context_id, pair1)

    def _trigger_fire(self, platform: SimPlatform, target: str, context_id: str, pair2: str):
        yield self.start_invocation(platform, target, context_id, pair2)

    def _db_op(self, platform, rfn, context_id, inbound_pair, step):
        service, leg = rfn.store
        t0 = self.kernel.now
        pair = self.ids.new_id()
        yield leg.sample(self.sample_rng)
        end = self.kernel.now
        op = "set" if step.kind == "dbSet" else "get"
        platform.sink.emit(end, DB_CALL, rfn.name, context_id, pair, t0, end, callee=service, db_op=op)
        self._truth_edge(context_id, inbound_pair, pair, "db")

    def run_until_idle(self) -> None:
        self.kernel.run_until_idle()

    def collect_log(self, run_id: str) -> list[str]:
        """The log lines of run ``run_id``: header, then per sink (loadgen, then
        the platforms sorted) its lines and its ``#dropped`` line; another run id
        gets only the ``#dropped`` lines. The log file is these lines, each ended
        by a newline."""
        out = [HEADER_LINE]
        for sink in [self.loadgen_sink] + [self.platforms[pid].sink for pid in sorted(self.platforms)]:
            if run_id == self.run_id:
                out.extend(sink.lines)
            out.append(format_drop_line(sink.platform_id, sink.drops))
        return out
