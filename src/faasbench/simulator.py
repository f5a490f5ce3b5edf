"""Deterministic discrete-event FaaS platform simulator.

One :class:`SimEnvironment` hosts every simulated platform of a run behind a
single event kernel (virtual time is integer microseconds from the run
epoch). Invocations run as generator tasks that yield either a delay or
another task to wait on; the kernel's heap is a stable priority queue, so a
fixed seed fully determines the emitted log byte stream.

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
them and writes the log line in one step. ``SimEnvironment.run_until_idle``
pauses Python's cyclic garbage collector (``collector.collector_paused``):
the simulation builds no reference cycles, yet the tasks, generator frames,
log lines and truth rows it allocates keep setting off collections that scan
every surviving object, the growing log and executor pools included, to free
nothing.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .collector import collector_paused
from .deployment import CallRoute, DeploymentConfig, ResolvedFunction, publisher_name
from .distributions import Duration
from .records import (
    DB_CALL,
    INVOCATION,
    LOADGEN,
    MODE_ASYNC,
    MODE_SYNC,
    MODE_TRIGGER,
    OUTGOING_CALL,
    HEADER_LINE,
    IdSource,
    RecordSink,
)


class SimulationError(Exception):
    pass


class Task:
    """A resumable generator process managed by the kernel."""

    __slots__ = ("gen", "done", "result", "waiters")

    def __init__(self, gen):
        self.gen = gen
        self.done = False
        self.result = None
        self.waiters: list[Task] = []


class Kernel:
    """Stable-priority event loop over (fire_at, insertion order)."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Task, object]] = []
        self._seq = itertools.count()

    def spawn(self, gen, delay_us: int = 0, at_us: int | None = None) -> Task:
        task = Task(gen)
        fire = self.now + delay_us if at_us is None else at_us
        if fire < self.now:
            raise SimulationError(f"cannot schedule in the past ({fire} < {self.now})")
        heapq.heappush(self._heap, (fire, next(self._seq), task, None))
        return task

    def run_until_idle(self) -> None:
        """Step tasks in (fire_at, insertion order) until none is scheduled.

        A task yields an int delay to resume after it, or a Task to resume
        with its result once it has finished."""
        heap = self._heap
        seq = self._seq
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            now, _, task, value = pop(heap)
            self.now = now
            try:
                cmd = task.gen.send(value)
            except StopIteration as stop:
                task.done = True
                result = task.result = stop.value
                for waiter in task.waiters:
                    push(heap, (now, next(seq), waiter, result))
                task.waiters.clear()
                continue
            if type(cmd) is not int:
                if isinstance(cmd, Task):
                    if cmd.done:
                        push(heap, (now, next(seq), task, cmd.result))
                    else:
                        cmd.waiters.append(task)
                    continue
                cmd = int(cmd)
            if cmd < 0:
                raise SimulationError(f"negative delay {cmd}")
            push(heap, (now + cmd, next(seq), task, None))


class Executor:
    """One runtime instance; serves its function's invocations sequentially."""

    __slots__ = ("key", "function", "last_idle_at")

    def __init__(self, key: str, function: str, created_at: int):
        self.key = key
        self.function = function
        self.last_idle_at = created_at


class ExecutorBirth(NamedTuple):
    platform_id: str
    function: str
    key: str
    at_us: int


class TruthEdge(NamedTuple):
    context_id: str
    parent_pair: str | None
    pair: str
    kind: str  # root | sync | async | trigger | db


class TruthInvocation(NamedTuple):
    context_id: str
    pair: str
    function: str
    platform_id: str
    arrival_us: int
    body_start_us: int
    end_us: int
    cold: bool
    executor_key: str


@dataclass
class GroundTruth:
    """Simulator-exported truth used by analyzer fidelity checks."""

    executors: list[ExecutorBirth] = field(default_factory=list)
    edges: list[TruthEdge] = field(default_factory=list)
    invocations: list[TruthInvocation] = field(default_factory=list)

    def edge_set(self) -> set[tuple[str, str | None, str, str]]:
        return set(self.edges)


class SimPlatform:
    """A simulated platform: the functions deployed on it, its idle executors
    and its log sink."""

    def __init__(self, env: "SimEnvironment", spec):
        self.env = env
        self.spec = spec
        self.id = spec.id
        self.sink = RecordSink(env.run_id, spec.id, spec.log_lines_per_second, spec.clock_offset_us)
        self._functions: dict[str, ResolvedFunction] = {}
        self._idle: dict[str, list[Executor]] = {}

    def deploy(self, functions: tuple[ResolvedFunction, ...]) -> None:
        for rfn in functions:
            self._functions[rfn.name] = rfn

    def remove(self) -> None:
        self._functions.clear()
        self._idle.clear()

    @property
    def deployed_functions(self) -> tuple[str, ...]:
        return tuple(self._functions)

    def invoke(
        self,
        fn_name: str,
        arrival_us: int,
        context_id: str | None = None,
        pair_id: str | None = None,
    ) -> Task:
        """Schedule an arrival of ``fn_name`` outside any workflow, the entry
        point tests drive the simulator through; the task result is the
        invocation's end time."""
        if fn_name not in self._functions:
            raise SimulationError(f"function {fn_name!r} is not deployed on this platform")
        ctx = context_id if context_id is not None else self.env.ids.new_context()
        pair = pair_id if pair_id is not None else self.env.ids.new_pair()

        def gen():
            result = yield self.start_invocation(fn_name, ctx, pair)
            return result

        return self.env.kernel.spawn(gen(), at_us=arrival_us)

    # -- invocation machinery ----------------------------------------------

    def start_invocation(self, fn_name: str, context_id: str, inbound_pair: str) -> Task:
        """Begin serving an arrival at the current virtual time."""
        rfn = self._functions.get(fn_name)
        if rfn is None:
            raise SimulationError(f"function {fn_name!r} is not deployed on this platform")
        arrival = self.env.kernel.now
        executor, cold = self._acquire(fn_name, arrival)
        gen = self._invocation_gen(rfn, context_id, inbound_pair, arrival, executor, cold)
        return self.env.kernel.spawn(gen)

    def _acquire(self, fn_name: str, arrival: int) -> tuple[Executor, bool]:
        # _release appends at kernel.now, which never decreases, so each pool
        # is sorted by last_idle_at: the top is the most recently idle
        # executor, and if it has expired so has every executor below it
        pool = self._idle.get(fn_name)
        if pool:
            if pool[-1].last_idle_at + self.spec.keep_alive_us >= arrival:
                return pool.pop(), False
            pool.clear()
        key = self.env.ids.new_executor_key()
        executor = Executor(key, fn_name, arrival)
        self.env.truth.executors.append(ExecutorBirth(self.id, fn_name, key, arrival))
        return executor, True

    def _release(self, executor: Executor, at_us: int) -> None:
        executor.last_idle_at = at_us
        self._idle.setdefault(executor.function, []).append(executor)

    def _invocation_gen(self, rfn, context_id, inbound_pair, arrival, executor, cold):
        env = self.env
        if cold:
            delay = env.sample_us(self.spec.cold_start_delay)
            if delay:
                yield delay
        body_start = env.kernel.now
        yield from self._run_body(rfn, context_id, inbound_pair, rfn.spec.body)
        end = env.kernel.now
        self._release(executor, end)
        self.sink.emit(end, INVOCATION, rfn.name, context_id, inbound_pair, arrival, end,
                       executor_key=executor.key, cold_start=cold)
        env.truth.invocations.append(
            TruthInvocation(context_id, inbound_pair, rfn.name, self.id, arrival, body_start, end, cold, executor.key)
        )
        return end

    def _run_body(self, rfn, context_id, inbound_pair, steps):
        env = self.env
        for step in steps:
            if step.kind == "compute":
                d = env.sample_us(step.compute_time)
                if d:
                    yield d
            elif step.kind == "call":
                yield from env.sync_call(self.sink, rfn.name, context_id, inbound_pair,
                                         step.target, rfn.call_routes[step.target], "sync")
            elif step.kind == "publish":
                # caller idles until the event is accepted downstream
                yield self._publish(rfn, context_id, inbound_pair, step)
            elif step.kind in ("dbGet", "dbSet"):
                yield from self._db_op(rfn, context_id, inbound_pair, step)
            elif step.kind == "parallelBlock":
                branches = [env.kernel.spawn(self._run_body(rfn, context_id, inbound_pair, branch))
                            for branch in step.branches]
                for branch in branches:
                    yield branch

    def _publish(self, rfn, context_id, inbound_pair, step) -> int:
        """Send one event toward its publisher; returns the delivery leg."""
        env = self.env
        t0 = env.kernel.now
        pair1 = env.ids.new_pair()
        dst, leg = rfn.publish_routes[step.target]
        out = env.sample_us(leg)
        delivery = self._async_delivery(rfn.name, context_id, inbound_pair, t0, pair1, step.target, env.platforms[dst])
        env.kernel.spawn(delivery, delay_us=out)
        return out

    def _async_delivery(self, function, context_id, inbound_pair, t0, pair1, target, dest: "SimPlatform"):
        env = self.env
        yield dest._start_publisher(context_id, pair1, target)
        end = env.kernel.now
        self.sink.emit(end, OUTGOING_CALL, function, context_id, pair1, t0, end,
                       callee=target, mode=MODE_ASYNC)
        env.truth.edges.append(TruthEdge(context_id, inbound_pair, pair1, "async"))

    def _start_publisher(self, context_id: str, pair1: str, target: str) -> Task:
        """Accept an event for ``target``, which runs on this platform too:
        schedule the trigger and run the publisher."""
        env = self.env
        accept = env.kernel.now
        pub = publisher_name(self.id)
        pair2 = env.ids.new_pair()
        trig = env.sample_us(self.spec.trigger_delay)
        self.sink.emit(accept, OUTGOING_CALL, pub, context_id, pair2, accept, accept,
                       callee=target, mode=MODE_TRIGGER)
        env.truth.edges.append(TruthEdge(context_id, pair1, pair2, "trigger"))
        env.kernel.spawn(self._trigger_fire(target, context_id, pair2), delay_us=trig)
        return self.start_invocation(pub, context_id, pair1)

    def _trigger_fire(self, target: str, context_id: str, pair2: str):
        yield self.start_invocation(target, context_id, pair2)

    def _db_op(self, rfn, context_id, inbound_pair, step):
        env = self.env
        service, leg = rfn.store
        t0 = env.kernel.now
        pair = env.ids.new_pair()
        yield env.sample_us(leg)
        end = env.kernel.now
        op = "set" if step.kind == "dbSet" else "get"
        self.sink.emit(end, DB_CALL, rfn.name, context_id, pair, t0, end, callee=service, db_op=op)
        env.truth.edges.append(TruthEdge(context_id, inbound_pair, pair, "db"))


class SimEnvironment:
    """All simulated platforms of one run behind a single event kernel. The
    run id is the first id the environment draws, and every sink writes it."""

    def __init__(self, config: DeploymentConfig, seed: int):
        ss = np.random.SeedSequence(seed)
        ids_ss, sample_ss, loadgen_ss = ss.spawn(3)
        self.ids = IdSource(np.random.default_rng(ids_ss))
        self.run_id = self.ids.new_run_id()
        self.sample_rng = np.random.default_rng(sample_ss)
        self.loadgen_rng = np.random.default_rng(loadgen_ss)
        self.kernel = Kernel()
        self.truth = GroundTruth()
        self.platforms = {p.id: SimPlatform(self, p) for p in config.platforms}
        self.loadgen_sink = RecordSink(self.run_id, LOADGEN)

    def sample_us(self, dist: Duration) -> int:
        return dist.sample(self.sample_rng)

    def sync_call(self, sink, function, context_id, parent_pair, target, route: CallRoute, kind):
        """One synchronous request from ``function`` (on a platform or the
        load generator) to ``target`` along ``route``: draws the pair id, the
        outbound leg, then the return leg, and records the caller's
        OUTGOING_CALL in the caller's ``sink`` and a truth edge of ``kind``."""
        dst, out, back = route
        t0 = self.kernel.now
        pair = self.ids.new_pair()
        yield self.sample_us(out)
        yield self.platforms[dst].start_invocation(target, context_id, pair)
        yield self.sample_us(back)
        end = self.kernel.now
        sink.emit(end, OUTGOING_CALL, function, context_id, pair, t0, end, callee=target, mode=MODE_SYNC)
        self.truth.edges.append(TruthEdge(context_id, parent_pair, pair, kind))

    def run_until_idle(self) -> None:
        with collector_paused():
            self.kernel.run_until_idle()

    def collect_log(self, run_id: str) -> list[str]:
        """The log lines of run ``run_id``: header, loadgen section, platforms
        sorted; another run id gets only the ``#dropped`` lines.

        The list holds the sinks' own line strings, not copies; the log file
        is these lines, each ended by a newline.
        """
        out = [HEADER_LINE]
        out.extend(self.loadgen_sink.collect(run_id))
        for pid in sorted(self.platforms):
            out.extend(self.platforms[pid].sink.collect(run_id))
        return out
