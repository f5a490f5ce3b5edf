import functools
import gc
import heapq
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faasbench import runner
from faasbench.applications import (
    ApplicationSpec,
    EVENT_ASYNC,
    FunctionSpec,
    HTTP_SYNC,
    call,
    compute,
    db_get,
    db_set,
    publish,
)
from faasbench.deployment import DeploymentConfig, deploy_all, teardown
from faasbench.distributions import constant, parse_duration
from faasbench.records import HEADER_LINE, INVOCATION, MODE_TRIGGER, OUTGOING_CALL
from faasbench.analysis import parse_logs
from faasbench.benchmarks import load_builtin
from faasbench.recipes import RECIPE_NAMES, recipe
from faasbench.simulator import Kernel, SimEnvironment, SimulationError, Task
from faasbench.workload import Arrival, Workflow, WorkflowStep, execute, schedule

from conftest import deployed_env, invoke, make_platform, set_collector, single_platform_config

MS = 1000  # microseconds


def records_of(env):
    recs, _ = parse_logs(env.collect_log(env.run_id))
    return recs


def simple_app(cold_ms=400, body_ms=2):
    fn = FunctionSpec("fn", HTTP_SYNC, (compute(constant(body_ms)),), entry_point=True)
    return ApplicationSpec("one", (fn,))


def test_cold_start_then_warm_then_expiry():
    app = simple_app()
    platform = make_platform(cold_start_delay=constant(400), keep_alive_us=10_000_000)
    env, plan = deployed_env(app, single_platform_config(app, platform))

    invoke(env, "p1", "fn", arrival_us=1_000_000)
    env.run_until_idle()
    inv1 = env.truth.invocations[0]
    end1 = inv1.end_us
    assert end1 == 1_000_000 + 400 * MS + 2 * MS  # cold delay inside the invocation
    assert inv1.cold and inv1.arrival_us == 1_000_000 and inv1.body_start_us == 1_000_000 + 400 * MS

    # immediate second invocation reuses the warm executor
    invoke(env, "p1", "fn", arrival_us=end1 + 1)
    env.run_until_idle()
    inv2 = env.truth.invocations[1]
    assert not inv2.cold and inv2.body_start_us == inv2.arrival_us
    assert inv2.executor_key == inv1.executor_key

    # gap of exactly keepAlive still hits warm; one microsecond more is cold
    end2 = inv2.end_us
    invoke(env, "p1", "fn", arrival_us=end2 + 10_000_000)
    env.run_until_idle()
    assert not env.truth.invocations[2].cold
    end3 = env.truth.invocations[2].end_us
    invoke(env, "p1", "fn", arrival_us=end3 + 10_000_000 + 1)
    env.run_until_idle()
    assert env.truth.invocations[3].cold


def test_invocation_record_spans_accept_to_completion():
    app = simple_app()
    platform = make_platform(cold_start_delay=constant(400))
    env, plan = deployed_env(app, single_platform_config(app, platform))
    invoke(env, "p1", "fn", arrival_us=0)
    env.run_until_idle()
    recs = [r for r in records_of(env) if r.kind == INVOCATION]
    assert recs[0].start_us == 0 and recs[0].end_us == 402 * MS
    assert recs[0].cold_start is True


def test_same_platform_round_trip_zero_legs():
    a = FunctionSpec("a", HTTP_SYNC, (call("b"),), entry_point=True)
    b = FunctionSpec("b", HTTP_SYNC, (compute(constant(2)),))
    app = ApplicationSpec("pair", (a, b))
    platform = make_platform(cold_start_delay=constant(0))
    env, plan = deployed_env(app, single_platform_config(app, platform))
    invoke(env, "p1", "a", arrival_us=0)
    env.run_until_idle()
    out = [r for r in records_of(env) if r.kind == OUTGOING_CALL and r.function == "a"]
    assert out[0].end_us - out[0].start_us == 2 * MS  # zero-latency legs, callee compute only


def test_cross_platform_round_trip_arithmetic():
    a = FunctionSpec("a", HTTP_SYNC, (call("b"),), entry_point=True)
    b = FunctionSpec("b", HTTP_SYNC, (compute(constant(2)),))
    app = ApplicationSpec("pair", (a, b))
    p1 = make_platform("p1", peers={"p2": 15}, cold_start_delay=constant(0))
    p2 = make_platform("p2", peers={"p1": 15}, cold_start_delay=constant(0))
    cfg = DeploymentConfig(platforms=(p1, p2), assignment={"a": "p1", "b": "p2"})
    env, plan = deployed_env(app, cfg)
    invoke(env, "p1", "a", arrival_us=0)
    env.run_until_idle()
    out = [r for r in records_of(env) if r.kind == OUTGOING_CALL and r.function == "a"]
    assert out[0].end_us - out[0].start_us == (15 + 2 + 15) * MS


def test_publish_trigger_timing_degenerate():
    entry = FunctionSpec("entry", HTTP_SYNC, (publish("sink"),), entry_point=True)
    sink = FunctionSpec("sink", EVENT_ASYNC, (compute(constant(1)),))
    app = ApplicationSpec("events", (entry, sink))
    # self latency of 25 ms models the publish delivery leg
    platform = make_platform(cold_start_delay=constant(0), trigger_delay=constant(100), peers={"p1": 25})
    env, plan = deployed_env(app, single_platform_config(app, platform))
    invoke(env, "p1", "entry", arrival_us=0)
    env.run_until_idle()
    recs = records_of(env)
    pub_inv = next(r for r in recs if r.kind == INVOCATION and r.function.startswith("__publisher_"))
    sink_inv = next(r for r in recs if r.kind == INVOCATION and r.function == "sink")
    assert sink_inv.start_us - pub_inv.start_us == 100 * MS
    # async accept: the caller's publish leg is 25 ms
    assert pub_inv.start_us == 25 * MS
    trigger_out = next(r for r in recs if r.kind == OUTGOING_CALL and r.mode == MODE_TRIGGER)
    assert trigger_out.pair_id == sink_inv.pair_id
    # pair chain: caller->publisher carries P1, publisher->function carries P2
    caller_out = next(r for r in recs if r.kind == OUTGOING_CALL and r.mode == "async")
    assert caller_out.pair_id == pub_inv.pair_id
    assert caller_out.pair_id != trigger_out.pair_id


def test_invoke_not_deployed():
    app = simple_app()
    env, plan = deployed_env(app, single_platform_config(app, make_platform()))
    invoke(env, "p1", "ghost", arrival_us=0)
    with pytest.raises(SimulationError, match="^function 'ghost' is not deployed on this platform$"):
        env.run_until_idle()


def test_start_invocation_not_deployed():
    app = simple_app()
    env, plan = deployed_env(app, single_platform_config(app, make_platform()))
    with pytest.raises(SimulationError, match="^function 'ghost' is not deployed on this platform$"):
        env.start_invocation(env.platforms["p1"], "ghost", "c" * 32, "d" * 32)


def test_trigger_delay_sampling_median():
    entry = FunctionSpec("entry", HTTP_SYNC, (publish("sink"),), entry_point=True)
    sink = FunctionSpec("sink", EVENT_ASYNC, (compute(constant(1)),))
    app = ApplicationSpec("events", (entry, sink))
    platform = make_platform(cold_start_delay=constant(0), trigger_delay=parse_duration("lognormal(100,0.3)"))
    env, plan = deployed_env(app, single_platform_config(app, platform), seed=3)
    for i in range(1000):
        invoke(env, "p1", "entry", arrival_us=i * 500_000)
    env.run_until_idle()
    recs = records_of(env)
    pubs = {r.context_id: r for r in recs if r.kind == INVOCATION and r.function.startswith("__publisher_")}
    delays = sorted(
        r.start_us - pubs[r.context_id].start_us
        for r in recs
        if r.kind == INVOCATION and r.function == "sink"
    )
    median = delays[len(delays) // 2]
    assert abs(median - 100 * MS) / (100 * MS) < 0.10


def test_db_ops_latency_and_store_semantics():
    fn = FunctionSpec(
        "fn", HTTP_SYNC, (db_get("missing"), db_set("k"), db_get("k")), entry_point=True
    )
    app = ApplicationSpec("dbapp", (fn,), external_services=("keystore",))
    platform = make_platform(cold_start_delay=constant(0), peers={"keystore": 3})
    env, plan = deployed_env(app, single_platform_config(app, platform))
    invoke(env, "p1", "fn", arrival_us=0)
    env.run_until_idle()
    db_records = [r for r in records_of(env) if r.kind == "DB_CALL"]
    assert [r.end_us - r.start_us for r in db_records] == [3 * MS, 3 * MS, 3 * MS]
    assert [r.db_op for r in db_records] == ["get", "set", "get"]


def test_db_sampling_median_recovery():
    fn = FunctionSpec("fn", HTTP_SYNC, (db_get("k"),), entry_point=True)
    app = ApplicationSpec("dbapp", (fn,), external_services=("keystore",))
    platform = make_platform(cold_start_delay=constant(0), peers={"keystore": "lognormal(3,0.3)"})
    env, plan = deployed_env(app, single_platform_config(app, platform), seed=8)
    for i in range(1000):
        invoke(env, "p1", "fn", arrival_us=i * 100_000)
    env.run_until_idle()
    durations = sorted(r.end_us - r.start_us for r in records_of(env) if r.kind == "DB_CALL")
    median = durations[len(durations) // 2]
    assert abs(median - 3 * MS) / (3 * MS) < 0.10


def test_executor_intervals_never_overlap():
    # concurrent arrivals on one function scale out to fresh executors
    app = simple_app()
    platform = make_platform(cold_start_delay=constant(50), keep_alive_us=1_000_000)
    env, plan = deployed_env(app, single_platform_config(app, platform), seed=5)
    for i in range(200):
        invoke(env, "p1", "fn", arrival_us=(i * 17) * MS // 10)  # 1.7ms spacing
    env.run_until_idle()
    by_key: dict[str, list] = {}
    for inv in env.truth.invocations:
        by_key.setdefault(inv.executor_key, []).append((inv.arrival_us, inv.end_us))
    assert len(env.truth.invocations) == 200
    for intervals in by_key.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2, "executor served two invocations at once"


def test_cold_flag_equals_first_appearance():
    app = simple_app()
    platform = make_platform(cold_start_delay=constant(50), keep_alive_us=500_000)
    env, plan = deployed_env(app, single_platform_config(app, platform), seed=6)
    for i in range(100):
        invoke(env, "p1", "fn", arrival_us=i * 300_000)
    env.run_until_idle()
    from faasbench.analysis import coldstart_crosscheck

    assert coldstart_crosscheck(records_of(env)) == 0
    cold_records = sum(1 for r in records_of(env) if r.kind == INVOCATION and r.cold_start)
    assert cold_records == len(env.truth.executors)


def test_each_executor_is_born_once_at_its_first_arrival():
    # bursts 2 s apart, each of 5 concurrent arrivals and 5 more that reuse
    # their executors: every burst outlives the 0.5 s keep-alive, so each one
    # scales out again after expiry
    app = simple_app()
    platform = make_platform(cold_start_delay=constant(50), keep_alive_us=500_000)
    env, plan = deployed_env(app, single_platform_config(app, platform), seed=8)
    for i in range(100):
        invoke(env, "p1", "fn", arrival_us=(i // 10) * 2_000_000 + (i % 10 // 5) * 100 * MS + i % 5 * MS)
    env.run_until_idle()
    invocations = env.truth.invocations
    births = [(e.executor_key, e.arrival_us) for e in env.truth.executors]
    first: dict[str, int] = {}
    for inv in invocations:
        first[inv.executor_key] = min(inv.arrival_us, first.get(inv.executor_key, inv.arrival_us))
    assert sorted(births) == sorted(first.items())
    assert len({key for key, _ in births}) == len(births) == 50


def test_run_determinism_bytes():
    def one_run():
        app = simple_app()
        platform = make_platform(cold_start_delay=constant(10), trigger_delay=parse_duration("lognormal(100,0.5)"))
        env, plan = deployed_env(app, single_platform_config(app, platform), seed=9)
        for i in range(50):
            invoke(env, "p1", "fn", arrival_us=i * 1234)
        env.run_until_idle()
        return env.collect_log(env.run_id)

    assert one_run() == one_run()


def test_adapter_remove_clears_platform_state():
    app = simple_app()
    env, plan = deployed_env(app, single_platform_config(app, make_platform()))
    invoke(env, "p1", "fn", arrival_us=0)
    env.run_until_idle()
    teardown(env.platforms)
    invoke(env, "p1", "fn", arrival_us=env.kernel.now)
    with pytest.raises(SimulationError, match="^function 'fn' is not deployed on this platform$"):
        env.run_until_idle()
    deploy_all(plan, env.platforms)  # redeploy works cleanly
    # the idle executor went with the teardown, so an arrival within keep-alive starts cold
    invoke(env, "p1", "fn", arrival_us=env.kernel.now + 1)
    env.run_until_idle()
    assert [inv.cold for inv in env.truth.invocations] == [True, True]


def test_collect_logs_filters_by_run():
    app = simple_app()
    env, plan = deployed_env(app, single_platform_config(app, make_platform()))
    invoke(env, "p1", "fn", arrival_us=0)
    env.run_until_idle()
    first = env.collect_log(env.run_id)
    assert first[:2] == [HEADER_LINE, "#dropped loadgen 0"] and first[-1] == "#dropped p1 0"
    assert len(first) == 4 and first[2].startswith(f"{env.run_id}\tp1\t")
    assert env.collect_log("r-other") == [HEADER_LINE, "#dropped loadgen 0", "#dropped p1 0"]


def test_kernel_tie_break_is_stable_insertion_order():
    kernel = Kernel()
    order = []

    def job(tag):
        order.append(tag)
        return tag
        yield  # pragma: no cover - makes this a generator

    for tag in ("a", "b", "c"):
        kernel.spawn(job(tag), at_us=100)
    kernel.run_until_idle()
    assert order == ["a", "b", "c"]


def test_kernel_orders_one_microsecond_across_its_queues():
    # at t=10: the two arrivals handed over, in their order, then a resume
    # that t=5 pushed onto the heap, then the zero-delay resumes made at t=10
    # in the order they were made, and last the waiter of a task that
    # finished at t=10
    kernel = Kernel()
    order = []

    def step(tag):
        order.append((tag, kernel.now))

    def arrival():
        step("a")
        yield 0
        step("a+0")
        yield 0
        step("a+0+0")

    def late_arrival():
        step("c")
        yield from ()

    def early():
        step("b")
        yield 5
        step("b+5")
        yield 0
        step("b+5+0")

    def waiter():
        step("d")
        yield b
        step("d after b")

    arrivals = [(10, arrival), (10, late_arrival)]
    kernel.arrive(arrivals)
    b = kernel.spawn(early(), at_us=5)
    kernel.spawn(waiter(), at_us=1)
    assert kernel._arrivals is arrivals and len(kernel._heap) == 2
    kernel.run_until_idle(lambda item: item[1]())
    assert order == [("d", 1), ("b", 5), ("a", 10), ("c", 10), ("b+5", 10), ("a+0", 10), ("b+5+0", 10),
                     ("a+0+0", 10), ("d after b", 10)]


def test_kernel_steps_in_insertion_order_after_a_run_raised():
    # y raises while x's zero-delay resume waits in the ready FIFO; the next
    # run steps z, spawned at t=3 before it, then x, then w, spawned at t=3
    # between the runs
    kernel = Kernel()
    order = []

    def x():
        order.append("x")
        yield 0
        order.append("x+0")

    def y():
        order.append("y")
        raise SimulationError("y fails")
        yield  # pragma: no cover - makes this a generator

    def tagged(tag):
        order.append(tag)
        yield 1
        order.append(tag + "+1")

    for gen in (x(), y(), tagged("z")):
        kernel.spawn(gen, at_us=3)
    with pytest.raises(SimulationError, match="y fails"):
        kernel.run_until_idle()
    assert order == ["x", "y"] and kernel.now == 3
    kernel.spawn(tagged("w"), at_us=kernel.now)
    kernel.run_until_idle()
    assert order == ["x", "y", "z", "x+0", "w", "z+1", "w+1"] and kernel.now == 4


def test_kernel_keeps_the_arrivals_a_run_that_raised_did_not_start():
    # b, due at t=2, raises; the next run starts c, due in the same
    # microsecond, then a's resume pushed at t=1, then d: no arrival is lost
    # or started twice
    kernel = Kernel()
    order = []

    def start(arrival):
        tag = arrival[1]
        order.append((tag, kernel.now))
        if tag == "b":
            raise SimulationError("b fails")
        yield 1
        order.append((tag + "+1", kernel.now))

    kernel.arrive([(1, "a"), (2, "b"), (2, "c"), (3, "d")])
    with pytest.raises(SimulationError, match="b fails"):
        kernel.run_until_idle(start)
    assert order == [("a", 1), ("b", 2)] and kernel.now == 2
    kernel.run_until_idle(start)
    assert order == [("a", 1), ("b", 2), ("c", 2), ("a+1", 2), ("d", 3), ("c+1", 3), ("d+1", 4)]
    kernel.run_until_idle(start)  # nothing is left to start
    assert len(order) == 7 and kernel.now == 4


class SingleHeapKernel:
    """The kernel before its three queues, verbatim: one heap of
    ``(fire_at, insertion order, task)``. Its order is the reference."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Task]] = []
        self._seq = itertools.count()

    def spawn(self, gen, delay_us: int = 0, at_us: int | None = None) -> Task:
        task = Task(gen)
        fire = self.now + delay_us if at_us is None else at_us
        if fire < self.now:
            raise SimulationError(f"cannot schedule in the past ({fire} < {self.now})")
        heapq.heappush(self._heap, (fire, next(self._seq), task))
        return task

    def run_until_idle(self) -> None:
        """Step tasks in (fire_at, insertion order) until none is scheduled.

        A task yields an int delay to resume after it, or a Task to resume
        once that task has finished; every resume sends None."""
        heap = self._heap
        seq = self._seq
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            now, _, task = pop(heap)
            self.now = now
            try:
                cmd = next(task.gen)
            except StopIteration:
                task.done = True
                for waiter in task.waiters:
                    push(heap, (now, next(seq), waiter))
                task.waiters.clear()
                continue
            if type(cmd) is not int:
                if isinstance(cmd, Task):
                    if cmd.done:
                        push(heap, (now, next(seq), task))
                    else:
                        cmd.waiters.append(task)
                    continue
                cmd = int(cmd)
            if cmd < 0:
                raise SimulationError(f"negative delay {cmd}")
            push(heap, (now + cmd, next(seq), task))


# one task's script: yield a delay (0 and -1 included), wait on the task
# spawned n-th (pending or done, itself included; an arrival's wait before
# any spawn is a zero delay), spawn a task running script n at now + d, or
# raise
SPAWN = st.tuples(st.integers(0, 7), st.integers(0, 3))
OP = st.one_of(st.tuples(st.just("delay"), st.integers(0, 3)), st.just(("delay", -1)),
               st.tuples(st.just("wait"), st.integers(0, 40)), st.tuples(st.just("spawn"), SPAWN),
               st.just(("raise",)))
# spawns before a run: at now + d, with d in and out of time order (0 and -1,
# a spawn in the past, included)
RUN_SPAWN = st.tuples(st.integers(0, 7), st.integers(-1, 6))


def replay(kernel, scripts, runs, arrivals=()):
    """Spawn and run ``scripts`` on ``kernel``, after handing it ``arrivals``,
    ``(at, script)`` pairs in time order: the (task, now) of every step, and
    each SimulationError with the now it was raised at. ``Kernel`` starts each
    arrival when it is due, and the reference spawns them all first."""
    trace, tasks = [], []

    def start(script, d):
        if len(tasks) < 60:
            gen = task(len(tasks), scripts[script % len(scripts)])
            tasks.append(kernel.spawn(gen, at_us=kernel.now + d))

    def task(tag, script):
        trace.append((tag, kernel.now))
        for op in script:
            if op[0] == "spawn":
                start(*op[1])
            elif op[0] == "raise":
                raise SimulationError(f"task {tag} fails")
            else:
                yield op[1] if op[0] == "delay" else tasks[op[1] % len(tasks)] if tasks else 0
                trace.append((tag, kernel.now))

    def arrival(item):
        k, script = item[1:]
        return task(f"arrival {k}", scripts[script % len(scripts)])

    items = [(at, k, script) for k, (at, script) in enumerate(arrivals)]
    if isinstance(kernel, Kernel):
        kernel.arrive(items)
        run = functools.partial(kernel.run_until_idle, arrival)
    else:
        for item in items:
            kernel.spawn(arrival(item), at_us=item[0])
        run = kernel.run_until_idle
    for spawns in runs + [[], []]:  # two more runs finish what a raise left
        try:
            for spawn in spawns:
                start(*spawn)
            run()
        except SimulationError as exc:
            trace.append((str(exc), kernel.now))
    return trace


@settings(max_examples=400, derandomize=True, deadline=None)
@given(scripts=st.lists(st.lists(OP, max_size=6), min_size=1, max_size=8),
       runs=st.lists(st.lists(RUN_SPAWN, max_size=8), min_size=1, max_size=3),
       arrivals=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8))
def test_kernel_steps_in_single_heap_order(scripts, runs, arrivals):
    arrivals.sort(key=lambda a: a[0])
    assert replay(Kernel(), scripts, runs, arrivals) == replay(SingleHeapKernel(), scripts, runs, arrivals)


def test_parallel_block_joins_at_max_branch():
    from faasbench.applications import parallel

    a = FunctionSpec(
        "a",
        HTTP_SYNC,
        (parallel((call("slow"),), (call("fast"),)),),
        entry_point=True,
    )
    slow = FunctionSpec("slow", HTTP_SYNC, (compute(constant(30)),))
    fast = FunctionSpec("fast", HTTP_SYNC, (compute(constant(5)),))
    app = ApplicationSpec("par", (a, slow, fast))
    platform = make_platform(cold_start_delay=constant(0))
    env, plan = deployed_env(app, single_platform_config(app, platform))
    t = invoke(env, "p1", "a", arrival_us=0)
    env.run_until_idle()
    assert t.done
    root = next(r for r in records_of(env) if r.kind == INVOCATION and r.function == "a")
    assert (root.start_us, root.end_us) == (0, 30 * MS)  # join waits for the slower branch


def test_executor_reuse_matches_most_recently_idle_scan():
    # reference: the full-scan policy written out; keep the executors idle
    # within keep-alive, take the max of (idle since, pool index), drop the
    # expired ones. It shadows the platform's pool from the truth: an
    # invocation's executor goes back to its pool in the step that appends
    # the invocation to the truth, so the truth lists the releases in pool
    # append order, each at its end_us. Every _acquire is checked against it.
    app = simple_app(body_ms=2)
    keep_alive = 10 * MS
    platform = make_platform(keep_alive_us=keep_alive)
    env, plan = deployed_env(app, single_platform_config(app, platform))
    shadow: list[tuple[str, int]] = []  # (executor key, last idle at)
    released = 0  # truth invocations already in the shadow
    chosen: list[tuple[str, bool]] = []
    expected: list[tuple[str | None, bool]] = []
    real_acquire = env._acquire

    def acquire(platform, fn_name, arrival):
        nonlocal released
        shadow.extend((inv.executor_key, inv.end_us) for inv in env.truth.invocations[released:])
        released = len(env.truth.invocations)
        alive = [e for e in shadow if e[1] + keep_alive >= arrival]
        if alive:
            best = alive.pop(max(range(len(alive)), key=lambda i: (alive[i][1], i)))
            expected.append((best[0], False))
        else:
            expected.append((None, True))
        shadow[:] = alive
        key, cold = real_acquire(platform, fn_name, arrival)
        chosen.append((key, cold))
        return key, cold

    env._acquire = acquire

    arrivals = [0, 0, 0, 500, 500]  # overlapping: five cold executors, idle at 2.0 ms (x3) and 2.5 ms (x2)
    arrivals += [3000, 3100, 3200]  # staggered: the two 2.5 ms ones top first, then a tie among the 2.0 ms ones
    arrivals += [12_100, 12_600]  # partial expiry: the two 2.0 ms executors left have expired below a live top
    arrivals += [14_600 + keep_alive]  # exactly keep-alive after the last release: still warm
    arrivals += [100 * MS, 100 * MS + 100]  # whole pool expired: cold, then a second cold overlap
    for t in arrivals:
        invoke(env, "p1", "fn", arrival_us=t)
    env.run_until_idle()

    assert len(chosen) == len(arrivals)
    assert [cold for _, cold in chosen] == [cold for _, cold in expected]
    assert [key for key, cold in chosen if not cold] == [key for key, cold in expected if not cold]
    assert [cold for _, cold in chosen] == [True] * 5 + [False] * 6 + [True] * 2
    keys = [key for key, _ in chosen]
    assert keys[5:8] == [keys[4], keys[3], keys[2]]  # most recent first; equal times: last released
    assert keys[8:11] == [keys[2], keys[3], keys[3]]
    truth = [(inv.executor_key, inv.cold) for inv in env.truth.invocations]
    assert sorted(truth) == sorted(chosen)


# -- the paused collector ----------------------------------------------------


def test_run_until_idle_rejects_a_negative_delay():
    app = simple_app()
    env, plan = deployed_env(app, single_platform_config(app, make_platform()))

    def backwards():
        yield -1

    env.kernel.spawn(backwards())
    with pytest.raises(SimulationError, match="negative delay -1"):
        env.run_until_idle()


def _run_coldstart(out_dir):
    r = recipe("exp4-coldstart")
    return runner.run_benchmark(load_builtin(r.benchmark), r.config, r.profile, 7, out_dir, scale=0.1)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_benchmark_restores_the_collector(enabled, collector_restored, monkeypatch, tmp_path):
    set_collector(enabled)
    _run_coldstart(tmp_path / "ok")
    assert gc.isenabled() is enabled and gc.get_freeze_count() == 0

    def failing_write_reports(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(runner, "write_reports", failing_write_reports)
    with pytest.raises(OSError, match="no space left"):
        _run_coldstart(tmp_path / "failed")
    assert gc.isenabled() is enabled and gc.get_freeze_count() == 0


def test_run_benchmark_keeps_a_callers_frozen_objects(collector_restored, tmp_path):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        _run_coldstart(tmp_path)
        # still frozen, bar what the run freed; none newly frozen
        assert 0 < gc.get_freeze_count() <= frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_benchmark_pauses_the_collector_over_set_up(enabled, collector_restored, monkeypatch, tmp_path):
    # set-up makes a tuple per arrival, the simulation a task and a generator
    # per invocation and a line per record, and the analysis a node per
    # invocation; at a threshold of 50
    # they would set off collections all the way, from deploy to the reports
    starts = []
    marks = []  # (call, collections started so far, collector on) as each wrapped call starts and ends

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def marked(fn):
        def call(*args, **kwargs):
            marks.append((fn.__name__, len(starts), gc.isenabled()))
            result = fn(*args, **kwargs)
            marks.append((fn.__name__, len(starts), gc.isenabled()))
            return result

        return call

    for name in ("deploy_all", "schedule", "teardown", "analyze_log_text", "write_reports"):
        monkeypatch.setattr(runner, name, marked(getattr(runner, name)))
    for name in ("run_until_idle", "collect_log"):
        monkeypatch.setattr(SimEnvironment, name, marked(getattr(SimEnvironment, name)))
    threshold = gc.get_threshold()
    gc.set_threshold(50)
    gc.callbacks.append(on_gc)
    try:
        set_collector(enabled)
        result = _run_coldstart(tmp_path)
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*threshold)
    assert result.stats.instances == 205
    assert [name for name, *_ in marks[::2]] == ["deploy_all", "schedule", "run_until_idle", "collect_log",
                                                 "teardown", "analyze_log_text", "write_reports"]
    assert {(n, on) for _, n, on in marks} == {(marks[0][1], False)}
    assert gc.isenabled() is enabled and gc.get_freeze_count() == 0


@pytest.mark.parametrize("name", RECIPE_NAMES)
def test_simulation_creates_no_reference_cycles(name, collector_restored):
    r = recipe(name)
    app = load_builtin(r.benchmark)
    gc.collect()  # an earlier test may have left cyclic garbage behind
    gc.disable()
    env, plan = deployed_env(app, r.config, seed=7)
    execute(schedule(r.profile.scaled(0.2), env.loadgen_rng), plan, env)
    env.run_until_idle()
    assert env.truth.invocations
    assert gc.collect() == 0
    env.collect_log(env.run_id)
    assert gc.collect() == 0
    freed = weakref.ref(env)
    del env
    assert freed() is None  # reference counting alone frees it, with the collector still off


def test_a_run_that_raised_frees_its_environment(collector_restored):
    # the first arrival finds its function gone and raises with two arrivals
    # pending; the kernel holds them as they were handed over, and no
    # starter, so reference counting alone frees the environment
    app = simple_app()
    gc.collect()
    gc.disable()
    env, plan = deployed_env(app, single_platform_config(app, make_platform()))
    wf = Workflow("w", (WorkflowStep("fn"),))
    execute([Arrival(i * 1_000_000, wf) for i in range(3)], plan, env)
    teardown(env.platforms)
    with pytest.raises(SimulationError, match="not deployed"):
        env.run_until_idle()
    freed = weakref.ref(env)
    del env
    assert freed() is None


def test_run_benchmark_frees_its_environment_on_return(collector_restored, monkeypatch, tmp_path):
    # the stdlib JSON encoder of the manifest and reports leaves cycles of its
    # own, so the check is the environment's weakref, not gc.collect() == 0;
    # the run lets go of it, and of its lines, before the analysis starts
    envs = []
    freed_when_analyzed = []
    analyze_log_text = runner.analyze_log_text

    class WatchedEnvironment(SimEnvironment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            envs.append(weakref.ref(self))

    def watched_analyze_log_text(*args, **kwargs):
        freed_when_analyzed.append(envs[0]() is None)
        return analyze_log_text(*args, **kwargs)

    monkeypatch.setattr(runner, "SimEnvironment", WatchedEnvironment)
    monkeypatch.setattr(runner, "analyze_log_text", watched_analyze_log_text)
    gc.collect()
    gc.disable()
    result = _run_coldstart(tmp_path)
    assert len(envs) == 1 and result.truth.invocations
    assert freed_when_analyzed == [True]
    assert envs[0]() is None
