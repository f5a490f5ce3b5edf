"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

from faasbench import runner
from faasbench.applications import EVENT_ASYNC, ApplicationSpec, FunctionSpec, HTTP_SYNC, compute, parallel, publish
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.deployment import DeploymentConfig, PlatformSpec, compile as compile_deployment, deploy_all
from faasbench.distributions import constant, parse_duration
from faasbench.recipes import Recipe, recipe
from faasbench.records import TraceRecord, _format_line
from faasbench.simulator import SimEnvironment
from faasbench.workload import LoadProfile, Phase, Workflow, WorkflowStep


def make_platform(pid: str = "p1", peers: dict | None = None, **kwargs) -> PlatformSpec:
    """PlatformSpec with sane test defaults; peers maps name -> ms-or-spec."""
    latency = {pid: constant(0), "loadgen": constant(1)}
    for peer, value in (peers or {}).items():
        latency[peer] = parse_duration(value) if isinstance(value, str) else constant(value)
    defaults = dict(
        cold_start_delay=constant(0),
        keep_alive_us=300_000_000,
        network_latency=latency,
        trigger_delay=constant(100),
    )
    defaults.update(kwargs)
    return PlatformSpec(id=pid, **defaults)


def recipe_with(name: str, platform: str | None = None, **fields) -> Recipe:
    """The recipe ``name`` with ``fields`` replaced on each of its platforms,
    or only on the one whose id is ``platform``."""
    r = recipe(name)
    platforms = tuple(replace(p, **fields) if platform in (None, p.id) else p for p in r.config.platforms)
    return replace(r, config=replace(r.config, platforms=platforms))


def single_platform_config(app: ApplicationSpec, platform: PlatformSpec) -> DeploymentConfig:
    return DeploymentConfig(
        platforms=(platform,),
        assignment={fn.name: platform.id for fn in app.functions},
    )


def deployed_env(app: ApplicationSpec, cfg: DeploymentConfig, seed: int = 1):
    """Compile, deploy, and return (env, plan) ready to stimulate."""
    env = SimEnvironment(cfg, seed)
    plan = compile_deployment(app, cfg)
    deploy_all(plan, env.platforms)
    return env, plan


def invoke(env: SimEnvironment, platform_id: str, fn: str, arrival_us: int):
    """Schedule an arrival of ``fn`` on platform ``platform_id`` of ``env`` at
    ``arrival_us``, outside any workflow, with a fresh context and pair id;
    the returned task is done once the invocation has ended."""
    context_id, pair_id = env.ids.new_id(), env.ids.new_id()

    def arrival():
        yield env.start_invocation(env.platforms[platform_id], fn, context_id, pair_id)

    return env.kernel.spawn(arrival(), at_us=arrival_us)


def rarely(odd, usual):
    """``usual``, or one time in eight ``odd``."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 7 else usual)


def serialize_record(r: TraceRecord) -> str:
    """The log line of ``r``, built by the sinks' own formatter."""
    return _format_line(*r)


def parallel_publish_app() -> ApplicationSpec:
    """An entry point whose one step is a parallel block publishing to two
    event-async functions: both events reach the publisher in the same
    microsecond, so its two invocations start together."""
    entry = FunctionSpec("entry", HTTP_SYNC, (parallel((publish("a"),), (publish("b"),)),), entry_point=True)
    a = FunctionSpec("a", EVENT_ASYNC, (compute(constant(1)),))
    b = FunctionSpec("b", EVENT_ASYNC, (compute(constant(2)),))
    return ApplicationSpec("parallel-publish", (entry, a, b))


def burst_profile(entries, flows: int) -> LoadProfile:
    """One 1-second burst of ``flows`` workflows, each a single call to one
    of ``entries``, mixed evenly."""
    workflows = tuple(Workflow(e, (WorkflowStep(e),)) for e in entries)
    mix = tuple((e, 1 / len(entries)) for e in entries)
    return LoadProfile("burst", workflows, (Phase(kind="burst", duration_us=1_000_000, total_flows=flows, mix=mix),))


def truth_edges_by_context(truth) -> dict[str, set]:
    """The simulator's truth edges, grouped by context as ``edge_set`` gives them."""
    out: dict[str, set] = {}
    for e in truth.edges:
        out.setdefault(e.context_id, set()).add(tuple(e))
    return out


@pytest.fixture
def one_fn_app() -> ApplicationSpec:
    fn = FunctionSpec("solo", HTTP_SYNC, (compute(constant(2)),), entry_point=True)
    return ApplicationSpec(name="solo-app", functions=(fn,))


def set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_restored():
    """Restore the cyclic collector's on/off state after the test."""
    enabled = gc.isenabled()
    yield
    set_collector(enabled)


@pytest.fixture(scope="module")
def streaming_run(tmp_path_factory) -> Path:
    """The run directory of a small streaming run (seed 7, x0.002). Its
    manifest embeds the application, the default config and the unscaled
    streaming profile: four phases, the last a burst."""
    app = load_builtin("streaming")
    result = runner.run_benchmark(app, runner.default_config(app), builtin_profile("streaming"), seed=7,
                                  out_dir=tmp_path_factory.mktemp("streaming"), scale=0.002)
    return result.run_dir
