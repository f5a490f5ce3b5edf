import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faasbench.applications import PUBLISHER_PREFIX, InvalidApplication, walk_steps
from faasbench.benchmarks import load_builtin
from faasbench.cli import EXIT_CONFIG, main
from faasbench.deployment import (
    MAX_CLOCK_OFFSET_MS,
    DeploymentConfig,
    DeploymentError,
    PlatformSpec,
    compile as compile_deployment,
    publisher_name,
)
from faasbench.distributions import MAX_PROFILE_US, DistributionError, Duration
from faasbench.records import LOADGEN
from faasbench.recipes import RECIPE_NAMES, exp3_three_way_factory, recipe
from faasbench.runner import run_benchmark

from conftest import make_platform, single_platform_config


def three_platform_factory_config() -> DeploymentConfig:
    return exp3_three_way_factory().config


def publisher_platforms(plan) -> list[str]:
    """Ids of the platforms whose functions include a synthesized publisher."""
    return [pid for pid, fns in plan.functions.items() if publisher_name(pid) in (rfn.name for rfn in fns)]


def test_factory_three_way_split_artifacts_and_publishers():
    app = load_builtin("smartfactory")
    plan = compile_deployment(app, three_platform_factory_config())
    assert list(plan.functions) == ["couch", "panel", "cushion"]  # the config's platform order
    # every platform carries its synthesized publisher
    assert sorted(publisher_platforms(plan)) == ["couch", "cushion", "panel"]


def test_webshop_single_platform_no_publishers():
    app = load_builtin("webshop")
    cfg = single_platform_config(app, make_platform("cloud-a", peers={"keystore": 3}))
    plan = compile_deployment(app, cfg)
    assert list(plan.functions) == ["cloud-a"]
    assert publisher_platforms(plan) == []


def test_endpoint_resolution_is_total():
    # every leg is the sending side's entry for the receiving side; the load
    # generator's legs, both ways, are the entry point's platform's loadgen entry
    for name in RECIPE_NAMES:
        r = recipe(name)
        app = load_builtin(r.benchmark)
        specs = {p.id: p for p in r.config.platforms}
        placement = r.config.assignment
        plan = compile_deployment(app, r.config)
        for pid, fns in plan.functions.items():
            src = specs[pid]
            for rfn in fns:
                assert rfn.name.startswith(PUBLISHER_PREFIX) or placement[rfn.name] == src.id
                for step in walk_steps(rfn.spec.body):
                    if step.kind == "call":
                        dst = specs[placement[step.target]]
                        assert rfn.call_routes[step.target] == (dst.id, src.leg(dst.id), dst.leg(src.id))
                    elif step.kind == "publish":
                        dst = specs[placement[step.target]]
                        assert rfn.publish_routes[step.target] == (dst.id, src.leg(dst.id))
                    elif step.kind in ("dbGet", "dbSet"):
                        assert rfn.store == ("keystore", src.leg("keystore"))
        assert set(plan.entry_routes) == {fn.name for fn in app.entry_points()}
        for entry, route in plan.entry_routes.items():
            dst = specs[placement[entry]]
            assert route == (dst.id, dst.leg(LOADGEN), dst.leg(LOADGEN))


@pytest.mark.parametrize("name, platform, entry", [
    ("exp1-single-cloud", "cloud-a", "keystore"),
    ("exp1-single-cloud", "cloud-a", "loadgen"),
    ("exp2-edge-cloud", "edge-1", "cloud-a"),
    ("exp3-three-way-factory", "couch", "panel"),
], ids=["store", "entry-point", "call-return", "publish"])
def test_compile_names_a_missing_network_leg(name, platform, entry):
    r = recipe(name)
    doc = r.config.to_dict()
    del next(p for p in doc["platforms"] if p["id"] == platform)["networkLatency"][entry]
    with pytest.raises(DeploymentError, match=f"^platform {platform}: no networkLatency entry for '{entry}'$"):
        compile_deployment(load_builtin(r.benchmark), DeploymentConfig.from_dict(doc))


def test_publisher_injection_is_minimal():
    app = load_builtin("smartcity")  # one async function
    edge = make_platform("edge-1", peers={"cloud-a": 40, "keystore": 40})
    cloud = make_platform("cloud-a", peers={"edge-1": 40, "keystore": 3})
    cfg = DeploymentConfig(
        platforms=(edge, cloud),
        assignment={fn.name: ("edge-1" if fn.name == "setLightPhase" else "cloud-a") for fn in app.functions},
        service_bindings={"keystore": "cloud-a"},
    )
    plan = compile_deployment(app, cfg)
    assert publisher_platforms(plan) == ["edge-1"]


def test_compile_is_pure():
    app = load_builtin("smartfactory")
    cfg = three_platform_factory_config()
    assert compile_deployment(app, cfg) == compile_deployment(app, cfg)


def test_missing_assignment():
    app = load_builtin("smartfactory")
    cfg = three_platform_factory_config()
    broken = DeploymentConfig(
        platforms=cfg.platforms,
        assignment={k: v for k, v in cfg.assignment.items() if k != "billing"},
        service_bindings=cfg.service_bindings,
    )
    with pytest.raises(DeploymentError, match="^function 'billing' has no platform assignment$"):
        compile_deployment(app, broken)


def test_unknown_platform_and_missing_binding():
    app = load_builtin("webshop")
    platform = make_platform("cloud-a", peers={"keystore": 3})
    cfg = DeploymentConfig(
        platforms=(platform,),
        assignment={fn.name: "cloud-x" for fn in app.functions},
        service_bindings={"keystore": "cloud-a"},
    )
    with pytest.raises(DeploymentError, match="^platform 'cloud-x' is not defined$"):
        compile_deployment(app, cfg)
    cfg2 = DeploymentConfig(
        platforms=(platform,),
        assignment={fn.name: "cloud-a" for fn in app.functions},
    )
    with pytest.raises(DeploymentError, match="^external service 'keystore' has no binding$"):
        compile_deployment(app, cfg2)


@pytest.mark.parametrize("section, key, entry, reason", [
    ("assignment", "registerUsr", "nowhere", "assignment key 'registerUsr' is not a function of the application"),
    ("serviceBindings", "kvstore", {"platform": "nowhere"},
     "serviceBindings key 'kvstore' is not an external service of the application"),
], ids=["assignment", "binding"])
def test_run_rejects_a_config_key_that_names_nothing_in_the_application(tmp_path, capsys, section, key, entry,
                                                                        reason):
    # a stray key would otherwise be ignored, and a typo in one pass unnoticed
    config = recipe("exp4-coldstart").config.to_dict()
    config[section][key] = entry
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "streaming", "--config", str(cfg), "--scale", "0.01", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {reason}\n"
    assert not out.exists()


def test_run_benchmark_rejects_invalid_app(tmp_path):
    from faasbench.applications import ApplicationSpec, FunctionSpec, HTTP_SYNC, call
    from faasbench.workload import LoadProfile, Phase, Workflow, WorkflowStep

    fn = FunctionSpec("a", HTTP_SYNC, (call("nope"),), entry_point=True)
    app = ApplicationSpec("bad", (fn,))
    cfg = DeploymentConfig(platforms=(make_platform(),), assignment={"a": "p1"})
    profile = LoadProfile("one", (Workflow("hit", (WorkflowStep("a"),)),),
                          (Phase("burst", 1_000_000, total_flows=1, mix=(("hit", 1.0),)),))
    out = tmp_path / "out"
    with pytest.raises(InvalidApplication, match=r"^UnknownTarget \[a\]: target 'nope' is not defined$"):
        run_benchmark(app, cfg, profile, seed=1, out_dir=out)
    assert not out.exists()


def test_platform_spec_invariants():
    with pytest.raises(DeploymentError):
        PlatformSpec(id="x", keep_alive_us=0, network_latency={})
    spec = make_platform()
    with pytest.raises(DeploymentError):
        spec.leg("unknown-peer")


def test_config_json_round_trip():
    cfg = three_platform_factory_config()
    assert DeploymentConfig.from_json(cfg.to_json()) == cfg


MAX_CLOCK_OFFSET_US = MAX_CLOCK_OFFSET_MS * 1000


@pytest.mark.parametrize("kwargs, reason", [
    (dict(keep_alive_us=MAX_PROFILE_US), "keepAliveSeconds must be below 2**51 us (about 71 years), got 2.2518e+09"),
    (dict(keep_alive_us=2**53 - 1), "keepAliveSeconds must be below 2**51 us (about 71 years), got 9.0072e+09"),
    (dict(clock_offset_us=-MAX_CLOCK_OFFSET_US - 1),
     "clockOffsetMs must be within +-86400000 ms, got -8.64e+07"),
], ids=["keep-alive-2**51", "keep-alive-2**53-1", "clock-offset"])
def test_a_platform_built_in_code_keeps_what_from_dict_reads(kwargs, reason):
    # to_dict could not write such a value so that from_dict reads it back
    with pytest.raises(DeploymentError) as exc:
        make_platform(**kwargs)
    assert str(exc.value) == f"platform p1: {reason}"


# (kind, args) of a Duration; some can reach 2**53 us, which Duration refuses
DURATIONS = st.one_of(
    st.tuples(st.just("constant"), st.tuples(st.floats(0, 1e13))),
    st.tuples(st.just("uniform"), st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)).map(sorted).map(tuple)),
    st.tuples(st.just("lognormal"), st.tuples(st.floats(1e-300, 1e6), st.floats(0, 5))),
    st.tuples(st.just("exponential"), st.tuples(st.floats(0, 1e12))),
)


@st.composite
def configs(draw):
    """A config drawn from every distribution kind and from keep-alives and
    clock offsets past their bounds too, or None when a constructor refuses it."""
    pids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True))
    names = st.text(max_size=4)
    try:
        platforms = tuple(
            PlatformSpec(
                id=pid,
                cold_start_delay=Duration(*draw(DURATIONS)),
                keep_alive_us=draw(st.integers(1, MAX_PROFILE_US - 1) | st.integers(1, 2**53 - 1)),
                network_latency={draw(names): Duration(*draw(DURATIONS)) for _ in range(draw(st.integers(0, 3)))},
                trigger_delay=Duration(*draw(DURATIONS)),
                log_lines_per_second=draw(st.none() | st.integers(1, 2**64)),
                clock_offset_us=draw(st.integers(-MAX_CLOCK_OFFSET_US, MAX_CLOCK_OFFSET_US)
                                     | st.integers(-2**53 + 1, 2**53 - 1)),
            )
            for pid in pids
        )
    except (DeploymentError, DistributionError):
        return None
    return DeploymentConfig(
        platforms=platforms,
        assignment=draw(st.dictionaries(names, st.sampled_from(pids), max_size=4)),
        service_bindings=draw(st.dictionaries(names, st.sampled_from(pids), max_size=2)),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@example(c=DeploymentConfig((make_platform(keep_alive_us=MAX_PROFILE_US - 1,
                                           clock_offset_us=-MAX_CLOCK_OFFSET_US),), {"fn": "p1"}))
@given(c=configs())
def test_a_config_the_constructors_accept_reads_back_from_its_json(c):
    if c is not None:
        assert DeploymentConfig.from_dict(json.loads(json.dumps(c.to_dict()))) == c
