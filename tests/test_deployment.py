import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faasbench.applications import PUBLISHER_PREFIX, InvalidApplication, walk_steps
from faasbench.benchmarks import BENCHMARK_NAMES, load_builtin
from faasbench.cli import EXIT_CONFIG, EXIT_OK, main
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
from faasbench.runner import default_config, run_benchmark

from conftest import make_platform, rarely, single_platform_config


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
    )
    with pytest.raises(DeploymentError, match="^function 'billing' has no platform assignment$"):
        compile_deployment(app, broken)


def test_unknown_platform_and_missing_binding():
    # the constructor refuses the unknown platform; a store has no binding to
    # miss, its place is each platform's networkLatency entry for it
    app = load_builtin("webshop")
    platform = make_platform("cloud-a", peers={"keystore": 3})
    with pytest.raises(DeploymentError, match="^platform 'cloud-x' is not defined$"):
        DeploymentConfig(platforms=(platform,), assignment={fn.name: "cloud-x" for fn in app.functions})


# the configs whose JSON an older faasbench wrote with a serviceBindings entry
OLD_CONFIGS = {**{f"default-{b}": default_config(load_builtin(b)) for b in BENCHMARK_NAMES},
               **{name: recipe(name).config for name in RECIPE_NAMES}}


@pytest.mark.parametrize("name", OLD_CONFIGS)
def test_a_config_with_old_service_bindings_loads_as_the_same_config(name):
    # such a binding moved no byte of any run; it is ignored like any unknown field
    cfg = OLD_CONFIGS[name]
    assert "serviceBindings" not in cfg.to_dict()
    for pid in (p.id for p in cfg.platforms):
        for binding in ({"platform": pid}, {"platform": pid, "latencyClass": "same-region"}):
            doc = {**cfg.to_dict(), "serviceBindings": {"keystore": binding}}
            assert DeploymentConfig.from_json(json.dumps(doc)) == cfg


def test_a_config_with_or_without_service_bindings_runs_the_same(tmp_path):
    # an older faasbench refused the config without bindings: external service 'keystore' has no binding
    r = recipe("exp4-coldstart")
    binding = {"platform": "cloud-a", "latencyClass": "same-region"}
    old = {**r.config.to_dict(), "serviceBindings": {"keystore": binding}}
    logs = []
    for i, doc in enumerate((r.config.to_dict(), old)):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"out{i}"
        assert main(["run", r.benchmark, "--config", str(cfg), "--scale", "0.01", "--seed", "11",
                     "--out", str(out)]) == EXIT_OK
        logs.append(next(out.glob("*/raw.log")).read_bytes())
    assert logs[0] == logs[1]


@pytest.mark.parametrize("section, key, entry, reason", [
    ("assignment", "registerUsr", "cloud-a", "assignment key 'registerUsr' is not a function of the application"),
], ids=["assignment"])
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


def _one_function_run(body: tuple) -> tuple:
    """The application, config and one-flow profile of an entry point ``a``
    with ``body``."""
    from faasbench.applications import ApplicationSpec, FunctionSpec, HTTP_SYNC
    from faasbench.workload import LoadProfile, Phase, Workflow, WorkflowStep

    app = ApplicationSpec("one", (FunctionSpec("a", HTTP_SYNC, body, entry_point=True),))
    cfg = DeploymentConfig(platforms=(make_platform(),), assignment={"a": "p1"})
    profile = LoadProfile("one", (Workflow("hit", (WorkflowStep("a"),)),),
                          (Phase("burst", 1_000_000, total_flows=1, mix=(("hit", 1.0),)),))
    return app, cfg, profile


def test_run_benchmark_rejects_invalid_app(tmp_path):
    from faasbench.applications import call

    out = tmp_path / "out"
    with pytest.raises(InvalidApplication, match=r"^UnknownTarget \[a\]: target 'nope' is not defined$"):
        run_benchmark(*_one_function_run((call("nope"),)), seed=1, out_dir=out)
    assert not out.exists()


def test_run_benchmark_builds_the_manifest_documents_before_the_run_directory(tmp_path, monkeypatch):
    from faasbench.applications import compute
    from faasbench.distributions import constant
    from faasbench.workload import LoadProfile

    def unwritable(self):
        raise ValueError("cannot write this profile")

    monkeypatch.setattr(LoadProfile, "to_dict", unwritable)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="cannot write this profile"):
        run_benchmark(*_one_function_run((compute(constant(1)),)), seed=1, out_dir=out)
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
    """A config drawn from every distribution kind, from keep-alives and clock
    offsets past their bounds or not whole microseconds, from delays and legs
    that are not distributions, and from keys and platforms JSON cannot hold,
    or None when a constructor refuses it."""
    pids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True))
    names = st.text(max_size=4)
    int_keys = st.integers(-2, 2)  # JSON would read an int key back as a string
    peers = rarely(int_keys, names)
    # in range, so that only its type keeps it out
    not_micros = st.floats(-1e9, 1e9).filter(lambda x: not x.is_integer()) | st.booleans()
    keep_alives = rarely(not_micros, st.integers(1, MAX_PROFILE_US - 1) | st.integers(1, 2**53 - 1))
    offsets = rarely(not_micros, st.integers(-MAX_CLOCK_OFFSET_US, MAX_CLOCK_OFFSET_US)
                     | st.integers(-2**53 + 1, 2**53 - 1))
    durations = rarely(st.integers(0, 5) | st.just("constant(1)"), DURATIONS.map(lambda args: Duration(*args)))
    try:
        platforms = tuple(
            PlatformSpec(
                id=pid,
                cold_start_delay=draw(durations),
                keep_alive_us=draw(keep_alives),
                network_latency={draw(peers): draw(durations) for _ in range(draw(st.integers(0, 3)))},
                trigger_delay=draw(durations),
                log_lines_per_second=draw(st.none() | st.integers(1, 2**64)),
                clock_offset_us=draw(offsets),
            )
            for pid in pids
        )
        assignment = draw(st.dictionaries(names, st.sampled_from(pids), max_size=4))
        # now and then one entry JSON cannot hold: an int key, or no listed platform's id
        odd = (st.tuples(int_keys, st.sampled_from(pids))
               | st.tuples(names, names | st.integers(0, 2) | st.lists(st.sampled_from(pids))))
        assignment.update(draw(st.lists(odd, max_size=1)))
        return DeploymentConfig(platforms=platforms, assignment=assignment)
    except (DeploymentError, DistributionError):
        return None


@settings(max_examples=300, derandomize=True, deadline=None)
@example(c=DeploymentConfig((make_platform(keep_alive_us=MAX_PROFILE_US - 1,
                                           clock_offset_us=-MAX_CLOCK_OFFSET_US),), {"fn": "p1"}))
@given(c=configs())
def test_a_config_the_constructors_accept_reads_back_from_its_json(c):
    if c is not None:
        assert DeploymentConfig.from_dict(json.loads(json.dumps(c.to_dict()))) == c


@pytest.mark.parametrize("build, reason", [
    (lambda: DeploymentConfig((make_platform(),), {"fn": 5}), "platform 5 is not defined"),
    (lambda: DeploymentConfig((make_platform(),), {"fn": ["p1"]}), "platform ['p1'] is not defined"),
    (lambda: DeploymentConfig((make_platform(),), {7: "p1"}), "assignment key 7 must be a string"),
    (lambda: make_platform(keep_alive_us=1.5), "platform p1: keep_alive_us must be an int, got 1.5"),
    (lambda: make_platform(keep_alive_us=True), "platform p1: keep_alive_us must be an int, got True"),
    (lambda: make_platform(clock_offset_us=2.0), "platform p1: clock_offset_us must be an int, got 2.0"),
    (lambda: make_platform(peers={7: 1}), "platform p1: networkLatency key 7 must be a string"),
    (lambda: make_platform(cold_start_delay=5), "platform p1: cold_start_delay must be a Duration, got 5"),
    (lambda: make_platform(trigger_delay="constant(1)"),
     "platform p1: trigger_delay must be a Duration, got 'constant(1)'"),
    (lambda: make_platform(network_latency={"x": 5}), "platform p1: networkLatency.x must be a Duration, got 5"),
], ids=["assignment-int", "assignment-list", "assignment-int-key", "keep-alive-float", "keep-alive-bool",
        "clock-offset-float", "peer-int-key", "cold-start-an-int", "trigger-a-string", "leg-an-int"])
def test_a_config_its_json_cannot_hold_is_refused(build, reason):
    # to_dict would write such a value so that from_dict refuses it or reads back another
    with pytest.raises(DeploymentError) as exc:
        build()
    assert str(exc.value) == reason
