import json

import pytest

from faasbench.applications import PUBLISHER_PREFIX, InvalidApplication, walk_steps
from faasbench.benchmarks import load_builtin
from faasbench.cli import EXIT_CONFIG, main
from faasbench.deployment import (
    DeploymentConfig,
    DeploymentError,
    PlatformSpec,
    compile as compile_deployment,
    publisher_name,
)
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
