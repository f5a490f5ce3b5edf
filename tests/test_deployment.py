import numpy as np
import pytest

from faasbench.applications import PUBLISHER_PREFIX, InvalidApplication, walk_steps
from faasbench.benchmarks import load_builtin
from faasbench.deployment import (
    AdapterFailure,
    DeploymentConfig,
    DeploymentError,
    PlatformSpec,
    ServiceBinding,
    compile as compile_deployment,
    deploy_all,
    publisher_name,
    teardown,
)
from faasbench.records import LOADGEN, IdSource
from faasbench.recipes import RECIPE_NAMES, exp3_three_way_factory, recipe
from faasbench.runner import default_config, run_benchmark

from conftest import make_platform, single_platform_config


class RecordingAdapter:
    """Mock adapter that logs calls and can fail on demand."""

    def __init__(self, fail_deploy: bool = False, fail_remove: bool = False):
        self.fail_deploy = fail_deploy
        self.fail_remove = fail_remove
        self.deployed = []
        self.removed = []

    def deploy(self, artifact):
        if self.fail_deploy:
            raise RuntimeError("boom")
        self.deployed.append(artifact.platform_id)

    def collect_logs(self, run_id):
        return []

    def remove(self, artifact):
        if self.fail_remove:
            raise RuntimeError("remove failed")
        self.removed.append(artifact.platform_id)


def three_platform_factory_config() -> DeploymentConfig:
    return exp3_three_way_factory().config


def publisher_platforms(plan) -> list[str]:
    """Ids of the platforms whose artifact carries a synthesized publisher."""
    return [a.platform_id for a in plan.artifacts
            if publisher_name(a.platform_id) in (rfn.name for rfn in a.functions)]


def test_factory_three_way_split_artifacts_and_publishers():
    app = load_builtin("smartfactory")
    plan = compile_deployment(app, three_platform_factory_config())
    assert len(plan.artifacts) == 3
    # every artifact carries its synthesized publisher
    assert sorted(publisher_platforms(plan)) == ["couch", "cushion", "panel"]


def test_webshop_single_platform_no_publishers():
    app = load_builtin("webshop")
    cfg = single_platform_config(app, make_platform("cloud-a", peers={"keystore": 3}))
    plan = compile_deployment(app, cfg)
    assert len(plan.artifacts) == 1
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
        for artifact in plan.artifacts:
            src = specs[artifact.platform_id]
            for rfn in artifact.functions:
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
        service_bindings={"keystore": ServiceBinding("cloud-a")},
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
        service_bindings={"keystore": ServiceBinding("cloud-a")},
    )
    with pytest.raises(DeploymentError, match="^platform 'cloud-x' is not defined$"):
        compile_deployment(app, cfg)
    cfg2 = DeploymentConfig(
        platforms=(platform,),
        assignment={fn.name: "cloud-a" for fn in app.functions},
    )
    with pytest.raises(DeploymentError, match="^external service 'keystore' has no binding$"):
        compile_deployment(app, cfg2)


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


def test_deploy_all_and_fresh_run_ids():
    app = load_builtin("smartfactory")
    plan = compile_deployment(app, three_platform_factory_config())
    adapters = {pid: RecordingAdapter() for pid in ("couch", "panel", "cushion")}
    ids = IdSource(np.random.default_rng(0))
    h1 = deploy_all(plan, adapters, ids.new_run_id())
    h2 = deploy_all(plan, adapters, ids.new_run_id())
    assert h1.run_id != h2.run_id
    assert set(h1.deployed) == {"couch", "panel", "cushion"}


def test_deploy_failure_rolls_back():
    app = load_builtin("smartfactory")
    plan = compile_deployment(app, three_platform_factory_config())
    adapters = {
        "couch": RecordingAdapter(),
        "panel": RecordingAdapter(fail_deploy=True),
        "cushion": RecordingAdapter(),
    }
    with pytest.raises(AdapterFailure) as err:
        deploy_all(plan, adapters, "r-test")
    assert err.value.platform_id == "panel"
    assert adapters["couch"].removed == ["couch"]  # rolled back
    assert adapters["cushion"].deployed == []


def test_teardown_reports_and_is_idempotent():
    app = load_builtin("smartfactory")
    plan = compile_deployment(app, three_platform_factory_config())
    adapters = {pid: RecordingAdapter() for pid in ("couch", "panel", "cushion")}
    adapters["panel"].fail_remove = True
    handle = deploy_all(plan, adapters, "r-test")
    report = teardown(handle, adapters)
    assert report.outcomes["couch"] == "removed"
    assert report.outcomes["panel"].startswith("failed")
    assert not report.ok
    again = teardown(handle, adapters)
    assert set(again.outcomes.values()) == {"skipped"}


def test_platform_spec_invariants():
    with pytest.raises(DeploymentError):
        PlatformSpec(id="x", keep_alive_us=0, network_latency={})
    spec = make_platform()
    with pytest.raises(DeploymentError):
        spec.leg("unknown-peer")


def test_default_config_refuses_the_load_generators_platform_id():
    # every call would read as a load-generator root call
    with pytest.raises(DeploymentError, match="'loadgen' is reserved for the load generator"):
        default_config(load_builtin("webshop"), platform_id="loadgen")


def test_config_json_round_trip():
    cfg = three_platform_factory_config()
    assert DeploymentConfig.from_json(cfg.to_json()) == cfg
