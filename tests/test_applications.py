import networkx as nx
import pytest

from faasbench.applications import (
    ApplicationSpec,
    EVENT_ASYNC,
    FunctionSpec,
    HTTP_SYNC,
    InvalidApplication,
    UnknownBenchmark,
    call,
    call_graph,
    compute,
    db_get,
    parallel,
    publish,
    returns,
    validate,
)
from faasbench.benchmarks import BENCHMARK_NAMES, load_builtin
from faasbench.distributions import constant

MS1 = constant(1)

EXPECTED_FUNCTION_COUNTS = {"webshop": 17, "smartcity": 9, "smartfactory": 7, "streaming": 7}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_builtin_counts_and_validity(name):
    app = load_builtin(name)
    assert len(app.functions) == EXPECTED_FUNCTION_COUNTS[name]
    assert validate(app).ok


def test_unknown_benchmark():
    with pytest.raises(UnknownBenchmark):
        load_builtin("shop")


def test_webshop_has_single_frontend_entry_and_a_store():
    app = load_builtin("webshop")
    entries = app.entry_points()
    assert [fn.name for fn in entries] == ["frontend"]
    assert app.external_services == ("keystore",)


def test_smartfactory_edges_are_all_async():
    app = load_builtin("smartfactory")
    graph = call_graph(app)
    assert graph.edges, "factory must have inter-function edges"
    assert all(mode == "async" for _, _, mode in graph.edges)
    assert ("orderSupplies", "orderPanel", "async") in graph.edges
    assert ("orderSupplies", "orderCushion", "async") in graph.edges


def test_webshop_reachability_from_frontend():
    # independent oracle: networkx reachability over the same edge list
    app = load_builtin("webshop")
    graph = call_graph(app)
    g = nx.MultiDiGraph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from((a, b) for a, b, _ in graph.edges)
    reachable = nx.descendants(g, "frontend") | {"frontend"}
    assert reachable == set(app.function_names)
    assert graph.reachable_from("frontend") == reachable


def test_call_graph_stable():
    app = load_builtin("smartcity")
    assert call_graph(app) == call_graph(app)


def test_call_graph_single_function():
    app = ApplicationSpec(
        "tiny", (FunctionSpec("only", HTTP_SYNC, (compute(MS1),), entry_point=True),)
    )
    g = call_graph(app)
    assert g.nodes == ("only",)
    assert g.edges == ()


def test_duplicate_name_violation():
    fn = FunctionSpec("frontend", HTTP_SYNC, (compute(MS1),), entry_point=True)
    app = ApplicationSpec("dup", (fn, fn))
    report = validate(app)
    assert not report.ok
    assert "DuplicateName" in report.codes()
    assert any(v.function == "frontend" for v in report.violations)


def test_unknown_target_violation():
    fn = FunctionSpec("a", HTTP_SYNC, (call("cartX"),), entry_point=True)
    report = validate(ApplicationSpec("bad", (fn,)))
    assert "UnknownTarget" in report.codes()
    assert any(v.function == "a" and "cartX" in v.detail for v in report.violations)


def test_trigger_kind_targeting_rules():
    a = FunctionSpec("a", HTTP_SYNC, (call("ev"), publish("web")), entry_point=True)
    ev = FunctionSpec("ev", EVENT_ASYNC, (compute(MS1),))
    web = FunctionSpec("web", HTTP_SYNC, (compute(MS1),))
    report = validate(ApplicationSpec("bad", (a, ev, web)))
    assert "CallToAsync" in report.codes()
    assert "PublishToSync" in report.codes()


def test_parallel_block_needs_two_branches():
    fn = FunctionSpec("a", HTTP_SYNC, (parallel((compute(MS1),)),), entry_point=True)
    assert "BadParallelBlock" in validate(ApplicationSpec("bad", (fn,))).codes()


def test_return_must_be_last():
    fn = FunctionSpec("a", HTTP_SYNC, (returns(), compute(MS1)), entry_point=True)
    assert "ReturnNotLast" in validate(ApplicationSpec("bad", (fn,))).codes()
    # within a parallel branch too: the simulator runs every step of a branch
    branchy = parallel((returns(), compute(MS1)), (compute(MS1), returns()))
    fn = FunctionSpec("a", HTTP_SYNC, (branchy,), entry_point=True)
    assert [v.detail for v in validate(ApplicationSpec("bad", (fn,))).violations] == [
        "return must be the final step of its branch"]


def test_entry_point_and_reachability_rules():
    lonely = FunctionSpec("lonely", HTTP_SYNC, (compute(MS1),))
    entry = FunctionSpec("entry", HTTP_SYNC, (compute(MS1),), entry_point=True)
    report = validate(ApplicationSpec("no-entry", (lonely,)))
    assert "NoEntryPoint" in report.codes()
    report = validate(ApplicationSpec("unreachable", (entry, lonely)))
    assert "Unreachable" in report.codes()


def test_db_step_requires_declared_service():
    fn = FunctionSpec("a", HTTP_SYNC, (db_get("k"),), entry_point=True)
    assert "NoServiceDeclared" in validate(ApplicationSpec("bad", (fn,))).codes()
    ok = ApplicationSpec("good", (fn,), external_services=("keystore",))
    assert validate(ok).ok


def cycle_violations(*functions):
    return [v for v in validate(ApplicationSpec("app", functions)).violations if v.code == "Cycle"]


def test_call_cycle_rejected():
    a = FunctionSpec("a", HTTP_SYNC, (call("b"),), entry_point=True)
    b = FunctionSpec("b", HTTP_SYNC, (compute(MS1), call("a")))
    (v,) = cycle_violations(a, b)
    assert v.function == "a" and v.detail.endswith("a -> b -> a")


def test_publish_cycle_rejected():
    # the cycle runs through a parallel branch and two published events
    a = FunctionSpec("a", HTTP_SYNC, (publish("e1"),), entry_point=True)
    e1 = FunctionSpec("e1", EVENT_ASYNC, (parallel((compute(MS1),), (publish("e2"),)),))
    e2 = FunctionSpec("e2", EVENT_ASYNC, (publish("e1"),))
    (v,) = cycle_violations(a, e1, e2)
    assert v.detail.endswith("e1 -> e2 -> e1")


def test_self_call_rejected():
    a = FunctionSpec("a", HTTP_SYNC, (compute(MS1), call("a")), entry_point=True)
    (v,) = cycle_violations(a)
    assert v.detail.endswith("a -> a")


def test_diamond_is_not_a_cycle():
    a = FunctionSpec("a", HTTP_SYNC, (call("b"), call("c")), entry_point=True)
    b = FunctionSpec("b", HTTP_SYNC, (call("d"),))
    c = FunctionSpec("c", HTTP_SYNC, (call("d"),))
    d = FunctionSpec("d", HTTP_SYNC, (compute(MS1),))
    assert validate(ApplicationSpec("diamond", (a, b, c, d))).ok


def test_call_graph_requires_valid_app():
    fn = FunctionSpec("a", HTTP_SYNC, (call("missing"),), entry_point=True)
    with pytest.raises(InvalidApplication):
        call_graph(ApplicationSpec("bad", (fn,)))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_serialization_round_trip(name):
    app = load_builtin(name)
    assert ApplicationSpec.from_json(app.to_json()) == app


def test_violations_are_data_not_errors():
    fn = FunctionSpec("a", HTTP_SYNC, (call("missing"),), entry_point=True)
    report = validate(ApplicationSpec("bad", (fn,)))  # must not raise
    assert not report.ok and report.violations
