import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faasbench.applications import (
    ApplicationSpec,
    EVENT_ASYNC,
    FunctionSpec,
    HTTP_SYNC,
    UnknownBenchmark,
    call,
    compute,
    db_get,
    parallel,
    publish,
    returns,
    validate,
    walk_steps,
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
    edges = [(fn.name, step.kind, step.target) for fn in app.functions for step in walk_steps(fn.body)
             if step.kind in ("call", "publish")]
    assert edges, "factory must have inter-function edges"
    assert all(kind == "publish" for _, kind, _ in edges)
    assert ("orderSupplies", "publish", "orderPanel") in edges
    assert ("orderSupplies", "publish", "orderCushion") in edges


def test_walk_steps_descends_into_every_branch():
    inner = parallel((call("c"),), (publish("d"),))
    body = (compute(MS1), parallel((call("a"), inner), (publish("b"),)), returns())
    assert [(s.kind, s.target) for s in walk_steps(body)] == [
        ("compute", None), ("parallelBlock", None), ("call", "a"), ("parallelBlock", None), ("call", "c"),
        ("publish", "d"), ("publish", "b"), ("return", None)]


@st.composite
def random_graphs(draw):
    """(application, networkx graph of its call and publish edges, entry
    names): 1-6 functions of either trigger kind, any edges, self-edges
    included, each placed at the top of a body or in a parallel branch, and
    any set of http-sync entry points, the empty one included."""
    n = draw(st.integers(1, 6))
    names = [f"f{i}" for i in range(n)]
    kinds = [draw(st.sampled_from((HTTP_SYNC, EVENT_ASYNC))) for _ in names]
    entries = {name for name, kind in zip(names, kinds) if kind == HTTP_SYNC and draw(st.booleans())}
    graph = nx.DiGraph()
    graph.add_nodes_from(names)
    functions = []
    for name, kind in zip(names, kinds):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=4))
        steps = [call(names[t]) if kinds[t] == HTTP_SYNC else publish(names[t]) for t in targets]
        graph.add_edges_from((name, names[t]) for t in targets)
        if len(steps) >= 2 and draw(st.booleans()):
            steps = [steps[0], parallel(tuple(steps[1:]), (compute(MS1),))]
        functions.append(FunctionSpec(name, kind, tuple(steps), entry_point=name in entries))
    return ApplicationSpec("random", tuple(functions)), graph, entries


@given(random_graphs())
def test_validate_reachability_and_cycles_match_networkx(case):
    # independent oracle: networkx over the same call and publish edges
    app, graph, entries = case
    violations = validate(app).violations
    reachable = set(entries).union(*(nx.descendants(graph, e) for e in entries))
    assert {v.function for v in violations if v.code == "Unreachable"} == set(graph) - reachable
    assert any(v.code == "Cycle" for v in violations) == (not nx.is_directed_acyclic_graph(graph))


def test_duplicate_name_violation():
    fn = FunctionSpec("frontend", HTTP_SYNC, (compute(MS1),), entry_point=True)
    app = ApplicationSpec("dup", (fn, fn))
    report = validate(app)
    assert not report.ok
    assert "DuplicateName" in {v.code for v in report.violations}
    assert any(v.function == "frontend" for v in report.violations)


def test_unknown_target_violation():
    fn = FunctionSpec("a", HTTP_SYNC, (call("cartX"),), entry_point=True)
    report = validate(ApplicationSpec("bad", (fn,)))
    assert "UnknownTarget" in {v.code for v in report.violations}
    assert any(v.function == "a" and "cartX" in v.detail for v in report.violations)


def test_trigger_kind_targeting_rules():
    a = FunctionSpec("a", HTTP_SYNC, (call("ev"), publish("web")), entry_point=True)
    ev = FunctionSpec("ev", EVENT_ASYNC, (compute(MS1),))
    web = FunctionSpec("web", HTTP_SYNC, (compute(MS1),))
    report = validate(ApplicationSpec("bad", (a, ev, web)))
    assert "CallToAsync" in {v.code for v in report.violations}
    assert "PublishToSync" in {v.code for v in report.violations}


def test_a_compute_step_needs_a_duration():
    # to_dict would raise on it, after run_benchmark had started the run
    fn = FunctionSpec("a", HTTP_SYNC, (compute(5), parallel((compute(MS1),), (compute("constant(1)"),))),
                      entry_point=True)
    assert [str(v) for v in validate(ApplicationSpec("bad", (fn,))).violations] == [
        "BadDuration [a]: compute duration must be a Duration, got 5",
        "BadDuration [a]: compute duration must be a Duration, got 'constant(1)'",
    ]


def test_parallel_block_needs_two_branches():
    fn = FunctionSpec("a", HTTP_SYNC, (parallel((compute(MS1),)),), entry_point=True)
    assert "BadParallelBlock" in {v.code for v in validate(ApplicationSpec("bad", (fn,))).violations}


def test_return_must_be_last():
    fn = FunctionSpec("a", HTTP_SYNC, (returns(), compute(MS1)), entry_point=True)
    assert "ReturnNotLast" in {v.code for v in validate(ApplicationSpec("bad", (fn,))).violations}
    # within a parallel branch too: the simulator runs every step of a branch
    branchy = parallel((returns(), compute(MS1)), (compute(MS1), returns()))
    fn = FunctionSpec("a", HTTP_SYNC, (branchy,), entry_point=True)
    assert [v.detail for v in validate(ApplicationSpec("bad", (fn,))).violations] == [
        "return must be the final step of its branch"]


def test_entry_point_and_reachability_rules():
    lonely = FunctionSpec("lonely", HTTP_SYNC, (compute(MS1),))
    entry = FunctionSpec("entry", HTTP_SYNC, (compute(MS1),), entry_point=True)
    report = validate(ApplicationSpec("no-entry", (lonely,)))
    assert "NoEntryPoint" in {v.code for v in report.violations}
    report = validate(ApplicationSpec("unreachable", (entry, lonely)))
    assert "Unreachable" in {v.code for v in report.violations}


def test_db_step_requires_declared_service():
    fn = FunctionSpec("a", HTTP_SYNC, (db_get("k"),), entry_point=True)
    assert "NoServiceDeclared" in {v.code for v in validate(ApplicationSpec("bad", (fn,))).violations}
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


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_serialization_round_trip(name):
    app = load_builtin(name)
    assert ApplicationSpec.from_json(app.to_json()) == app


def test_violations_are_data_not_errors():
    fn = FunctionSpec("a", HTTP_SYNC, (call("missing"),), entry_point=True)
    report = validate(ApplicationSpec("bad", (fn,)))  # must not raise
    assert not report.ok and report.violations
