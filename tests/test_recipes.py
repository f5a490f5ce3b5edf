import pytest

from faasbench.applications import PUBLISHER_PREFIX
from faasbench.benchmarks import load_builtin
from faasbench.deployment import compile as compile_deployment
from faasbench.distributions import constant
from faasbench.recipes import (
    EDGE_FUNCTIONS,
    RECIPE_NAMES,
    UnknownRecipe,
    exp2_edge_cloud,
    exp2_edge_only,
    exp3_three_way_factory,
    exp4_coldstart,
    recipe,
)
from faasbench.runner import default_config

# the store is in the cloud: one leg away from cloud-a, across the WAN from the edge
CLOUD_STORE = {"edge-1": constant(40), "cloud-a": constant(3)}


def keystore_legs(r) -> dict:
    """Each platform's leg to the store, which is all a config says of where it is."""
    return {p.id: p.leg("keystore") for p in r.config.platforms}


@pytest.mark.parametrize("name", RECIPE_NAMES)
def test_every_recipe_compiles(name):
    r = recipe(name)
    app = load_builtin(r.benchmark)
    plan = compile_deployment(app, r.config)
    deployed = [rfn.name for fns in plan.functions.values() for rfn in fns]
    assert sorted(n for n in deployed if not n.startswith(PUBLISHER_PREFIX)) == sorted(fn.name for fn in app.functions)


def test_unknown_recipe():
    with pytest.raises(UnknownRecipe):
        recipe("exp9-nothing")


def test_exp1_is_the_default_config_of_webshop():
    assert recipe("exp1-single-cloud").config == default_config(load_builtin("webshop"))


def test_exp1_places_everything_on_one_platform():
    r = recipe("exp1-single-cloud")
    assert set(r.config.assignment.values()) == {"cloud-a"}
    assert keystore_legs(r) == {"cloud-a": constant(3)}


def test_exp2_split_puts_light_functions_at_the_edge():
    r = exp2_edge_cloud()
    for fn, pid in r.config.assignment.items():
        expected = "edge-1" if fn in EDGE_FUNCTIONS else "cloud-a"
        assert pid == expected, fn
    assert keystore_legs(r) == CLOUD_STORE


def test_exp2_edge_only_keeps_cloud_database():
    r = exp2_edge_only()
    assert set(r.config.assignment.values()) == {"edge-1"}
    assert keystore_legs(r) == CLOUD_STORE


def test_exp3_parts_mapping():
    r = exp3_three_way_factory()
    assignment = r.config.assignment
    assert {assignment[f] for f in ("orderSupplies", "billing", "payment")} == {"couch"}
    assert {assignment[f] for f in ("orderPanel", "producePanel")} == {"panel"}
    assert {assignment[f] for f in ("orderCushion", "produceCushion")} == {"cushion"}


def test_exp4_pause_outlives_keep_alive():
    r = exp4_coldstart()
    keep_alive = r.config.platforms[0].keep_alive_us
    pause = next(p for p in r.profile.scaled(0.1).phases if p.kind == "pause")
    assert pause.duration_us > keep_alive
