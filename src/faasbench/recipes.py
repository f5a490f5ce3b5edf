"""Prebuilt experiment recipes: (deployment config, load profile) pairs.

Latency constants are illustrative defaults chosen inside realistic ranges
(cross-provider publish legs a few tens of ms, trigger pipelines 100-400 ms,
glue-code compute ~1 ms); they parameterize the simulator, they are not
measured truth. A recipe is a fixed setup and takes no parameters; a variant
is a ``dataclasses.replace`` of its platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .benchmarks import builtin_profile, load_builtin
from .deployment import DeploymentConfig, PlatformSpec, default_config
from .distributions import constant
from .workload import LoadProfile

KEYSTORE = "keystore"

# smart-city functions that actuate the traffic light live at the edge
EDGE_FUNCTIONS = ("calculateLightPhase", "setLightPhase", "emergencyDetection")


class UnknownRecipe(KeyError):
    pass


@dataclass(frozen=True)
class Recipe:
    name: str
    benchmark: str
    config: DeploymentConfig
    profile: LoadProfile


def _assign_all(app_name: str, platform_id: str) -> dict[str, str]:
    app = load_builtin(app_name)
    return {fn.name: platform_id for fn in app.functions}


def exp1_single_cloud() -> Recipe:
    """Web shop and its store on one cloud platform: the default config."""
    return Recipe("exp1-single-cloud", "webshop", default_config(load_builtin("webshop")), builtin_profile("webshop"))


def _exp2_platforms() -> tuple[PlatformSpec, PlatformSpec]:
    edge = PlatformSpec(
        id="edge-1",
        cold_start_delay=constant(0),
        network_latency={
            "edge-1": constant(1),
            "cloud-a": constant(40),
            "loadgen": constant(1),  # sensors sit at the edge site
            KEYSTORE: constant(40),  # store is cloud-hosted
        },
        trigger_delay=constant(10),
    )
    cloud = PlatformSpec(
        id="cloud-a",
        cold_start_delay=constant(0),
        network_latency={
            "cloud-a": constant(3),
            "edge-1": constant(40),
            "loadgen": constant(40),
            KEYSTORE: constant(3),
        },
    )
    return edge, cloud


def exp2_edge_cloud() -> Recipe:
    """Smart city split: traffic-light functions at the edge, rest in cloud."""
    edge, cloud = _exp2_platforms()
    app = load_builtin("smartcity")
    assignment = {
        fn.name: ("edge-1" if fn.name in EDGE_FUNCTIONS else "cloud-a") for fn in app.functions
    }
    cfg = DeploymentConfig(platforms=(edge, cloud), assignment=assignment)
    return Recipe("exp2-edge-cloud", "smartcity", cfg, builtin_profile("smartcity"))


def exp2_edge_only() -> Recipe:
    """Smart city entirely at the edge; only the store stays in the cloud."""
    edge, cloud = _exp2_platforms()
    cfg = DeploymentConfig(platforms=(edge, cloud), assignment=_assign_all("smartcity", "edge-1"))
    return Recipe("exp2-edge-only", "smartcity", cfg, builtin_profile("smartcity"))


_EXP3_PARTS = {
    "couch": ("orderSupplies", "billing", "payment"),
    "panel": ("orderPanel", "producePanel"),
    "cushion": ("orderCushion", "produceCushion"),
}

_EXP3_CROSS = {
    ("couch", "panel"): 25,
    ("couch", "cushion"): 30,
    ("panel", "couch"): 35,
    ("panel", "cushion"): 40,
    ("cushion", "couch"): 45,
    ("cushion", "panel"): 50,
}

_EXP3_TRIGGER = {"couch": 100, "panel": 250, "cushion": 400}


def exp3_three_way_factory() -> Recipe:
    """Smart factory split over three providers (couch / panel / cushion).

    Every platform pair gets a distinct constant publish leg, and every
    destination a distinct trigger delay.
    """
    platforms = []
    for pid in _EXP3_PARTS:
        net = {pid: constant(2), "loadgen": constant(30), KEYSTORE: constant(3)}
        for other in _EXP3_PARTS:
            if other != pid:
                net[other] = constant(_EXP3_CROSS[(pid, other)])
        platforms.append(
            PlatformSpec(
                id=pid,
                cold_start_delay=constant(0),
                network_latency=net,
                trigger_delay=constant(_EXP3_TRIGGER[pid]),
            )
        )
    assignment = {fn: pid for pid, fns in _EXP3_PARTS.items() for fn in fns}
    cfg = DeploymentConfig(platforms=tuple(platforms), assignment=assignment)
    return Recipe("exp3-three-way-factory", "smartfactory", cfg, builtin_profile("smartfactory"))


def exp4_coldstart() -> Recipe:
    """Streaming service on one platform; the profile's pause outlives the
    keep-alive window so the final burst lands on an empty executor pool."""
    platform = PlatformSpec(
        id="cloud-a",
        keep_alive_us=60_000_000,
        network_latency={
            "cloud-a": constant(0),
            "loadgen": constant(5),
            KEYSTORE: constant(3),
        },
    )
    cfg = DeploymentConfig(platforms=(platform,), assignment=_assign_all("streaming", "cloud-a"))
    return Recipe("exp4-coldstart", "streaming", cfg, builtin_profile("streaming"))


_BUILDERS = {
    "exp1-single-cloud": exp1_single_cloud,
    "exp2-edge-cloud": exp2_edge_cloud,
    "exp2-edge-only": exp2_edge_only,
    "exp3-three-way-factory": exp3_three_way_factory,
    "exp4-coldstart": exp4_coldstart,
}
RECIPE_NAMES = tuple(_BUILDERS)


def recipe(name: str) -> Recipe:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownRecipe(name) from None
    return builder()
