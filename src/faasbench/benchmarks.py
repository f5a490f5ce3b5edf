"""Built-in benchmark applications and their default load profiles.

Four applications ship with the harness:

* ``webshop`` — request/response microservice shop: 17 functions behind a
  single frontend entry, keyed store for session/cart/order state. One
  frontend request walks the whole customer journey (login, browse fan-out,
  search, product, currency, cart, checkout chain).
* ``smartcity`` — smart traffic light: 9 functions, three sensor entry
  points plus an emergency override entry, mixed sync calls and one async
  event (the light-phase actuator), suited to edge/cloud splits.
* ``smartfactory`` — event-driven order pipeline: 7 functions, every
  inter-function edge is a published event (order fan-out, production,
  billing, payment).
* ``streaming`` — flat scale-out service: 7 independently callable device
  functions with identical body cost, driven by a registration/normal/
  pause/burst profile that provokes cold starts.

Compute delays are scripted constants (glue code is ~1 ms; the smart-city
object recognition stands in for image work at 50 ms).
"""

from __future__ import annotations

from .applications import (
    ApplicationSpec,
    EVENT_ASYNC,
    FunctionSpec,
    HTTP_SYNC,
    UnknownBenchmark,
    call,
    compute,
    db_get,
    db_set,
    parallel,
    publish,
    returns,
)
from .distributions import constant
from .workload import LoadProfile, PeriodicSeries, Phase, US, Workflow, WorkflowStep

MS1 = constant(1)


def _sync(name: str, *body, entry: bool = False) -> FunctionSpec:
    return FunctionSpec(name=name, trigger_kind=HTTP_SYNC, body=tuple(body), entry_point=entry)


def _async(name: str, *body) -> FunctionSpec:
    return FunctionSpec(name=name, trigger_kind=EVENT_ASYNC, body=tuple(body))


def _webshop() -> ApplicationSpec:
    frontend = _sync(
        "frontend",
        compute(MS1),
        call("login"),
        parallel(
            (call("listProducts"),),
            (call("getAds"),),
            (call("listRecommendations"),),
        ),
        call("searchProducts"),
        call("getProduct"),
        call("supportedCurrencies"),
        call("convert"),
        call("addCartItem"),
        call("getCart"),
        compute(MS1),
        call("checkout"),
        call("emptyCart"),
        returns(),
        entry=True,
    )
    functions = (
        frontend,
        _sync("login", compute(MS1), db_get("session")),
        _sync("listProducts", compute(MS1), db_get("catalog")),
        _sync("getProduct", compute(MS1), db_get("product")),
        _sync("searchProducts", compute(MS1), db_get("catalog")),
        _sync("supportedCurrencies", compute(MS1)),
        _sync("convert", compute(MS1)),
        _sync("getCart", compute(MS1), db_get("cart")),
        _sync("addCartItem", compute(MS1), db_get("cart"), db_set("cart")),
        _sync("emptyCart", compute(MS1), db_set("cart")),
        _sync("getAds", compute(MS1)),
        # reads the precomputed catalog directly: keeps every webshop function
        # invoked at most once per context, so same-named invocations of one
        # chain never overlap and call trees reconstruct unambiguously
        _sync("listRecommendations", compute(MS1), db_get("catalog")),
        _sync("checkout", compute(MS1), call("shipmentQuote"), call("payment"), call("shipOrder"), call("email")),
        _sync("payment", compute(MS1), db_set("transaction")),
        _sync("shipmentQuote", compute(MS1)),
        _sync("shipOrder", compute(MS1), db_set("shipment")),
        _sync("email", compute(MS1)),
    )
    return ApplicationSpec(
        name="webshop",
        functions=functions,
        external_services=("keystore",),
        metadata="microservice web shop; single frontend entry, keyed store for state",
    )


def _smartcity() -> ApplicationSpec:
    functions = (
        _sync("trafficSensorFilter", compute(MS1), call("movementPlan"), call("trafficStatistics"), entry=True),
        _sync("objectRecognition", compute(constant(50)), db_set("detections"), call("movementPlan"), entry=True),
        _sync("weatherSensorFilter", compute(MS1), call("roadCondition"), entry=True),
        _sync("emergencyDetection", compute(MS1), publish("setLightPhase"), entry=True),
        _sync("movementPlan", compute(MS1), db_get("plan"), db_set("plan"), call("calculateLightPhase")),
        _sync("trafficStatistics", compute(MS1), db_get("stats"), db_set("stats")),
        _sync("roadCondition", compute(MS1), db_get("road"), db_set("road"), call("calculateLightPhase")),
        _sync("calculateLightPhase", compute(MS1), db_get("road"), db_get("plan"), publish("setLightPhase")),
        _async("setLightPhase", compute(MS1), db_set("phase")),
    )
    return ApplicationSpec(
        name="smartcity",
        functions=functions,
        external_services=("keystore",),
        metadata="smart traffic light; sensor entries feed a light-phase pipeline with an async actuator",
    )


def _smartfactory() -> ApplicationSpec:
    functions = (
        _sync(
            "orderSupplies",
            compute(constant(2)),
            publish("orderPanel"),
            publish("orderPanel"),
            publish("orderCushion"),
            publish("orderCushion"),
            returns(),
            entry=True,
        ),
        _async("orderPanel", compute(MS1), publish("producePanel")),
        _async("orderCushion", compute(MS1), publish("produceCushion")),
        _async("producePanel", compute(constant(5)), publish("billing")),
        _async("produceCushion", compute(constant(5)), publish("billing")),
        _async("billing", compute(MS1), db_set("invoice"), publish("payment")),
        _async("payment", compute(MS1), db_set("payment")),
    )
    return ApplicationSpec(
        name="smartfactory",
        functions=functions,
        external_services=("keystore",),
        metadata="order-to-payment event pipeline; every inter-function edge is a published event",
    )


def _streaming() -> ApplicationSpec:
    # All bodies cost the same (6 ms compute + one keyed-store op), so the
    # cold/warm execution-duration gap equals the configured cold-start delay
    # regardless of which functions a burst bucket happens to hit.
    functions = (
        _sync("registerUser", compute(constant(6)), db_set("user"), entry=True),
        _sync("registerDevice", compute(constant(6)), db_set("device"), entry=True),
        _sync("authenticate", compute(constant(6)), db_get("token"), entry=True),
        _sync("addVideo", compute(constant(6)), db_set("video"), entry=True),
        _sync("requestVideo", compute(constant(6)), db_get("video"), entry=True),
        _sync("updateMetadata", compute(constant(6)), db_set("meta"), entry=True),
        _sync("getMetadata", compute(constant(6)), db_get("meta"), entry=True),
    )
    return ApplicationSpec(
        name="streaming",
        functions=functions,
        external_services=("keystore",),
        metadata="streaming device backend; independent device calls, burst profile provokes cold starts",
    )


def _webshop_profile() -> LoadProfile:
    workflows = (
        Workflow("browse", (WorkflowStep("frontend"),)),
        Workflow("browseAndCart", (WorkflowStep("frontend"),)),
        Workflow("cartAndCheckout", (WorkflowStep("frontend"),)),
        Workflow("currencyAndBrowse", (WorkflowStep("frontend"),)),
    )
    mix = tuple((wf.name, 0.25) for wf in workflows)
    return LoadProfile(
        name="webshop-default",
        workflows=workflows,
        phases=(Phase(kind="constantRate", duration_us=900 * US, rate_per_s=20.0, mix=mix),),
    )


def _smartcity_profile() -> LoadProfile:
    return LoadProfile(
        name="smartcity-default",
        workflows=(),
        phases=(
            Phase(
                kind="periodic",
                duration_us=900 * US,
                series=(
                    PeriodicSeries("trafficSensorFilter", interval_us=2 * US),
                    PeriodicSeries("objectRecognition", interval_us=2 * US),
                    PeriodicSeries("weatherSensorFilter", interval_us=20 * US),
                    PeriodicSeries("emergencyDetection", interval_us=120 * US, train_count=5, train_spacing_us=US),
                ),
            ),
        ),
    )


def _smartfactory_profile() -> LoadProfile:
    return LoadProfile(
        name="smartfactory-default",
        workflows=(),
        phases=(
            Phase(
                kind="periodic",
                duration_us=900 * US,
                series=(PeriodicSeries("orderSupplies", interval_us=5 * US),),
            ),
        ),
    )


def _streaming_profile() -> LoadProfile:
    workflows = (
        Workflow("registerUser", (WorkflowStep("registerUser"),)),
        Workflow("registerDevice", (WorkflowStep("registerDevice"),)),
        Workflow("authenticate", (WorkflowStep("authenticate"),)),
        Workflow("addVideo", (WorkflowStep("addVideo"),)),
        Workflow("requestVideo", (WorkflowStep("requestVideo"),)),
        Workflow("updateMetadata", (WorkflowStep("updateMetadata"),)),
        Workflow("getMetadata", (WorkflowStep("getMetadata"),)),
    )
    registration_mix = (("registerDevice", 0.5), ("registerUser", 0.5))
    device_mix = (
        ("addVideo", 0.15),
        ("authenticate", 0.1),
        ("getMetadata", 0.1),
        ("requestVideo", 0.4),
        ("updateMetadata", 0.25),
    )
    return LoadProfile(
        name="streaming-default",
        workflows=workflows,
        phases=(
            Phase(kind="burst", duration_us=50 * US, total_flows=50, mix=registration_mix),
            Phase(kind="burst", duration_us=300 * US, total_flows=500, mix=device_mix),
            Phase(kind="pause", duration_us=1200 * US),
            Phase(kind="burst", duration_us=300 * US, total_flows=1500, mix=device_mix),
        ),
    )


# name -> (application builder, default profile builder)
_BUILTINS = {
    "webshop": (_webshop, _webshop_profile),
    "smartcity": (_smartcity, _smartcity_profile),
    "smartfactory": (_smartfactory, _smartfactory_profile),
    "streaming": (_streaming, _streaming_profile),
}
BENCHMARK_NAMES = tuple(_BUILTINS)


def _builders(name: str):
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownBenchmark(name) from None


def load_builtin(name: str) -> ApplicationSpec:
    return _builders(name)[0]()


def builtin_profile(name: str) -> LoadProfile:
    return _builders(name)[1]()
