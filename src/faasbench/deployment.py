"""Deployment compilation: resolve functions to platforms, and install them.

Compilation turns a declarative application plus a deployment configuration
into the resolved functions of each platform: every call and publish target
is resolved to the id of the platform that hosts it, and a publisher function
named ``__publisher_<platform id>`` is synthesized for each platform hosting
at least one event-async function (events are delivered to that publisher,
which forwards them into the platform's trigger pipeline; ``validate`` keeps
the prefix out of application function names). Every network leg the
application can take is bound too, as the sending side's ``networkLatency``
entry for the receiving side (both legs of a load-generator request use the
entry point's platform's ``loadgen`` entry), so a config that lacks one fails
before any run starts. A store step's leg is the calling platform's entry for
the service: those entries are all a config says of where the store is. The
plan holds each platform's functions and the load generator's route to each
entry point, all that a run reads. ``deploy_all`` installs the functions on
the simulated platforms and ``teardown`` removes them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .applications import EVENT_ASYNC, PUBLISHER_PREFIX, ApplicationSpec, FunctionSpec, walk_steps
from .distributions import MAX_PROFILE_US, PROFILE_LIMIT, Duration, constant, read, read_document
from .records import LOADGEN, is_log_name

# a platform's logged clock may be off by at most one day either way; real skew
# between providers is milliseconds, so a larger offset is a config mistake
MAX_CLOCK_OFFSET_MS = 86_400_000


class DeploymentError(Exception):
    pass


def _check_platform_id(platform_id) -> None:
    """Raise DeploymentError unless the id can fill the platform column of a
    log line and the whitespace-separated ``#dropped <id> <count>`` line."""
    if not (is_log_name(platform_id) and platform_id.split() == [platform_id]):
        raise DeploymentError(f"platform id {platform_id!r} must be a non-empty UTF-8 encodable string "
                              "other than '-', with no whitespace")
    if platform_id == LOADGEN:
        raise DeploymentError(f"platform id {LOADGEN!r} is reserved for the load generator")


def _keep_alive_error(where: str, seconds: float) -> str:
    return f"{where}keepAliveSeconds must be below {PROFILE_LIMIT}, got {seconds:g}"


def _clock_offset_error(where: str, ms: float) -> str:
    return f"{where}clockOffsetMs must be within +-{MAX_CLOCK_OFFSET_MS} ms, got {ms:g}"


@dataclass(frozen=True)
class PlatformSpec:
    """Parameters of one simulated FaaS platform."""

    id: str
    cold_start_delay: Duration = constant(400)
    keep_alive_us: int = 300_000_000
    network_latency: dict[str, Duration] = field(default_factory=dict)
    trigger_delay: Duration = constant(100)
    log_lines_per_second: int | None = None
    clock_offset_us: int = 0

    def __post_init__(self) -> None:
        _check_platform_id(self.id)
        # what from_dict reads back: whole microseconds, distributions, and string peers
        for name in ("keep_alive_us", "clock_offset_us"):
            value = getattr(self, name)
            if type(value) is not int:
                raise DeploymentError(f"platform {self.id}: {name} must be an int, got {value!r}")
        for name in ("cold_start_delay", "trigger_delay"):
            value = getattr(self, name)
            if not isinstance(value, Duration):
                raise DeploymentError(f"platform {self.id}: {name} must be a Duration, got {value!r}")
        for peer, leg in self.network_latency.items():
            if type(peer) is not str:
                raise DeploymentError(f"platform {self.id}: networkLatency key {peer!r} must be a string")
            if not isinstance(leg, Duration):
                raise DeploymentError(f"platform {self.id}: networkLatency.{peer} must be a Duration, got {leg!r}")
        if self.keep_alive_us <= 0:
            raise DeploymentError(f"platform {self.id}: keepAliveSeconds must round to at least 1 us")
        # past these bounds, the value to_dict writes would not read back as the same microsecond
        if self.keep_alive_us >= MAX_PROFILE_US:
            raise DeploymentError(_keep_alive_error(f"platform {self.id}: ", self.keep_alive_us / 1_000_000))
        if abs(self.clock_offset_us) > MAX_CLOCK_OFFSET_MS * 1000:
            raise DeploymentError(_clock_offset_error(f"platform {self.id}: ", self.clock_offset_us / 1000))
        rate = self.log_lines_per_second
        if rate is not None and (isinstance(rate, bool) or not isinstance(rate, int) or rate < 1):
            raise DeploymentError(f"platform {self.id}: logLinesPerSecond must be an integer >= 1 or null, got {rate}")

    def leg(self, peer: str) -> Duration:
        try:
            return self.network_latency[peer]
        except KeyError:
            raise DeploymentError(f"platform {self.id}: no networkLatency entry for {peer!r}") from None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "coldStartDelay": self.cold_start_delay.spec(),
            "keepAliveSeconds": self.keep_alive_us / 1_000_000,
            "networkLatency": {peer: d.spec() for peer, d in self.network_latency.items()},
            "triggerDelay": self.trigger_delay.spec(),
            "logLinesPerSecond": self.log_lines_per_second,
            "clockOffsetMs": self.clock_offset_us / 1000,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlatformSpec":
        platform_id = read(d, "id", str, DeploymentError)
        _check_platform_id(platform_id)  # before the errors that name the platform by its id
        where = f"platform {platform_id}: "
        legs = read(d, "networkLatency", dict, DeploymentError, {}, where)
        # both bounds are checked before the conversion to us, which past them need not be finite
        keep_alive_s = read(d, "keepAliveSeconds", float, DeploymentError, cls.keep_alive_us / 1_000_000, where)
        if keep_alive_s * 1_000_000 >= MAX_PROFILE_US:
            raise DeploymentError(_keep_alive_error(where, keep_alive_s))
        offset_ms = read(d, "clockOffsetMs", float, DeploymentError, cls.clock_offset_us / 1000, where)
        if abs(offset_ms) > MAX_CLOCK_OFFSET_MS:
            raise DeploymentError(_clock_offset_error(where, offset_ms))
        return cls(
            id=platform_id,
            cold_start_delay=read(d, "coldStartDelay", Duration, DeploymentError, cls.cold_start_delay, where),
            keep_alive_us=int(round(keep_alive_s * 1_000_000)),
            network_latency={
                peer: read(legs, peer, Duration, DeploymentError, where=f"{where}networkLatency.") for peer in legs
            },
            trigger_delay=read(d, "triggerDelay", Duration, DeploymentError, cls.trigger_delay, where),
            # null or an integer; __post_init__ checks it with its own message
            log_lines_per_second=d.get("logLinesPerSecond"),
            clock_offset_us=int(round(offset_ms * 1000)),
        )


@dataclass(frozen=True)
class DeploymentConfig:
    platforms: tuple[PlatformSpec, ...]
    assignment: dict[str, str]

    def __post_init__(self) -> None:
        # every later lookup is by id, so a second entry would silently replace the first
        seen: set[str] = set()
        for p in self.platforms:
            if p.id in seen:
                raise DeploymentError(f"platform id {p.id!r} is listed twice")
            seen.add(p.id)
        # what from_dict reads: string keys, each mapped to a listed platform's id
        for name, pid in self.assignment.items():
            if type(name) is not str:
                raise DeploymentError(f"assignment key {name!r} must be a string")
            if type(pid) is not str or pid not in seen:
                raise DeploymentError(f"platform {pid!r} is not defined")

    @property
    def platform_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.platforms)

    def to_dict(self) -> dict:
        return {
            "platforms": [p.to_dict() for p in self.platforms],
            "assignment": dict(self.assignment),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DeploymentConfig":
        assignment = read(d, "assignment", dict, DeploymentError, {})
        return cls(
            platforms=tuple(PlatformSpec.from_dict(p) for p in read(d, "platforms", [dict], DeploymentError, [])),
            assignment={fn: read(assignment, fn, str, DeploymentError, where="assignment.") for fn in assignment},
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentConfig":
        return cls.from_dict(read_document(text, DeploymentError))

    @classmethod
    def load(cls, path: str | Path) -> "DeploymentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# (callee's platform id, outbound leg, return leg)
CallRoute = tuple[str, Duration, Duration]


@dataclass(frozen=True)
class ResolvedFunction:
    """A function as deployed: each call target maps to a CallRoute, each
    publish target to (its platform id, delivery leg) and, for a function
    with store steps, ``store`` is (service, store leg). A publish goes to the
    target platform's publisher, which triggers the target on that platform."""

    spec: FunctionSpec
    call_routes: dict[str, CallRoute]
    publish_routes: dict[str, tuple[str, Duration]]
    store: tuple[str, Duration] | None

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass(frozen=True)
class DeploymentPlan:
    # platform id -> its functions, publisher included, in the config's
    # platform order; a platform that hosts nothing is left out
    functions: dict[str, tuple[ResolvedFunction, ...]]
    entry_routes: dict[str, CallRoute]  # entry point -> the load generator's route to it


def publisher_name(platform_id: str) -> str:
    return f"{PUBLISHER_PREFIX}{platform_id}"


def compile(app: ApplicationSpec, cfg: DeploymentConfig) -> DeploymentPlan:  # noqa: A001 - domain term
    """Resolve every function to a platform and bake the routes, with their
    network legs, into each platform's functions.

    Expects an application that has passed ``validate``. Pure: identical
    inputs produce structurally identical plans. A leg with no
    ``networkLatency`` entry raises DeploymentError naming both ends, a store
    step's leg included (its calling platform's entry for the service), and
    so does an assignment key that names no function of the application.
    """
    specs = {p.id: p for p in cfg.platforms}
    names = {fn.name for fn in app.functions}
    for name in cfg.assignment:
        if name not in names:
            raise DeploymentError(f"assignment key {name!r} is not a function of the application")
    for fn in app.functions:
        if fn.name not in cfg.assignment:
            raise DeploymentError(f"function {fn.name!r} has no platform assignment")

    def resolve(fn: FunctionSpec) -> ResolvedFunction:
        here = specs[cfg.assignment[fn.name]]
        calls: dict[str, CallRoute] = {}
        publishes: dict[str, tuple[str, Duration]] = {}
        store = None
        for step in walk_steps(fn.body):
            if step.kind == "call":
                there = specs[cfg.assignment[step.target]]
                calls[step.target] = (there.id, here.leg(there.id), there.leg(here.id))
            elif step.kind == "publish":
                pid = cfg.assignment[step.target]
                publishes[step.target] = (pid, here.leg(pid))
            elif step.kind in ("dbGet", "dbSet"):
                # validate() guarantees a declared service; the first one serves
                service = app.external_services[0]
                store = (service, here.leg(service))
        return ResolvedFunction(fn, calls, publishes, store)

    entry_routes: dict[str, CallRoute] = {}
    for fn in app.entry_points():
        there = specs[cfg.assignment[fn.name]]
        leg = there.leg(LOADGEN)
        entry_routes[fn.name] = (there.id, leg, leg)

    functions = {}
    for pid in cfg.platform_ids:
        fns = [resolve(fn) for fn in app.functions if cfg.assignment[fn.name] == pid]
        if any(rfn.spec.trigger_kind == EVENT_ASYNC for rfn in fns):
            pub_spec = FunctionSpec(name=publisher_name(pid), trigger_kind=EVENT_ASYNC, body=())
            fns.append(ResolvedFunction(pub_spec, {}, {}, None))
        if fns:
            functions[pid] = tuple(fns)

    return DeploymentPlan(functions=functions, entry_routes=entry_routes)


def deploy_all(plan: DeploymentPlan, platforms: dict) -> None:
    """Install each platform's functions on ``platforms[id]``, a simulated
    platform; deploying draws no randomness."""
    for pid, fns in plan.functions.items():
        platforms[pid].functions.update((rfn.name, rfn) for rfn in fns)


def teardown(platforms: dict) -> None:
    """Remove every function and idle executor from each platform."""
    for platform in platforms.values():
        platform.functions.clear()
        platform.idle.clear()
