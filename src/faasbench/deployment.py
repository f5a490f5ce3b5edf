"""Deployment compilation: resolve functions to platforms and emit artifacts.

Compilation turns a declarative application plus a deployment configuration
into one self-contained artifact per platform: every call/publish target and
every external-service reference is resolved to a concrete endpoint, and a
publisher function is synthesized for each platform hosting at least one
event-async function (events are delivered to that publisher, which forwards
them into the platform's trigger pipeline).
"""

from __future__ import annotations

import json
import math
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .applications import EVENT_ASYNC, ApplicationSpec, FunctionSpec, InvalidApplication, validate
from .distributions import Duration, constant, parse_duration

PUBLISHER_PREFIX = "__publisher_"
DEFAULT_TRACING_OVERHEAD_BYTES = 64


class DeploymentError(Exception):
    pass


class UnassignedFunction(DeploymentError):
    def __init__(self, name: str):
        super().__init__(f"function {name!r} has no platform assignment")
        self.function = name


class UnknownPlatform(DeploymentError):
    def __init__(self, platform_id: str):
        super().__init__(f"platform {platform_id!r} is not defined")
        self.platform_id = platform_id


class MissingServiceBinding(DeploymentError):
    def __init__(self, service: str):
        super().__init__(f"external service {service!r} has no binding")
        self.service = service


class AdapterFailure(DeploymentError):
    def __init__(self, platform_id: str, cause: str):
        super().__init__(f"adapter for {platform_id!r} failed: {cause}")
        self.platform_id = platform_id
        self.cause = cause


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
        if self.keep_alive_us <= 0:
            raise DeploymentError(f"platform {self.id}: keepAlive must be > 0")

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
        def finite(key: str, default: float) -> float:
            value = float(d.get(key, default))
            if not math.isfinite(value):
                raise DeploymentError(f"platform {d['id']}: {key} must be finite, got {value}")
            return value

        return cls(
            id=d["id"],
            cold_start_delay=parse_duration(d.get("coldStartDelay", "constant(400)")),
            keep_alive_us=int(round(finite("keepAliveSeconds", 300) * 1_000_000)),
            network_latency={peer: parse_duration(s) for peer, s in d.get("networkLatency", {}).items()},
            trigger_delay=parse_duration(d.get("triggerDelay", "constant(100)")),
            log_lines_per_second=d.get("logLinesPerSecond"),
            clock_offset_us=int(round(finite("clockOffsetMs", 0) * 1000)),
        )


@dataclass(frozen=True)
class ServiceBinding:
    platform_id: str
    latency_class: str = "default"


@dataclass(frozen=True)
class DeploymentConfig:
    platforms: tuple[PlatformSpec, ...]
    assignment: dict[str, str]
    service_bindings: dict[str, ServiceBinding] = field(default_factory=dict)
    tracing_overhead_bytes: int = DEFAULT_TRACING_OVERHEAD_BYTES

    def __post_init__(self) -> None:
        if self.tracing_overhead_bytes < 0:
            raise DeploymentError(f"tracingOverheadBytes must be >= 0, got {self.tracing_overhead_bytes}")

    def platform(self, platform_id: str) -> PlatformSpec:
        for p in self.platforms:
            if p.id == platform_id:
                return p
        raise UnknownPlatform(platform_id)

    @property
    def platform_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.platforms)

    def to_dict(self) -> dict:
        return {
            "platforms": [p.to_dict() for p in self.platforms],
            "assignment": dict(self.assignment),
            "serviceBindings": {
                svc: {"platform": b.platform_id, "latencyClass": b.latency_class}
                for svc, b in self.service_bindings.items()
            },
            "tracingOverheadBytes": self.tracing_overhead_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DeploymentConfig":
        return cls(
            platforms=tuple(PlatformSpec.from_dict(p) for p in d.get("platforms", [])),
            assignment=dict(d.get("assignment", {})),
            service_bindings={
                svc: ServiceBinding(b["platform"], b.get("latencyClass", "default"))
                for svc, b in d.get("serviceBindings", {}).items()
            },
            tracing_overhead_bytes=int(d.get("tracingOverheadBytes", DEFAULT_TRACING_OVERHEAD_BYTES)),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "DeploymentConfig":
        return cls.from_json(Path(path).read_text())


@dataclass(frozen=True)
class Endpoint:
    platform_id: str
    endpoint_id: str


@dataclass(frozen=True)
class PublishRoute:
    """Resolved route for one publish step: deliver to the target platform's
    publisher endpoint; the publisher triggers the target function."""

    target: str
    publisher: Endpoint
    target_endpoint: Endpoint


@dataclass(frozen=True)
class ResolvedFunction:
    spec: FunctionSpec
    platform_id: str
    call_routes: dict[str, Endpoint]
    publish_routes: dict[str, PublishRoute]
    service_routes: dict[str, ServiceBinding]

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass(frozen=True)
class DeploymentArtifact:
    platform_id: str
    functions: tuple[ResolvedFunction, ...]

    def function_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.functions)


@dataclass(frozen=True)
class DeploymentPlan:
    app_name: str
    artifacts: tuple[DeploymentArtifact, ...]
    endpoint_table: dict[str, Endpoint]
    publisher_table: dict[str, Endpoint]
    config: DeploymentConfig

    def artifact(self, platform_id: str) -> DeploymentArtifact:
        for a in self.artifacts:
            if a.platform_id == platform_id:
                return a
        raise UnknownPlatform(platform_id)


class PlatformAdapter(Protocol):
    """Minimal platform interface: deploy, fetch standard logs, remove."""

    def deploy(self, artifact: DeploymentArtifact) -> None: ...

    def collect_logs(self, run_id: str) -> list[str]: ...

    def remove(self, artifact: DeploymentArtifact) -> None: ...


def publisher_name(platform_id: str) -> str:
    return f"{PUBLISHER_PREFIX}{platform_id}"


def compile(app: ApplicationSpec, cfg: DeploymentConfig) -> DeploymentPlan:  # noqa: A001 - domain term
    """Resolve every function to a platform and bake endpoints into artifacts.

    Pure: identical inputs produce structurally identical plans.
    """
    report = validate(app)
    if not report.ok:
        raise InvalidApplication("; ".join(str(v) for v in report.violations))

    known = set(cfg.platform_ids)
    for fn in app.functions:
        pid = cfg.assignment.get(fn.name)
        if pid is None:
            raise UnassignedFunction(fn.name)
        if pid not in known:
            raise UnknownPlatform(pid)
        if fn.name.startswith(PUBLISHER_PREFIX):
            raise InvalidApplication(f"function name {fn.name!r} collides with reserved publisher prefix")
    for svc in app.external_services:
        binding = cfg.service_bindings.get(svc)
        if binding is None:
            raise MissingServiceBinding(svc)
        if binding.platform_id not in known:
            raise UnknownPlatform(binding.platform_id)

    endpoint_table = {
        fn.name: Endpoint(cfg.assignment[fn.name], f"ep/{cfg.assignment[fn.name]}/{fn.name}")
        for fn in app.functions
    }
    async_platforms = sorted(
        {cfg.assignment[fn.name] for fn in app.functions if fn.trigger_kind == EVENT_ASYNC}
    )
    publisher_table = {
        pid: Endpoint(pid, f"ep/{pid}/{publisher_name(pid)}") for pid in async_platforms
    }

    def resolve(fn: FunctionSpec, pid: str) -> ResolvedFunction:
        calls: dict[str, Endpoint] = {}
        publishes: dict[str, PublishRoute] = {}
        stack = list(fn.body)
        while stack:
            step = stack.pop()
            if step.kind == "call":
                calls[step.target] = endpoint_table[step.target]
            elif step.kind == "publish":
                target_pid = cfg.assignment[step.target]
                publishes[step.target] = PublishRoute(
                    target=step.target,
                    publisher=publisher_table[target_pid],
                    target_endpoint=endpoint_table[step.target],
                )
            elif step.kind == "parallelBlock":
                for branch in step.branches:
                    stack.extend(branch)
        services = {svc: cfg.service_bindings[svc] for svc in app.external_services}
        return ResolvedFunction(fn, pid, calls, publishes, services)

    artifacts = []
    for pid in cfg.platform_ids:
        fns = [resolve(fn, pid) for fn in app.functions if cfg.assignment[fn.name] == pid]
        if pid in publisher_table:
            pub_spec = FunctionSpec(name=publisher_name(pid), trigger_kind=EVENT_ASYNC, body=())
            fns.append(ResolvedFunction(pub_spec, pid, {}, {}, {}))
        if fns:
            artifacts.append(DeploymentArtifact(platform_id=pid, functions=tuple(fns)))

    return DeploymentPlan(
        app_name=app.name,
        artifacts=tuple(artifacts),
        endpoint_table=endpoint_table,
        publisher_table=publisher_table,
        config=cfg,
    )


@dataclass
class RunHandle:
    run_id: str
    plan: DeploymentPlan
    deployed: tuple[str, ...]
    closed: bool = False


@dataclass(frozen=True)
class TeardownReport:
    outcomes: dict[str, str]  # platform id -> removed | failed: <cause> | skipped

    @property
    def ok(self) -> bool:
        return all(v in ("removed", "skipped") for v in self.outcomes.values())


def deploy_all(
    plan: DeploymentPlan,
    adapters: dict[str, PlatformAdapter],
    ids=None,
    run_id: str | None = None,
) -> RunHandle:
    """Deploy every artifact; partial failures are rolled back via remove().

    A fresh run id is drawn from ``ids`` (an IdSource, deterministic) unless
    one is passed explicitly; with neither, a random id comes from the OS.
    """
    if run_id is None:
        run_id = ids.new_run_id() if ids is not None else "r" + secrets.token_hex(6)
    deployed: list[DeploymentArtifact] = []
    for artifact in plan.artifacts:
        adapter = adapters.get(artifact.platform_id)
        if adapter is None:
            _rollback(deployed, adapters)
            raise AdapterFailure(artifact.platform_id, "no adapter registered")
        try:
            adapter.deploy(artifact)
        except Exception as exc:
            _rollback(deployed, adapters)
            raise AdapterFailure(artifact.platform_id, str(exc)) from exc
        deployed.append(artifact)
    return RunHandle(run_id=run_id, plan=plan, deployed=tuple(a.platform_id for a in deployed))


def _rollback(deployed: list[DeploymentArtifact], adapters: dict[str, PlatformAdapter]) -> None:
    for artifact in reversed(deployed):
        try:
            adapters[artifact.platform_id].remove(artifact)
        except Exception:
            pass  # rollback is best effort


def teardown(handle: RunHandle, adapters: dict[str, PlatformAdapter]) -> TeardownReport:
    """Remove all deployed artifacts; calling twice is a no-op report."""
    outcomes: dict[str, str] = {}
    for pid in handle.deployed:
        if handle.closed:
            outcomes[pid] = "skipped"
            continue
        try:
            adapters[pid].remove(handle.plan.artifact(pid))
            outcomes[pid] = "removed"
        except Exception as exc:
            outcomes[pid] = f"failed: {exc}"
    handle.closed = True
    return TeardownReport(outcomes)
