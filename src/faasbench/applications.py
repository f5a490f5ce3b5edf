"""Benchmark application model: functions with scripted bodies and call edges.

An application is a named set of functions. Each function has a trigger kind
(``http-sync`` functions are invoked by blocking calls, ``event-async``
functions only by published events) and a scripted body: an ordered list of
steps (compute delays, calls, publishes, keyed-store operations, parallel
fan-out blocks, return). Nothing is modeled by size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .distributions import Duration, read, read_document
from .records import LOADGEN, is_log_name

HTTP_SYNC = "http-sync"
EVENT_ASYNC = "event-async"

STEP_KINDS = ("compute", "call", "publish", "dbGet", "dbSet", "parallelBlock", "return")
NAME_RULE = "must be a non-empty UTF-8 encodable string other than '-', with no tab or line break"
# deployment names the publisher it adds to a platform with this prefix
PUBLISHER_PREFIX = "__publisher_"


class UnknownBenchmark(KeyError):
    """Requested built-in benchmark name does not exist."""


class InvalidApplication(ValueError):
    """Operation requires a valid application but validation failed."""


@dataclass(frozen=True)
class BodyStep:
    """One scripted step of a function body.

    Fields are kind-dependent: ``compute`` uses compute_time; ``call``/
    ``publish`` use target; db steps use key; ``parallelBlock`` holds branch
    step lists that run concurrently and join when all complete.
    """

    kind: str
    compute_time: Duration | None = None
    target: str | None = None
    key: str | None = None
    branches: tuple[tuple["BodyStep", ...], ...] = ()

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "compute":
            d["duration"] = self.compute_time.spec()
        elif self.kind in ("call", "publish"):
            d["target"] = self.target
        elif self.kind in ("dbGet", "dbSet"):
            d["key"] = self.key
        elif self.kind == "parallelBlock":
            d["branches"] = [[s.to_dict() for s in branch] for branch in self.branches]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BodyStep":
        kind = read(d, "kind", str, InvalidApplication)
        if kind == "compute":
            return compute(read(d, "duration", Duration, InvalidApplication))
        if kind in ("call", "publish"):
            return cls(kind, target=read(d, "target", str, InvalidApplication))
        if kind in ("dbGet", "dbSet"):
            return cls(kind, key=read(d, "key", str, InvalidApplication))
        if kind == "parallelBlock":
            branches = read(d, "branches", [[dict]], InvalidApplication)
            return parallel(*(_steps_from_dicts(branch, f"branch {b} step") for b, branch in enumerate(branches)))
        if kind == "return":
            return returns()
        raise InvalidApplication(f"unknown body step kind: {kind!r}")


def _steps_from_dicts(steps: list[dict], where: str) -> tuple[BodyStep, ...]:
    """Parse a step list; an error names the step as ``<where> <index> (<kind>)``."""
    body = []
    for i, d in enumerate(steps):
        try:
            body.append(BodyStep.from_dict(d))
        except InvalidApplication as exc:
            raise InvalidApplication(f"{where} {i} ({d.get('kind')}): {exc}") from None
    return tuple(body)


def compute(duration: Duration) -> BodyStep:
    return BodyStep("compute", compute_time=duration)


def call(target: str) -> BodyStep:
    return BodyStep("call", target=target)


def publish(target: str) -> BodyStep:
    return BodyStep("publish", target=target)


def db_get(key: str) -> BodyStep:
    return BodyStep("dbGet", key=key)


def db_set(key: str) -> BodyStep:
    return BodyStep("dbSet", key=key)


def parallel(*branches: tuple[BodyStep, ...]) -> BodyStep:
    return BodyStep("parallelBlock", branches=tuple(tuple(b) for b in branches))


def returns() -> BodyStep:
    return BodyStep("return")


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    trigger_kind: str
    body: tuple[BodyStep, ...]
    entry_point: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trigger": self.trigger_kind,
            "entryPoint": self.entry_point,
            "body": [s.to_dict() for s in self.body],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSpec":
        name = read(d, "name", str, InvalidApplication)
        where = f"function {name}: "
        return cls(
            name=name,
            trigger_kind=read(d, "trigger", str, InvalidApplication, HTTP_SYNC, where),
            body=_steps_from_dicts(read(d, "body", [dict], InvalidApplication, [], where), f"{where}body step"),
            entry_point=read(d, "entryPoint", bool, InvalidApplication, False, where),
        )


@dataclass(frozen=True)
class ApplicationSpec:
    name: str
    functions: tuple[FunctionSpec, ...]
    external_services: tuple[str, ...] = ()
    metadata: str = ""

    def entry_points(self) -> tuple[FunctionSpec, ...]:
        return tuple(fn for fn in self.functions if fn.entry_point)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "externalServices": list(self.external_services),
            "metadata": self.metadata,
            "functions": [fn.to_dict() for fn in self.functions],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ApplicationSpec":
        return cls(
            name=read(d, "name", str, InvalidApplication),
            functions=tuple(FunctionSpec.from_dict(f) for f in read(d, "functions", [dict], InvalidApplication, [])),
            external_services=tuple(read(d, "externalServices", [str], InvalidApplication, [])),
            metadata=read(d, "metadata", str, InvalidApplication, ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "ApplicationSpec":
        return cls.from_dict(read_document(text, InvalidApplication))

    @classmethod
    def load(cls, path: str | Path) -> "ApplicationSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Violation:
    code: str
    function: str | None
    detail: str

    def __str__(self) -> str:
        where = f" [{self.function}]" if self.function else ""
        return f"{self.code}{where}: {self.detail}"


def walk_steps(body: tuple[BodyStep, ...]) -> Iterator[BodyStep]:
    """Yield every step of a body, depth first: a parallel block, then the
    steps of each of its branches."""
    for step in body:
        yield step
        for branch in step.branches:
            yield from walk_steps(branch)


def validate(app: ApplicationSpec) -> tuple[Violation, ...]:
    """Check all application invariants; violations are data, not errors.
    Returns every violation found, none when the application is valid."""
    violations: list[Violation] = []
    # names are written into every log line; the violation quotes a bad one
    # rather than printing it, so the report stays one line per violation
    for svc in app.external_services:
        if not is_log_name(svc):
            violations.append(Violation("BadName", None, f"external service name {svc!r} {NAME_RULE}"))
        elif svc == LOADGEN:  # a platform's networkLatency entry for it is the load generator's leg
            violations.append(Violation("BadName", None, f"external service name {svc!r} is reserved for the "
                                                         "load generator"))
    seen: set[str] = set()
    for fn in app.functions:
        if not is_log_name(fn.name):
            violations.append(Violation("BadName", None, f"function name {fn.name!r} {NAME_RULE}"))
        elif fn.name.startswith(PUBLISHER_PREFIX):
            violations.append(Violation("BadName", None, f"function name {fn.name!r} starts with the reserved "
                                                         f"publisher prefix {PUBLISHER_PREFIX!r}"))
        if fn.name in seen:
            violations.append(Violation("DuplicateName", fn.name, "function name is not unique"))
        seen.add(fn.name)
        if fn.trigger_kind not in (HTTP_SYNC, EVENT_ASYNC):
            violations.append(Violation("BadTriggerKind", fn.name, f"unknown trigger kind {fn.trigger_kind!r}"))
        if fn.entry_point and fn.trigger_kind != HTTP_SYNC:
            violations.append(Violation("AsyncEntryPoint", fn.name, "entry points must be http-sync"))

    by_name = {fn.name: fn for fn in app.functions}

    for fn in app.functions:
        for step in walk_steps(fn.body):
            if step.kind not in STEP_KINDS:
                violations.append(Violation("UnknownStepKind", fn.name, f"step kind {step.kind!r}"))
                continue
            if step.kind == "compute" and not isinstance(step.compute_time, Duration):
                violations.append(Violation("BadDuration", fn.name,
                                            f"compute duration must be a Duration, got {step.compute_time!r}"))
            if step.kind in ("call", "publish"):
                target = by_name.get(step.target or "")
                if target is None:
                    violations.append(Violation("UnknownTarget", fn.name, f"target {step.target!r} is not defined"))
                elif step.kind == "call" and target.trigger_kind != HTTP_SYNC:
                    violations.append(
                        Violation("CallToAsync", fn.name, f"sync call targets event-async {step.target!r}")
                    )
                elif step.kind == "publish" and target.trigger_kind != EVENT_ASYNC:
                    violations.append(
                        Violation("PublishToSync", fn.name, f"publish targets http-sync {step.target!r}")
                    )
            if step.kind in ("dbGet", "dbSet") and not app.external_services:
                violations.append(Violation("NoServiceDeclared", fn.name, "db step but no external service"))
            if step.kind == "parallelBlock" and len(step.branches) < 2:
                violations.append(Violation("BadParallelBlock", fn.name, "parallelBlock needs >= 2 branches"))
            if step.kind == "parallelBlock" and any(s.kind == "return" for b in step.branches for s in b[:-1]):
                violations.append(Violation("ReturnNotLast", fn.name, "return must be the final step of its branch"))
        violations.extend(Violation("ReturnNotLast", fn.name, "return must be the final step")
                          for step in fn.body[:-1] if step.kind == "return")

    entries = app.entry_points()
    if not entries:
        violations.append(Violation("NoEntryPoint", None, "application has no entry point"))

    # Reachability and cycles over call/publish edges.
    if not any(v.code in ("DuplicateName", "UnknownTarget") for v in violations):
        succ = {
            fn.name: [step.target for step in walk_steps(fn.body) if step.kind in ("call", "publish")]
            for fn in app.functions
        }
        reachable = {fn.name for fn in entries}
        frontier = list(reachable)
        while frontier:
            for target in succ[frontier.pop()]:
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        for fn in app.functions:
            if fn.name not in reachable:
                violations.append(Violation("Unreachable", fn.name, "not reachable from any entry point"))
        cycle = _find_cycle(succ)
        if cycle:
            # bodies are unconditional, so every invocation on a cycle recurses forever
            violations.append(Violation("Cycle", cycle[0], "unbounded cycle " + " -> ".join(cycle)))

    return tuple(violations)


def _find_cycle(succ: dict[str, list[str]]) -> list[str] | None:
    """First cycle found by an iterative depth-first search, as a closed
    path (``[a, b, a]``); a self-call gives ``[a, a]``."""
    on_path: dict[str, bool] = {}  # True while on the current path, False once finished
    for start in succ:
        if start in on_path:
            continue
        path = [start]
        pending = [iter(succ[start])]
        on_path[start] = True
        while pending:
            target = next(pending[-1], None)
            if target is None:
                on_path[path.pop()] = False
                pending.pop()
            elif on_path.get(target):
                return path[path.index(target):] + [target]
            elif target not in on_path:
                on_path[target] = True
                path.append(target)
                pending.append(iter(succ[target]))
    return None
