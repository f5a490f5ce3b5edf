"""Open-loop load generation: phased profiles, arrival synthesis, execution.

A profile is an ordered list of phases. ``constantRate`` phases emit Poisson
arrivals (exponential gaps) of workflows drawn from a weighted mix;
``periodic`` phases emit exact-interval arrivals aimed at entry functions
(optionally as short trains per tick); ``burst`` phases spread an exact flow
count evenly over the phase; ``pause`` phases emit nothing. Arrival times
never depend on response times.

Scaling multiplies burst flow counts and every phase duration by the factor
while leaving rates and periodic intervals untouched, so arrival density and
executor churn are preserved at desk scale.

``LoadProfile.phase_windows`` gives the phase windows in their one form, the
named ``analysis.PhaseWindow``; the analyzer's cold-start report reads them
and takes its quantiles, like every report, from ``analysis.summary_stats``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .analysis import PhaseWindow
from .distributions import MAX_PROFILE_US, MAX_SAMPLE_US, PROFILE_LIMIT, REQUIRED, read, read_document

if TYPE_CHECKING:  # annotations only
    from .rng import Generator
    from .simulator import SimEnvironment

US = 1_000_000  # microseconds per second


class ProfileError(ValueError):
    pass


def _check_int(name: str, value) -> None:
    """What from_dict reads back: whole microseconds or a count, an int (not a bool)."""
    if type(value) is not int:
        raise ProfileError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class WorkflowStep:
    entry: str
    think_time_us: int = 0


@dataclass(frozen=True)
class Workflow:
    name: str
    steps: tuple[WorkflowStep, ...]


@dataclass(frozen=True)
class PeriodicSeries:
    """Exact-interval arrivals for one entry function. A tick may emit a
    short train of ``train_count`` arrivals ``train_spacing_us`` apart."""

    entry: str
    interval_us: int
    train_count: int = 1
    train_spacing_us: int = US


# the fields each phase kind holds beside its duration, the ones to_dict writes
PHASE_FIELDS = {"constantRate": ("rate_per_s", "mix"), "burst": ("mix", "total_flows"), "periodic": ("series",),
                "pause": ()}


@dataclass(frozen=True)
class Phase:
    """One phase of a profile. Its mix is kept sorted by workflow name, in
    whatever order it is given, so a phase and its JSON form pick alike. A
    kind holds only its ``PHASE_FIELDS``; the others keep their defaults."""

    kind: str  # constantRate | periodic | pause | burst
    duration_us: int
    rate_per_s: float = 0.0
    mix: tuple[tuple[str, float], ...] = ()
    series: tuple[PeriodicSeries, ...] = ()
    total_flows: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", tuple(sorted(self.mix, key=lambda item: item[0])))


@dataclass(frozen=True)
class LoadProfile:
    """A checked profile: construction (``from_dict``, ``scaled`` and
    ``replace`` too) raises ProfileError on the first rule a field breaks."""

    name: str
    workflows: tuple[Workflow, ...]
    phases: tuple[Phase, ...]

    def workflow(self, name: str) -> Workflow:
        for wf in self.workflows:
            if wf.name == name:
                return wf
        raise ProfileError(f"workflow {name!r} is not defined")

    def __post_init__(self) -> None:
        if not self.phases:
            raise ProfileError("profile has no phases")
        for wf in self.workflows:
            if not wf.steps:
                raise ProfileError(f"workflow {wf.name!r} has no steps")
            for step in wf.steps:
                _check_int(f"workflow {wf.name!r}: think_time_us", step.think_time_us)
                if step.think_time_us < 0:
                    raise ProfileError(f"workflow {wf.name!r}: negative think time")
        for i, phase in enumerate(self.phases):
            _check_int(f"phases[{i}].duration_us", phase.duration_us)
            _check_int(f"phases[{i}].total_flows", phase.total_flows)
            if phase.kind not in PHASE_FIELDS:
                raise ProfileError(f"unknown phase kind {phase.kind!r}")
            for name in ("rate_per_s", "mix", "series", "total_flows"):  # to_dict writes only the kind's own
                if getattr(phase, name) and name not in PHASE_FIELDS[phase.kind]:
                    raise ProfileError(f"phases[{i}]: a {phase.kind} phase has no {name}")
            if type(phase.rate_per_s) is bool:  # JSON would write it as true, which from_dict refuses
                raise ProfileError(f"phases[{i}].rate_per_s must be a number, got {phase.rate_per_s!r}")
            if phase.duration_us < 0:
                raise ProfileError(f"phases[{i}].durationSeconds must be >= 0")
            if phase.kind in ("constantRate", "burst"):
                if not phase.mix:
                    raise ProfileError(f"{phase.kind} phase needs a workflow mix")
                for name, w in phase.mix:
                    if type(w) is bool:
                        raise ProfileError(f"phases[{i}].mix.{name} must be a number, got {w!r}")
                weight = sum(w for _, w in phase.mix)
                if not abs(weight - 1.0) <= 1e-9:  # written so that a nan sum fails too
                    raise ProfileError(f"mix weights must be finite and sum to 1 (got {weight})")
                for name, w in phase.mix:
                    self.workflow(name)
                    if w < 0:  # else the weights could sum to 1 with a workflow never picked
                        raise ProfileError(f"phases[{i}].mix.{name} must be >= 0, got {w:g}")
                if len(dict(phase.mix)) < len(phase.mix):  # its JSON object could name each only once
                    raise ProfileError(f"phases[{i}].mix names a workflow twice")
            if phase.kind == "constantRate" and not (math.isfinite(phase.rate_per_s) and phase.rate_per_s > 0):
                raise ProfileError(f"constantRate needs a finite ratePerSecond > 0 (got {phase.rate_per_s})")
            if phase.kind == "burst" and phase.total_flows < 1:
                raise ProfileError("burst needs totalFlows >= 1")
            if phase.kind == "burst" and not phase.total_flows < MAX_SAMPLE_US:
                raise ProfileError("totalFlows must be below 2**53")
            for j, series in enumerate(phase.series):
                where = f"phases[{i}].series[{j}]."
                for name in ("interval_us", "train_count", "train_spacing_us"):
                    _check_int(where + name, getattr(series, name))
                if series.interval_us <= 0:
                    raise ProfileError(f"{where}intervalSeconds must round to at least 1 us")
                if series.train_count < 1:
                    raise ProfileError(f"{where}trainCount must be >= 1")
                if series.train_count > 1 and series.train_spacing_us <= 0:
                    raise ProfileError(f"{where}trainSpacingSeconds must round to at least 1 us when trainCount > 1")
        # after the phases, so that a negative duration is named by its phase
        if sum(p.duration_us for p in self.phases) <= 0:
            raise ProfileError("total duration must be > 0")
        times = [p.duration_us for p in self.phases] + [s.think_time_us for wf in self.workflows for s in wf.steps]
        times += [t for p in self.phases for s in p.series for t in (s.interval_us, s.train_spacing_us)]
        if max(times) >= MAX_PROFILE_US:  # built in code: from_dict and scaled name the field first
            raise ProfileError(f"a time of the profile reaches {PROFILE_LIMIT}")

    def scaled(self, factor: float) -> "LoadProfile":
        """Scale flow counts and durations by ``factor`` (rates unchanged)."""
        if factor <= 0:
            raise ProfileError("scale factor must be > 0")
        if factor == 1.0:
            return self
        phases = []
        for p in self.phases:
            phases.append(
                replace(
                    p,
                    duration_us=_scaled(p.duration_us, factor, "durationSeconds", MAX_PROFILE_US, PROFILE_LIMIT),
                    total_flows=max(1, _scaled(p.total_flows, factor, "totalFlows", MAX_SAMPLE_US, "2**53"))
                    if p.kind == "burst" else p.total_flows,
                )
            )
        return replace(self, phases=tuple(phases))

    def phase_windows(self) -> list[PhaseWindow]:
        """The phases' absolute windows in phase order, the i-th named ``"i:kind"``."""
        out = []
        t = 0
        for i, p in enumerate(self.phases):
            out.append(PhaseWindow(f"{i}:{p.kind}", p.kind, t, t + p.duration_us))
            t += p.duration_us
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workflows": [
                {
                    "name": wf.name,
                    "steps": [
                        {
                            "entry": s.entry,
                            "thinkSeconds": s.think_time_us / US,
                        }
                        for s in wf.steps
                    ],
                }
                for wf in self.workflows
            ],
            "phases": [_phase_to_dict(p) for p in self.phases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LoadProfile":
        workflows = tuple(
            Workflow(
                name=read(w, "name", str, ProfileError),
                steps=tuple(
                    WorkflowStep(entry=read(s, "entry", str, ProfileError), think_time_us=_us(s, "thinkSeconds", 0))
                    for s in read(w, "steps", [dict], ProfileError)
                ),
            )
            for w in read(d, "workflows", [dict], ProfileError, [])
        )
        phases = tuple(_phase_from_dict(p) for p in read(d, "phases", [dict], ProfileError, []))
        return cls(name=read(d, "name", str, ProfileError, "profile"), workflows=workflows, phases=phases)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LoadProfile":
        return cls.from_dict(read_document(text, ProfileError))

    @classmethod
    def load(cls, path: str | Path) -> "LoadProfile":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _scaled(value: int, factor: float, key: str, bound: int, limit: str) -> int:
    """``value * factor`` rounded; ProfileError naming ``key`` when the product
    reaches ``bound``, which ``value`` is below (a float product may be infinite)."""
    product = value * factor
    if not product < bound:
        raise ProfileError(f"{key} scaled by {factor:g} reaches {limit}")
    return int(round(product))


def _phase_to_dict(p: Phase) -> dict:
    d: dict = {"kind": p.kind, "durationSeconds": p.duration_us / US}
    if p.kind == "constantRate":
        d["ratePerSecond"] = p.rate_per_s
        d["mix"] = {name: w for name, w in p.mix}
    elif p.kind == "burst":
        d["totalFlows"] = p.total_flows
        d["mix"] = {name: w for name, w in p.mix}
    elif p.kind == "periodic":
        d["series"] = [
            {
                "entry": s.entry,
                "intervalSeconds": s.interval_us / US,
                "trainCount": s.train_count,
                "trainSpacingSeconds": s.train_spacing_us / US,
            }
            for s in p.series
        ]
    return d


def _us(d: dict, key: str, default=REQUIRED) -> int:
    """Field ``key`` of ``d``, in seconds, as whole microseconds."""
    seconds = read(d, key, float, ProfileError, default)
    if not abs(seconds) * US < MAX_PROFILE_US:  # past it, the product need not even be finite
        raise ProfileError(f"{key} must be within +-{PROFILE_LIMIT}, got {seconds:g}")
    return int(round(seconds * US))


def _phase_from_dict(d: dict) -> Phase:
    kind = read(d, "kind", str, ProfileError)
    duration = _us(d, "durationSeconds")
    if kind in ("constantRate", "burst"):
        weights = read(d, "mix", dict, ProfileError)
        mix = tuple((name, read(weights, name, float, ProfileError, where="mix weights: ")) for name in weights)
        if kind == "constantRate":
            rate = read(d, "ratePerSecond", float, ProfileError)
            return Phase(kind=kind, duration_us=duration, rate_per_s=rate, mix=mix)
        return Phase(kind=kind, duration_us=duration, total_flows=read(d, "totalFlows", int, ProfileError), mix=mix)
    if kind == "periodic":
        return Phase(
            kind=kind,
            duration_us=duration,
            series=tuple(
                PeriodicSeries(
                    entry=read(s, "entry", str, ProfileError),
                    interval_us=_us(s, "intervalSeconds"),
                    train_count=read(s, "trainCount", int, ProfileError, 1),
                    train_spacing_us=_us(s, "trainSpacingSeconds", 1),
                )
                for s in read(d, "series", [dict], ProfileError)
            ),
        )
    if kind == "pause":
        return Phase(kind=kind, duration_us=duration)
    raise ProfileError(f"unknown phase kind {kind!r}")


class Arrival(NamedTuple):
    """A workflow instance due at ``at_us``. A tuple: a run holds one per
    arrival until the run ends."""

    at_us: int
    workflow: Workflow


_at = itemgetter(0)  # an arrival's time

# the most arrivals a run may ask for: ``schedule`` and ``execute`` hold about
# 0.12 KB per arrival before the first event (tracemalloc: 2.4 MB for the
# 20,500 of exp4-coldstart x10), so about 0.12 GB at this bound
MAX_ARRIVALS = 1_000_000


def validate_profile_against_app(profile: LoadProfile, app) -> None:
    """Every workflow step and periodic series must target an entry point,
    and the phases may ask for at most ``MAX_ARRIVALS`` arrivals in all."""
    entries = {fn.name for fn in app.entry_points()}
    for wf in profile.workflows:
        for step in wf.steps:
            if step.entry not in entries:
                raise ProfileError(f"workflow {wf.name!r} targets non-entry function {step.entry!r}")
    for phase in profile.phases:
        for series in phase.series:
            if series.entry not in entries:
                raise ProfileError(f"periodic series targets non-entry function {series.entry!r}")
    arrivals = sum(_arrivals(p) for p in profile.phases)
    if not arrivals <= MAX_ARRIVALS:
        raise ProfileError(f"the profile asks for {arrivals:.3g} arrivals, more than the {MAX_ARRIVALS} a run may have")


def _arrivals(phase: Phase) -> float:
    """The arrivals ``phase`` asks for: a constantRate phase its rate times its
    duration, a burst its flows, and a periodic series its ticks times its
    train, which ends with the phase (each kind sets only its own fields)."""
    d = phase.duration_us
    trains = sum(d // s.interval_us * min(s.train_count, d // max(1, s.train_spacing_us) + 1) for s in phase.series)
    return phase.rate_per_s * (d / US) + phase.total_flows + trains


def schedule(profile: LoadProfile, rng: Generator) -> list[Arrival]:
    """Synthesize the arrival list for one run; deterministic under the rng.

    A mixed phase picks each workflow with one ``random()`` draw: the first
    one whose cumulative weight, summed in mix order, exceeds the draw, or
    the mix's last when the weights sum to less than the draw."""
    arrivals: list[Arrival] = []
    append = arrivals.append
    random = rng.random
    phase_start = 0
    for phase in profile.phases:
        phase_end = phase_start + phase.duration_us
        if phase.mix:
            cumulative = []
            acc = 0.0
            for _, weight in phase.mix:
                acc += weight
                cumulative.append(acc)
            workflows = [profile.workflow(name) for name, _ in phase.mix]
            last = len(workflows) - 1
        if phase.kind == "constantRate":
            mean_gap = US / phase.rate_per_s
            t = phase_start + rng.exponential(mean_gap)
            while t < phase_end:
                append(Arrival(int(round(t)), workflows[min(bisect_right(cumulative, random()), last)]))
                t += rng.exponential(mean_gap)
        elif phase.kind == "burst":
            gap = phase.duration_us / phase.total_flows
            for i in range(phase.total_flows):
                append(Arrival(phase_start + int(round(i * gap)),
                               workflows[min(bisect_right(cumulative, random()), last)]))
        elif phase.kind == "periodic":
            for series in phase.series:
                wf = Workflow(name=series.entry, steps=(WorkflowStep(entry=series.entry),))
                tick = phase_start + series.interval_us
                while tick <= phase_end:
                    for j in range(series.train_count):
                        at = tick + j * series.train_spacing_us
                        if at > phase_end:
                            break
                        append(Arrival(at, wf))
                    tick += series.interval_us
        phase_start = phase_end
    arrivals.sort(key=_at)
    return arrivals


@dataclass(frozen=True)
class ExecutionStats:
    instances: int


def execute(arrivals: list[Arrival], plan, env: SimEnvironment) -> ExecutionStats:
    """Hand the arrivals to the simulation, which starts each when it is due:
    a fresh context per workflow instance, whose steps call the entry
    functions where the plan placed them; the load generator records one
    OUTGOING_CALL per root request (client-side round trip). Every entry
    must be one that ``validate_profile_against_app`` accepted. A list out
    of time order runs as if each arrival were spawned in list order."""
    env.arrive(sorted(arrivals, key=_at), plan.entry_routes)
    return ExecutionStats(instances=len(arrivals))
