"""End-to-end run orchestration: compile, deploy, load, collect, analyze,
teardown. One run per call; teardown always executes once deployment
succeeded, whatever happens afterwards."""

from __future__ import annotations

import datetime as _dt
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .analysis import AnalysisError, PhaseWindow, RunAnalysis, analyze_log_text, write_reports
from .applications import ApplicationSpec, InvalidApplication, validate
from .benchmarks import BENCHMARK_NAMES, load_builtin
from .collector import collector_paused
from .deployment import (
    DeploymentConfig,
    PlatformSpec,
    ServiceBinding,
    compile as compile_deployment,
    deploy_all,
    teardown,
)
from .distributions import constant
from .simulator import GroundTruth, SimEnvironment
from .workload import ExecutionStats, LoadProfile, execute, schedule, validate_profile_against_app

RAW_LOG_NAME = "raw.log"
MANIFEST_NAME = "manifest.json"
REPORTS_DIR = "reports"
WRITE_CHUNK_LINES = 4096  # log lines joined per write of raw.log


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly."""

    run_id: str
    benchmark: str
    seed: int
    scale: float
    config_path: str
    profile_path: str
    out_dir: str
    created_at: str
    version: str
    phases: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "runId": self.run_id,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "scale": self.scale,
            "configPath": self.config_path,
            "profilePath": self.profile_path,
            "outDir": self.out_dir,
            "createdAt": self.created_at,
            "version": self.version,
            "phases": self.phases,
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        d = json.loads(path.read_text())
        return cls(
            run_id=d["runId"],
            benchmark=d["benchmark"],
            seed=d["seed"],
            scale=d["scale"],
            config_path=d["configPath"],
            profile_path=d["profilePath"],
            out_dir=d["outDir"],
            created_at=d["createdAt"],
            version=d.get("version", "?"),
            phases=d.get("phases", []),
        )


@dataclass
class RunResult:
    run_id: str
    run_dir: Path
    log_path: Path
    manifest: RunManifest
    analysis: RunAnalysis
    truth: GroundTruth
    stats: ExecutionStats
    env: SimEnvironment

    @property
    def log_text(self) -> str:
        """The run's raw log, read back from ``log_path``."""
        return self.log_path.read_text()


def default_config(app: ApplicationSpec, platform_id: str = "cloud-a") -> DeploymentConfig:
    """Single-platform deployment covering the whole application."""
    services = {svc: ServiceBinding(platform_id) for svc in app.external_services}
    network = {platform_id: constant(15), "loadgen": constant(15)}
    for svc in app.external_services:
        network[svc] = constant(3)
    platform = PlatformSpec(
        id=platform_id,
        cold_start_delay=constant(400),
        keep_alive_us=300_000_000,
        network_latency=network,
        trigger_delay=constant(100),
    )
    return DeploymentConfig(
        platforms=(platform,),
        assignment={fn.name: platform_id for fn in app.functions},
        service_bindings=services,
    )


def load_app(name_or_path: str) -> ApplicationSpec:
    if name_or_path in BENCHMARK_NAMES:
        return load_builtin(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return ApplicationSpec.load(path)
    raise InvalidApplication(
        f"{name_or_path!r} is neither a built-in benchmark {BENCHMARK_NAMES} nor an application file"
    )


def phase_windows_of(profile: LoadProfile) -> list[PhaseWindow]:
    return [
        PhaseWindow(name=f"{i}:{kind}", kind=kind, start_us=start, end_us=end)
        for i, (kind, start, end) in enumerate(profile.phase_windows())
    ]


def phases_from_manifest(manifest: RunManifest) -> list[PhaseWindow]:
    return [
        PhaseWindow(name=p["name"], kind=p["kind"], start_us=p["startUs"], end_us=p["endUs"])
        for p in manifest.phases
    ]


def run_benchmark(
    app: ApplicationSpec,
    config: DeploymentConfig,
    profile: LoadProfile,
    seed: int,
    out_dir: str | Path,
    scale: float = 1.0,
    benchmark_name: str | None = None,
    config_path: str = "<inline>",
    profile_path: str = "<inline>",
    charts: bool = False,
) -> RunResult:
    """Run the full pipeline against the simulated platforms."""
    report = validate(app)
    if not report.ok:
        raise InvalidApplication("; ".join(str(v) for v in report.violations))
    profile = profile.scaled(scale)
    profile.check()
    validate_profile_against_app(profile, app)

    env = SimEnvironment(config, seed)
    plan = compile_deployment(app, config)
    run_id = env.run_id

    run_dir = _fresh_run_dir(Path(out_dir), run_id)
    phases = phase_windows_of(profile)
    manifest = RunManifest(
        run_id=run_id,
        benchmark=benchmark_name or app.name,
        seed=seed,
        scale=scale,
        config_path=str(config_path),
        profile_path=str(profile_path),
        out_dir=str(run_dir),
        created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        version=__version__,
        phases=[
            {"name": p.name, "kind": p.kind, "startUs": p.start_us, "endUs": p.end_us} for p in phases
        ],
    )
    manifest.write(run_dir / MANIFEST_NAME)  # before any platform action

    adapters = env.adapters()
    handle = deploy_all(plan, adapters, run_id=run_id)
    try:
        # set-up spawns a task and a generator per arrival and, like the
        # simulation, builds no reference cycles (collector.py)
        with collector_paused():
            arrivals = schedule(profile, env.loadgen_rng)
            stats = execute(arrivals, plan, env)
            env.run_until_idle()
        log_lines = env.collect_log(run_id)
    finally:
        teardown(handle, adapters)

    log_path = run_dir / RAW_LOG_NAME
    _write_lines(log_path, log_lines)

    analysis = analyze_log_text(log_lines, phases)
    write_reports(analysis, run_dir / REPORTS_DIR, charts=charts)

    return RunResult(
        run_id=run_id,
        run_dir=run_dir,
        log_path=log_path,
        manifest=manifest,
        analysis=analysis,
        truth=env.truth,
        stats=stats,
        env=env,
    )


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write each line followed by a newline, a bounded slice at a time, so no
    string of the whole log is ever built."""
    with path.open("w") as fh:
        for i in range(0, len(lines), WRITE_CHUNK_LINES):
            fh.write("\n".join(lines[i:i + WRITE_CHUNK_LINES]))
            fh.write("\n")


def _fresh_run_dir(out_dir: Path, run_id: str) -> Path:
    """runId names the run directory; collisions get a numeric suffix so a
    directory never mixes two runs."""
    base = out_dir / run_id
    candidate = base
    n = 1
    while candidate.exists():
        n += 1
        candidate = Path(f"{base}-{n}")
    candidate.mkdir(parents=True)
    return candidate


def analyze_file(log_path: str | Path, out_dir: str | Path | None = None, charts: bool = False) -> RunAnalysis:
    """Re-run the analyzer offline on an existing raw log.

    The file is parsed as it is read, a line at a time, and gives the lines
    of ``read_text().splitlines()``: the reader's universal newlines turn
    ``\\r\\n`` and ``\\r`` into ``\\n`` and end each line there, and
    ``splitlines`` splits it further at the other line boundaries it knows.

    Raises AnalysisError naming the file when the ``manifest.json`` beside
    the log is not a run manifest or the log is not UTF-8 text.
    """
    log_path = Path(log_path)
    phases = None
    manifest_path = log_path.parent / MANIFEST_NAME
    if manifest_path.is_file():
        try:
            phases = phases_from_manifest(RunManifest.load(manifest_path))
        except (KeyError, TypeError, ValueError) as exc:  # a missing field, not JSON or not UTF-8
            raise AnalysisError(f"{manifest_path}: not a run manifest: {exc!r}") from None
    try:
        with log_path.open() as fh:
            analysis = analyze_log_text(itertools.chain.from_iterable(map(str.splitlines, fh)), phases)
    except UnicodeDecodeError as exc:
        raise AnalysisError(f"{log_path}: not UTF-8 text: {exc}") from None
    if out_dir is not None:
        write_reports(analysis, out_dir, charts=charts)
    return analysis
