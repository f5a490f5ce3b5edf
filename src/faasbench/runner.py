"""End-to-end run orchestration: compile, deploy, load, simulate, collect,
teardown, write ``raw.log``, analyze. One run per call, on the simulated
platforms, which hold nothing to release when a step raises.

A run builds its manifest's documents before it makes the run directory, and
writes ``manifest.json`` before any platform action. It embeds the run's
inputs, not their paths: the ``application``, ``config`` and unscaled
``profile`` as their ``to_dict()`` documents, beside ``seed`` and ``scale``.
``analyze_file`` reads it back with ``distributions.read``, every field as the
one JSON type ``MANIFEST_FIELDS`` gives it, and derives the phase windows from
the profile at that scale; a malformed manifest raises AnalysisError in one
line that names the file and the field.

A run analyzes its own ``raw.log`` through ``analyze_file``, as ``faasbench
analyze`` does. Before that, it lets go of the simulator and its log lines, so
reference counting frees them before the analysis starts. By default
``analyze_file`` reads the log twice: pass 1 counts each trace context's
lines, and pass 2 analyzes each context once its last line is read, so only
the open contexts are held. With ``keep_trees``, which ``run_benchmark``
passes when it keeps the ground truth (its default; ``faasbench run`` keeps
neither), it reads the log once through ``analyze_log_text``, which keeps
every record and call tree. Both go through the analyzer's one per-context
path and write the same reports.

``run_benchmark`` pauses Python's cyclic garbage collector once, from deploy
to the write of ``raw.log``, and ``analyze_file`` once, over the manifest read
and the analysis: both allocate by the hundred thousand and build no reference
cycles (``_collector_paused``). The lower-level calls they make leave the
collector alone, so no pause nests.

Only the simulator needs numpy, and ``analyze_file`` parses nothing with it.
So this module reaches ``simulator`` through a module ``__getattr__`` (PEP
562), the package's one lazy import: the first read of
``runner.SimEnvironment`` imports it, and an offline analysis never loads
numpy (~11 MB of resident memory). ``run_benchmark`` reads
``SimEnvironment`` as an attribute of this module, not as a global name,
which would never reach ``__getattr__``. So a caller that reads
``runner.SimEnvironment`` before it times a run pays the import outside its
timer, and a subclass it assigns back to ``runner.SimEnvironment`` is the one
the run builds."""

from __future__ import annotations

import datetime as _dt
import gc
import itertools
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .analysis import (AnalysisError, PhaseWindow, RunAnalysis, analyze_log_text, analyze_stream, count_contexts,
                       write_reports)
from .applications import ApplicationSpec, InvalidApplication, validate
from .benchmarks import BENCHMARK_NAMES, load_builtin
# default_config is read as runner.default_config by the benchmark's workloads
from .deployment import DeploymentConfig, compile as compile_deployment, default_config, deploy_all, teardown
from .distributions import REQUIRED, read, read_document
from .workload import ExecutionStats, LoadProfile, ProfileError, execute, schedule, validate_profile_against_app

if TYPE_CHECKING:
    from .simulator import GroundTruth

RAW_LOG_NAME = "raw.log"
MANIFEST_NAME = "manifest.json"
REPORTS_DIR = "reports"
WRITE_CHUNK_LINES = 4096  # log lines joined per write of raw.log
READ_CHUNK_CHARS = 1 << 16  # characters of raw.log split into lines at a time
# the JSON type of each manifest.json field; a manifest written before the
# documents were embedded has none of them
MANIFEST_FIELDS = {"runId": str, "benchmark": str, "seed": int, "scale": float, "outDir": str, "createdAt": str,
                   "version": str, "application": dict, "config": dict, "profile": dict}
OPTIONAL_MANIFEST_FIELDS = ("version", "application", "config", "profile")


def __getattr__(name: str):
    if name != "SimEnvironment":  # the one name imported from simulator on first access
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulator

    value = globals()[name] = getattr(simulator, name)  # later reads find it without this call
    return value


@dataclass
class RunResult:
    run_id: str
    run_dir: Path
    log_path: Path
    analysis: RunAnalysis
    truth: GroundTruth | None  # None when the run was told not to keep it
    stats: ExecutionStats


@contextmanager
def _collector_paused():
    """Run the block with the cyclic collector disabled, then restore the
    caller's collector state.

    The simulation allocates tasks, generator frames and log lines, and the
    analysis records and tree nodes, by the hundred thousand, and neither
    builds reference cycles among them, yet every allocation threshold they
    pass sets off a collection that scans all surviving objects, the growing
    log or records included, to free nothing.

    On the way out, ``gc.freeze(); gc.unfreeze()`` moves what survived into
    the oldest generation without scanning it, so the paused allocations do
    not set off a full collection right after. A caller's frozen objects are
    left frozen: then the move is skipped.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def load_app(name_or_path: str) -> ApplicationSpec:
    if name_or_path in BENCHMARK_NAMES:
        return load_builtin(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return ApplicationSpec.load(path)
    raise InvalidApplication(
        f"{name_or_path!r} is neither a built-in benchmark {BENCHMARK_NAMES} nor an application file"
    )


def run_benchmark(
    app: ApplicationSpec,
    config: DeploymentConfig,
    profile: LoadProfile,
    seed: int,
    out_dir: str | Path,
    scale: float = 1.0,
    benchmark_name: str | None = None,
    charts: bool = False,
    keep_truth: bool = True,
) -> RunResult:
    """Run the full pipeline against the simulated platforms.

    Validates ``app`` first: an invalid one raises InvalidApplication, naming
    every violation, before any run directory exists.

    ``keep_truth`` keeps the simulator's ground truth and the call trees,
    which a check against the truth reads; without it both are None, and the
    run writes the same ``raw.log`` and reports from less memory."""
    violations = validate(app)
    if violations:
        raise InvalidApplication("; ".join(str(v) for v in violations))
    scaled = profile.scaled(scale)
    validate_profile_against_app(scaled, app)

    env = sys.modules[__name__].SimEnvironment(config, seed, keep_truth=keep_truth)  # the module's, maybe replaced
    plan = compile_deployment(app, config)
    run_id = env.run_id
    documents = {"application": app.to_dict(), "config": config.to_dict(), "profile": profile.to_dict()}

    run_dir = _fresh_run_dir(Path(out_dir), run_id)
    manifest = {
        "runId": run_id,
        "benchmark": benchmark_name or app.name,
        "seed": seed,
        "scale": scale,
        "outDir": str(run_dir),
        "createdAt": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "version": __version__,
        **documents,
    }
    (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")  # before deploy_all

    log_path = run_dir / RAW_LOG_NAME
    with _collector_paused():
        deploy_all(plan, env.platforms)
        arrivals = schedule(scaled, env.loadgen_rng)
        stats = execute(arrivals, plan, env)
        env.run_until_idle()
        log_lines = env.collect_log(run_id)
        teardown(env.platforms)
        _write_lines(log_path, log_lines)
    truth = env.truth
    del env, log_lines, arrivals  # the simulator and its lines are freed before the analysis reads raw.log
    analysis = analyze_file(log_path, run_dir / REPORTS_DIR, charts=charts, keep_trees=keep_truth)
    return RunResult(run_id=run_id, run_dir=run_dir, log_path=log_path, analysis=analysis, truth=truth, stats=stats)


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write each line followed by a newline, a bounded slice at a time, so no
    string of the whole log is ever built."""
    with path.open("w", encoding="utf-8") as fh:
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


def analyze_file(log_path: str | Path, out_dir: str | Path | None = None, charts: bool = False,
                 keep_trees: bool = False) -> RunAnalysis:
    """Re-run the analyzer offline on an existing raw log.

    The file is parsed as it is read, a chunk at a time, and gives the lines
    of ``read_text().splitlines()``: the reader's universal newlines turn
    ``\\r\\n`` and ``\\r`` into ``\\n``, and ``splitlines`` ends a line there
    and at the other line boundaries it knows.

    By default it is read twice (``count_contexts``, then ``analyze_stream``)
    and no tree is kept; with ``keep_trees`` it is read once through
    ``analyze_log_text``, which keeps every tree. Both write the same reports.

    Raises AnalysisError naming the file when the ``manifest.json`` beside
    the log is not a run manifest or the log is not UTF-8 text.
    """
    log_path = Path(log_path)
    manifest_path = log_path.parent / MANIFEST_NAME
    with _collector_paused():
        phases = _read_phases(manifest_path) if manifest_path.is_file() else None
        try:
            if keep_trees:
                analysis = analyze_log_text(_lines(log_path), phases)
            else:
                counts = count_contexts(_line_batches(log_path))
                analysis = analyze_stream(_lines(log_path), counts, phases)
        except UnicodeDecodeError as exc:
            raise AnalysisError(f"{log_path}: not UTF-8 text: {exc}") from None
        if out_dir is not None:
            write_reports(analysis, out_dir, charts=charts)
    return analysis


def _line_batches(path: Path) -> Iterator[list[str]]:
    """The lines of the UTF-8 text file at ``path``, those of
    ``read_text().splitlines()``, as one list per ``READ_CHUNK_CHARS`` read.
    Universal newlines leave every line end one character long, so a chunk
    ends either at a line end or in a line that the next chunk goes on with."""
    rest = ""
    with path.open(encoding="utf-8") as fh:
        while chunk := fh.read(READ_CHUNK_CHARS):
            text = rest + chunk
            lines = text.splitlines()
            rest = "" if text[-1].splitlines() == [""] else lines.pop()
            yield lines
    if rest:
        yield [rest]


def _lines(path: Path) -> Iterator[str]:
    """The lines of ``_line_batches(path)`` one at a time."""
    return itertools.chain.from_iterable(_line_batches(path))


def _read_phases(manifest_path: Path) -> list[PhaseWindow] | None:
    """The phase windows of a run manifest's profile at its scale, or None
    without a profile, each field read as its one JSON type; raises
    AnalysisError naming the file and the first bad field."""
    try:
        manifest = read_document(manifest_path.read_text(encoding="utf-8"), AnalysisError)
        fields = {key: read(manifest, key, kind, AnalysisError, None if key in OPTIONAL_MANIFEST_FIELDS else REQUIRED)
                  for key, kind in MANIFEST_FIELDS.items()}
        if fields["scale"] <= 0:  # else LoadProfile.scaled refuses it, and the line would blame the profile
            raise AnalysisError(f"scale must be > 0, got {fields['scale']:g}")
        if fields["profile"] is None:
            return None
        return LoadProfile.from_dict(fields["profile"]).scaled(fields["scale"]).phase_windows()
    except ProfileError as exc:
        raise AnalysisError(f"{manifest_path}: not a run manifest: profile: {exc}") from None
    except (AnalysisError, ValueError) as exc:  # a bad field, nested too deep; not JSON or not UTF-8
        raise AnalysisError(f"{manifest_path}: not a run manifest: {exc}") from None
