"""Stage timings of five full runs at the paper's scales, for the committed
``BENCH_*.json`` files, and a paired comparison of two ``src`` trees.

    PYTHONPATH=src python3 scripts/bench.py BENCH_<name>.json [--rows NAME,...]
    PYTHONPATH=src python3 scripts/bench.py OUT.json --baseline-src DIR --pairs N [--rows NAME,...]

Runs, each at seed 7 and each in a fresh process that imports faasbench from
``PYTHONPATH`` (point it at another checkout's ``src`` to measure that
checkout); ``--rows`` runs only the named ones, in this order:

* ``webshop``: webshop x1.0 on the default single-platform config and its
  built-in profile (the paper's default profile, about 800k records);
* ``webshop-cli``: the same run as ``faasbench run webshop --seed 7`` makes
  it, with ``keep_truth=False``: no ground truth and no call trees are kept,
  and the run's analysis streams its ``raw.log``. This is the row whose
  numbers match ``faasbench run``;
* ``smartfactory``: smartfactory x1.0 on the default config and profile;
* ``exp4-coldstart``: the ``exp4-coldstart`` recipe (streaming) at x0.1;
* ``streaming``: the same recipe at x10, the size of the benchmark's
  streaming-coldstart workload: 20,500 one-call contexts (61,500 records),
  where the analyzer's fixed cost per context sets the time.

The other four runs keep the truth and the trees, as ``run_benchmark`` does
by default (and as the benchmark's run mode and every truth check need), and
analyze their ``raw.log`` through ``analyze_log_text``, which holds every
record and tree.

A run is one ``runner.run_benchmark`` call. Its stages are timed by replacing
the public names it calls, the way ``perfbench/child.py`` traces a run. Per
stage the file holds:

* ``wall_s``: time inside the stage's calls, less the time inside other
  timed calls they make (``reports`` excludes ``summaries``);
* ``records_per_s``: the run's records over ``wall_s``;
* ``maxrss_mb``: the process's ``ru_maxrss`` high water when the stage's last
  call returned.

``write_log`` is the time from the end of teardown to the start of
``analyze_file``, when the run writes ``raw.log`` and frees the simulator and
its lines. ``trees`` is ``build_trees``, which hands each context to the
per-context path: its trees, then its decomposition (``decompose``, a stage
of its own) and the record-level metrics, which it folds into the run's
state. ``count`` is a streamed analysis' pass 1, ``count_contexts``. A
streamed analysis parses and builds each context's trees as it reads, so it
has no ``parse`` or ``trees`` stage: they count under ``analyze_other``,
which is the analysis outside the other stages, the manifest read included.
``other`` is the rest of the run: validation, compile, deploy and the
manifest.

After each run, a second fresh process analyzes the run's ``raw.log`` with
``runner.analyze_file``, the offline ``faasbench analyze``, which streams it;
its ``analyze_file`` row holds the call's wall time, the process's
``ru_maxrss`` when it returned, and the sha256 of the ``summary.json`` it
wrote, which must equal the run's. It also holds ``import_maxrss_mb``, the
``ru_maxrss`` after ``from faasbench import runner`` and before the call:
the interpreter, the standard library and faasbench (~22 MB on x86_64 Linux
with Python 3.11.7), so ``maxrss_mb - import_maxrss_mb`` is the analysis' own
memory; and ``numpy_loaded``, whether numpy was imported once the call
returned. Each run holds ``numpy_loaded`` too: no faasbench process needs
numpy, and the script itself never imports it.

The file also records the git revision of the measured ``src`` (and whether
its tracked files differ from it), the Python version, the installed numpy's
version (read from its metadata; ``faasbench.rng`` draws numpy's streams,
and the tests compare it with that numpy), and the
sha256 of each run's ``raw.log`` and ``summary.json``, read in 1 MB chunks so
the digest adds no copy of the log to the peak. Two files are comparable
only when those digests are equal.

With ``--baseline-src DIR --pairs N`` the script measures each row N times
in the ``src`` tree at DIR (any checkout of the parent commit, such as a
``git clone``) and N times in the one on ``PYTHONPATH``, alternating, with
the baseline first in odd pairs. It exits 1, writing nothing, at the first
pair whose ``raw.log`` or ``summary.json`` digests differ. Otherwise the file
holds each side's revision and, per row, the digests, each side's median
and quartiles of its reference readings and, per measure (the run's
``total_s``, ``setup_s`` and ``maxrss_mb``, each stage's ``wall_s``, and the
offline ``analyze_file``'s wall time and peak), each side's median and
quartiles and ``change_lower``, the count of pairs in which the change's
value was lower.

Before the first run, the script compiles each measured ``src`` tree with
``compileall``. A module whose ``.pyc`` is stale is otherwise compiled again
in every measured process when ``PYTHONDONTWRITEBYTECODE`` is set, and the
set-up times read that.

The script and each measured process pin themselves to one CPU, the
highest-numbered one the script may use (``os.sched_setaffinity`` on their
own process only). Before and after each measured process the script times
``perfbench/reference.py``'s fixed work on that CPU, in a process of its
own, and scales the measured process's times (``total_s``, ``setup_s``, each
stage's ``wall_s`` and ``records_per_s``, and ``analyze_file``'s ``wall_s``)
by ``REFERENCE_S`` over the mean of the two readings, as the benchmark
does: they read as seconds at the reference speed. Each run and each ``analyze_file`` row holds its two
readings as ``reference_s`` and the factor as ``speed_scale``, so an
unscaled time is the scaled one over the factor. ``setup_s`` is the time
from the run's process being spawned to its first ``run_until_idle`` call,
as the benchmark measures it: the imports, validation, compile, deploy,
``schedule`` and ``execute``.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import hashlib
import importlib.machinery
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# name -> (built-in application, recipe or None for the default config and the built-in profile, scale,
# keep_truth)
RUNS = {
    "webshop": ("webshop", None, 1.0, True),
    "webshop-cli": ("webshop", None, 1.0, False),
    "smartfactory": ("smartfactory", None, 1.0, True),
    "exp4-coldstart": ("streaming", "exp4-coldstart", 0.1, True),
    "streaming": ("streaming", "exp4-coldstart", 10.0, True),
}
# (module or class, attribute, stage), in the order a run reaches them
TIMED = [
    ("runner", "schedule", "schedule"),
    ("runner", "execute", "execute"),
    ("SimEnvironment", "run_until_idle", "simulate"),
    ("SimEnvironment", "collect_log", "collect"),
    ("runner", "teardown", "teardown"),
    ("runner", "analyze_file", "analyze_other"),
    ("runner", "analyze_log_text", "analyze_other"),
    ("runner", "count_contexts", "count"),
    ("analysis", "parse_logs", "parse"),
    ("analysis", "build_trees", "trees"),
    ("analysis", "decompose", "decompose"),
    ("RunAnalysis", "summaries", "summaries"),
    ("runner", "write_reports", "reports"),
]
STAGES = ["schedule", "execute", "simulate", "collect", "teardown", "write_log", "count", "parse", "trees",
          "decompose", "analyze_other", "summaries", "reports", "other"]


def pin_to_one_cpu() -> None:
    """Run this process on the highest-numbered CPU it may use; a process it
    starts inherits that, and pins itself to the same CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@functools.cache
def reference():
    """``perfbench/reference.py``, loaded by path: its ``REFERENCE_S`` and
    ``reference_s``."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_reading() -> float:
    """One reading of the reference work, timed in a fresh process: a
    measured process's ``ru_maxrss`` starts at the peak of the process that
    spawned it, which the work's ~25 MB would raise."""
    return child("--reference")[0]


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


class StageTimer:
    """Self time, calls and end-of-stage RSS per stage of wrapped calls."""

    def __init__(self) -> None:
        self.stages: dict[str, dict] = {}
        self.first_start: dict[str, tuple[float, float]] = {}  # stage -> (time, maxrss_mb) at its first call
        self.last_end: dict[str, float] = {}
        self._inner: list[float] = []  # per open call: time inside the timed calls it made

    def wrap(self, fn, stage: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stage not in self.first_start:
                self.first_start[stage] = (time.perf_counter(), maxrss_mb())
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                inner = self._inner.pop()
                if self._inner:
                    self._inner[-1] += end - start
                s = self.stages.setdefault(stage, {"wall_s": 0.0, "calls": 0})
                s["wall_s"] += end - start - inner
                s["calls"] += 1
                s["maxrss_mb"] = maxrss_mb()
                self.last_end[stage] = end

        return timed


def source_revision(package_dir: Path) -> dict:
    """The git revision of ``package_dir`` and whether its tracked files
    differ from it; both None outside a git checkout (an unpacked archive)."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(package_dir), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        return {"git_rev": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no", "--", "."))}
    except (OSError, subprocess.CalledProcessError):
        return {"git_rev": None, "git_dirty": None}


def numpy_version() -> str | None:
    """The installed numpy's version, read without importing numpy; None
    when it is not installed."""
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def timed_owners() -> dict:
    """The module or class each ``TIMED`` row names, by its name there."""
    from faasbench import analysis, runner
    from faasbench.analysis import RunAnalysis
    from faasbench.simulator import SimEnvironment

    return {"runner": runner, "analysis": analysis, "SimEnvironment": SimEnvironment, "RunAnalysis": RunAnalysis}


def measure(name: str, out_dir: str) -> dict:
    """One run of ``RUNS[name]`` into ``out_dir``, in this process, with its
    stages timed."""
    import faasbench
    from faasbench import runner
    from faasbench.benchmarks import builtin_profile, load_builtin
    from faasbench.recipes import recipe

    bench, recipe_name, scale, keep_truth = RUNS[name]
    app = load_builtin(bench)
    if recipe_name is None:
        config, profile = runner.default_config(app), builtin_profile(bench)
    else:
        r = recipe(recipe_name)
        config, profile = r.config, r.profile

    timer = StageTimer()
    owners = timed_owners()
    for owner, attr, stage in TIMED:
        setattr(owners[owner], attr, timer.wrap(getattr(owners[owner], attr), stage))

    start = time.perf_counter()
    result = runner.run_benchmark(app, config, profile, seed=SEED, out_dir=out_dir, scale=scale,
                                  benchmark_name=bench, keep_truth=keep_truth)
    total_s = time.perf_counter() - start
    first_event = timer.first_start["simulate"][0] + time.monotonic() - time.perf_counter()
    records = result.analysis.parse.records
    digests = {"raw_log_sha256": sha256(result.log_path),
               "summary_sha256": sha256(result.run_dir / "reports" / "summary.json")}
    log_bytes = result.log_path.stat().st_size

    stages = timer.stages
    analysis_start, analysis_start_rss = timer.first_start["analyze_other"]
    stages["write_log"] = {"wall_s": analysis_start - timer.last_end["teardown"], "calls": 1,
                           "maxrss_mb": analysis_start_rss}
    stages["other"] = {"wall_s": total_s - sum(s["wall_s"] for s in stages.values()), "calls": 1,
                       "maxrss_mb": maxrss_mb()}
    return {
        "name": name,
        "benchmark": bench,
        "recipe": recipe_name,
        "scale": scale,
        "keep_truth": keep_truth,
        "seed": SEED,
        "records": records,
        "log": str(result.log_path),
        "log_bytes": log_bytes,
        "total_s": round(total_s, 4),
        "first_event": first_event,  # time.monotonic() as the simulation started
        "maxrss_mb": round(maxrss_mb(), 1),
        **digests,
        "stages": {
            stage: {"wall_s": round(stages[stage]["wall_s"], 4), "calls": stages[stage]["calls"],
                    "records_per_s": round(records / stages[stage]["wall_s"]) if stages[stage]["wall_s"] > 0 else None,
                    "maxrss_mb": round(stages[stage]["maxrss_mb"], 1)}
            for stage in STAGES if stage in stages
        },
        "numpy_loaded": "numpy" in sys.modules,
        "python": platform.python_version(),
        "numpy": numpy_version(),
        **source_revision(Path(faasbench.__file__).resolve().parent),
    }


def analyze_offline(log: str, out_dir: str) -> dict:
    """``runner.analyze_file`` on a run's raw.log, in this process."""
    from faasbench import runner

    import_maxrss = maxrss_mb()
    start = time.perf_counter()
    runner.analyze_file(log, out_dir)
    wall_s = time.perf_counter() - start
    return {"wall_s": round(wall_s, 4), "maxrss_mb": round(maxrss_mb(), 1), "import_maxrss_mb": round(import_maxrss, 1),
            "numpy_loaded": "numpy" in sys.modules, "summary_sha256": sha256(Path(out_dir) / "summary.json")}


def compile_package(src: str | None = None) -> None:
    """Write the bytecode of the faasbench package in ``src``, or of the one
    on ``sys.path``, so that no measured process compiles a stale module."""
    spec = importlib.machinery.PathFinder.find_spec("faasbench", None if src is None else [src])
    if spec is None:
        raise RuntimeError(f"no faasbench package in {src or 'sys.path'}")
    compileall.compile_dir(spec.submodule_search_locations[0], quiet=1)


def child(*args: str, src: str | None = None) -> tuple[dict, float]:
    """The JSON result of this script run in a fresh process with ``args``,
    importing faasbench from ``src`` when given, and the ``time.monotonic()``
    at which the process was spawned."""
    env = None
    if src is not None:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def speed_scaled(result: dict, readings: list[float]) -> None:
    """Scale ``result``'s times to the reference speed that ``readings``, the
    reference work's times before and after it, give, and record both."""
    scale = reference().REFERENCE_S / statistics.mean(readings)
    result["reference_s"] = [round(r, 4) for r in readings]
    result["speed_scale"] = round(scale, 4)
    for key in ("total_s", "setup_s", "wall_s"):
        if key in result:
            result[key] = round(result[key] * scale, 4)
    for stage in result.get("stages", {}).values():
        stage["wall_s"] = round(stage["wall_s"] * scale, 4)
        if stage["records_per_s"] is not None:
            stage["records_per_s"] = round(stage["records_per_s"] / scale)


def measure_row(name: str, src: str | None = None) -> dict:
    """One row: its run, then the offline analysis of its raw.log, each in a
    fresh process and each scaled to the reference speed; raises
    RuntimeError when either fails or the two write different summaries."""
    readings = [reference_reading()]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run, spawned = child("--one", name, tmp, src=src)
            readings.append(reference_reading())
            run["setup_s"] = run.pop("first_event") - spawned
            speed_scaled(run, readings)
            offline, _ = child("--analyze", run.pop("log"), str(Path(tmp) / "offline"), src=src)
            readings.append(reference_reading())
            speed_scaled(offline, readings[1:])
            run["analyze_file"] = offline
        except RuntimeError as exc:
            raise RuntimeError(f"{name}: {exc}") from None
    if run["analyze_file"]["summary_sha256"] != run["summary_sha256"]:
        raise RuntimeError(f"{name}: offline analyze_file wrote another summary.json than the run")
    return run


DIGESTS = ("raw_log_sha256", "summary_sha256")
META = ("git_rev", "git_dirty", "python", "numpy")


def measures(run: dict) -> dict[str, float]:
    """The compared numbers of one row's run."""
    return {"total_s": run["total_s"], "setup_s": run["setup_s"], "maxrss_mb": run["maxrss_mb"],
            **{f"{stage}.wall_s": s["wall_s"] for stage, s in run["stages"].items()},
            "analyze_file.wall_s": run["analyze_file"]["wall_s"],
            "analyze_file.maxrss_mb": run["analyze_file"]["maxrss_mb"]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(names: list[str], baseline_src: str, pairs: int) -> dict | None:
    """Each row measured ``pairs`` times on each side, alternating; None at the
    first pair whose digests differ."""
    sides = {"baseline": baseline_src, "change": None}
    runs: dict[str, dict[str, list]] = {name: {"baseline": [], "change": []} for name in names}
    for i in range(1, pairs + 1):
        order = ("baseline", "change") if i % 2 else ("change", "baseline")
        for name in names:
            got = {side: measure_row(name, sides[side]) for side in order}
            print(f"{name} pair {i}: " + ", ".join(f"{side} {got[side]['total_s']:.2f} s" for side in order),
                  file=sys.stderr)
            if any(got["baseline"][key] != got["change"][key] for key in DIGESTS):
                print(f"{name}: pair {i} wrote other digests on the two sides", file=sys.stderr)
                return None
            for side in order:
                runs[name][side].append(got[side])
    rows = {}
    for name, by_side in runs.items():
        base, change = ([measures(run) for run in by_side[side]] for side in sides)
        shared = [key for key in base[0] if all(key in v for v in base + change)]  # a stage one side lacks is left out
        rows[name] = {"records": by_side["change"][0]["records"], **{key: by_side["change"][0][key] for key in DIGESTS},
                      "reference_s": {side: spread([r for run in by_side[side] for r in run["reference_s"]])
                                      for side in sides},
                      "measures": {key: {"baseline": spread([v[key] for v in base]),
                                         "change": spread([v[key] for v in change]),
                                         "change_lower": sum(c[key] < b[key] for b, c in zip(base, change))}
                                   for key in shared}}
    first = {side: runs[names[0]][side][0] for side in sides}
    return {"pairs": pairs,
            "baseline": {k: first["baseline"][k] for k in META},
            "change": {k: first["change"][k] for k in META},
            "host": {"machine": platform.machine(), "cpus": os.cpu_count()}, "rows": rows}


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--one":
        pin_to_one_cpu()
        print(json.dumps(measure(argv[1], argv[2])))
        return 0
    if len(argv) == 3 and argv[0] == "--analyze":
        pin_to_one_cpu()
        print(json.dumps(analyze_offline(argv[1], argv[2])))
        return 0
    if argv == ["--reference"]:
        pin_to_one_cpu()
        print(json.dumps(reference().reference_s()))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--rows", default=",".join(RUNS), help="comma-separated runs to measure (default: all)")
    parser.add_argument("--baseline-src", help="the src directory of the checkout to compare against")
    parser.add_argument("--pairs", type=int, help="alternating baseline/change pairs (with --baseline-src)")
    args = parser.parse_args(argv)
    names = args.rows.split(",")
    if unknown := [name for name in names if name not in RUNS]:
        parser.error(f"unknown row {unknown[0]!r} (choose from {', '.join(RUNS)})")
    if (args.baseline_src is None) != (args.pairs is None) or (args.pairs is not None and args.pairs < 1):
        parser.error("--baseline-src and --pairs N (N >= 1) go together")
    pin_to_one_cpu()
    try:
        compile_package()
        if args.baseline_src is not None:
            compile_package(args.baseline_src)
            report = compare(names, args.baseline_src, args.pairs)
            if report is None:
                return 1
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
            return 0
        runs = []
        for name in names:
            run = measure_row(name)
            print(f"{name}: {run['records']} records, {run['total_s']:.2f} s, {run['maxrss_mb']:.0f} MB; "
                  f"analyze_file {run['analyze_file']['wall_s']:.2f} s, {run['analyze_file']['maxrss_mb']:.0f} MB",
                  file=sys.stderr)
            runs.append(run)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    meta = {key: runs[0][key] for key in META}
    for run in runs:
        for key in meta:
            del run[key]
    report = {**meta, "host": {"machine": platform.machine(), "cpus": os.cpu_count()}, "runs": runs}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
