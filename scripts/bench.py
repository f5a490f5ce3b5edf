"""Stage timings of four full runs at the paper's scales, for the committed
``BENCH_*.json`` files.

    PYTHONPATH=src python3 scripts/bench.py BENCH_<name>.json

Runs, each at seed 7 and each in a fresh process that imports faasbench from
``PYTHONPATH`` (point it at another checkout's ``src`` to measure that
checkout):

* ``webshop``: webshop x1.0 on the default single-platform config and its
  built-in profile (the paper's default profile, about 800k records);
* ``webshop-cli``: the same run as ``faasbench run webshop --seed 7`` makes
  it, with ``keep_truth=False``: no ground truth and no call trees are kept,
  and the run's analysis streams its ``raw.log``. This is the row whose
  numbers match ``faasbench run``;
* ``smartfactory``: smartfactory x1.0 on the default config and profile;
* ``exp4-coldstart``: the ``exp4-coldstart`` recipe (streaming) at x0.1.

The other three runs keep the truth and the trees, as ``run_benchmark`` does
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
returned, which an offline analysis never needs.

The file also records the git revision of the measured ``src`` (and whether
its tracked files differ from it), the Python and numpy versions, and the
sha256 of each run's ``raw.log`` and ``summary.json``, read in 1 MB chunks so
the digest adds no copy of the log to the peak. Two files are comparable
only when those digests are equal.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
# name -> (built-in application, recipe or None for the default config and the built-in profile, scale,
# keep_truth)
RUNS = {
    "webshop": ("webshop", None, 1.0, True),
    "webshop-cli": ("webshop", None, 1.0, False),
    "smartfactory": ("smartfactory", None, 1.0, True),
    "exp4-coldstart": ("streaming", "exp4-coldstart", 0.1, True),
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


def timed_owners() -> dict:
    """The module or class each ``TIMED`` row names, by its name there."""
    from faasbench import analysis, runner
    from faasbench.analysis import RunAnalysis
    from faasbench.simulator import SimEnvironment

    return {"runner": runner, "analysis": analysis, "SimEnvironment": SimEnvironment, "RunAnalysis": RunAnalysis}


def measure(name: str, out_dir: str) -> dict:
    """One run of ``RUNS[name]`` into ``out_dir``, in this process, with its
    stages timed."""
    import numpy

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
        "maxrss_mb": round(maxrss_mb(), 1),
        **digests,
        "stages": {
            stage: {"wall_s": round(stages[stage]["wall_s"], 4), "calls": stages[stage]["calls"],
                    "records_per_s": round(records / stages[stage]["wall_s"]) if stages[stage]["wall_s"] > 0 else None,
                    "maxrss_mb": round(stages[stage]["maxrss_mb"], 1)}
            for stage in STAGES if stage in stages
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
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


def child(*args: str) -> dict:
    """The JSON result of this script run in a fresh process with ``args``."""
    proc = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--one":
        print(json.dumps(measure(argv[1], argv[2])))
        return 0
    if len(argv) == 3 and argv[0] == "--analyze":
        print(json.dumps(analyze_offline(argv[1], argv[2])))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs = []
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                run = child("--one", name, tmp)
                run["analyze_file"] = child("--analyze", run.pop("log"), str(Path(tmp) / "offline"))
            except RuntimeError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 1
        if run["analyze_file"]["summary_sha256"] != run["summary_sha256"]:
            print(f"{name}: offline analyze_file wrote another summary.json than the run", file=sys.stderr)
            return 1
        print(f"{name}: {run['records']} records, {run['total_s']:.2f} s, {run['maxrss_mb']:.0f} MB; "
              f"analyze_file {run['analyze_file']['wall_s']:.2f} s, {run['analyze_file']['maxrss_mb']:.0f} MB",
              file=sys.stderr)
        runs.append(run)
    meta = {key: runs[0][key] for key in ("git_rev", "git_dirty", "python", "numpy")}
    for run in runs:
        for key in meta:
            del run[key]
    report = {**meta, "host": {"machine": platform.machine(), "cpus": os.cpu_count()}, "runs": runs}
    Path(argv[0]).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
