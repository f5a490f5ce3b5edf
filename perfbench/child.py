"""One measured process of the benchmark.

``run.py`` starts this script once per sample, so every sample pays its own
interpreter start and import and reads its own peak RSS. Modes:

* ``run``     - ``runner.run_benchmark`` untraced, then the ground-truth
  checks; also reports when the first simulated event started, for set-up time.
* ``analyze`` - ``runner.analyze_file`` on a raw.log written by ``run``.
* ``trace``   - ``runner.run_benchmark`` with a span around every public
  call it makes, then the same checks as ``run``.

The script prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import workloads


def rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_s() -> float:
    """User plus system CPU time of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# ground truth and traffic counts


def check_run(result) -> dict:
    """Compare one run's analysis with the simulator's ground truth.

    A workflow instance (one context) fails when its tree is incomplete, its
    conservation residual is not 0, its edges differ from the truth edges, or
    a logged cold flag disagrees with the truth. A nonzero cold-start
    cross-check or a context count that differs from the arrivals fails every
    instance of the run.
    """
    truth, analysis = result.truth, result.analysis
    truth_edges: dict[str, set] = {}
    for e in truth.edges:
        truth_edges.setdefault(e.context_id, set()).add((e.context_id, e.parent_pair, e.pair, e.kind))
    truth_cold = {(i.context_id, i.pair): i.cold for i in truth.invocations}

    tree_edges: dict[str, set] = {}
    failed: set[str] = set()
    owners: Counter = Counter()  # invocations per (context, platform, function)
    placed: Counter = Counter()  # call and db records build_trees placed under that key
    for tree in analysis.trees:
        ctx = tree.context_id
        tree_edges.setdefault(ctx, set()).update(tree.edge_set())
        if not tree.complete:
            failed.add(ctx)
        for node in tree.nodes():
            r = node.record
            if truth_cold.get((ctx, r.pair_id)) != r.cold_start:
                failed.add(ctx)
            key = (ctx, r.platform_id, r.function)
            owners[key] += 1
            placed[key] += len(node.calls) + len(node.db_calls)
    residual_nonzero = [bd.context_id for bd in analysis.breakdowns if bd.conservation_residual_us != 0]
    failed.update(residual_nonzero)
    for ctx in truth_edges.keys() | tree_edges.keys():
        if truth_edges.get(ctx) != tree_edges.get(ctx):
            failed.add(ctx)

    instances = result.stats.instances
    run_level = []
    if len(truth_edges) != instances:
        run_level.append(f"{len(truth_edges)} contexts for {instances} arrivals")
    if analysis.cold_flag_mismatches:
        run_level.append(f"coldstart_crosscheck found {analysis.cold_flag_mismatches} mismatches")
    problems = run_level + ([f"{len(failed)} instances fail the ground-truth checks"] if failed else [])

    counts = {
        "arrivals": instances,
        "records": analysis.parse.records,
        "log_bytes": result.log_path.stat().st_size,
        "invocations": len(truth.invocations),
        "executors_created": len(truth.executors),
        "ids_drawn": len(truth.edges) + len(truth_edges) + len(truth.executors) + 1,
        "trees": len(analysis.trees),
        "trees_complete": analysis.complete_trees,
        "residual_nonzero": len(residual_nonzero),
        "records_per_tree": analysis.parse.records / max(1, len(analysis.trees)),
        "owner_candidates_mean": sum(owners[k] * n for k, n in placed.items()) / max(1, sum(placed.values())),
    }
    return {
        "attempted": instances,
        "failed": instances if run_level else len(failed),
        "problems": problems,
        "counts": counts,
        "raw_log_sha256": sha256(result.log_path),
        "summary_sha256": sha256(result.run_dir / "reports" / "summary.json"),
        "versions": versions(),
    }


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory; each is a dict with name, start, end, parent
    (index into ``spans``) and attrs. Times are ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "attrs": {}}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def first(self, name: str) -> dict:
        return next(s for s in self.spans if s["name"] == name)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]


# module attribute -> span name; run_benchmark and analyze_records look these
# names up at call time, so replacing them times every call from outside
RUNNER_CALLS = {
    "validate": "applications.validate",
    "validate_profile_against_app": "workload.validate_profile",
    "compile_deployment": "deployment.compile",
    "deploy_all": "deployment.deploy",
    "schedule": "workload.schedule",
    "execute": "workload.execute",
    "teardown": "deployment.teardown",
    "analyze_log_text": "analysis.analyze_log_text",
    "write_reports": "analysis.write_reports",
}
ANALYSIS_CALLS = {
    "parse_logs": "analysis.parse",
    "analyze_records": "analysis.analyze_records",
    "build_trees": "analysis.trees",
    "decompose": "analysis.decompose",
    "estimate_skew_corrected_network": "analysis.oneway",
    "trigger_metrics": "analysis.trigger",
    "coldstart_report": "analysis.coldstart",
    "coldstart_crosscheck": "analysis.crosscheck",
}


def install_tracing(tracer: Tracer, runner, analysis) -> None:
    for module, calls in ((runner, RUNNER_CALLS), (analysis, ANALYSIS_CALLS)):
        for attr, name in calls.items():
            setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    analysis.RunAnalysis.summaries = tracer.wrap(analysis.RunAnalysis.summaries, "analysis.summaries")

    class TracedEnvironment(runner.SimEnvironment):
        def __init__(self, *args, **kwargs):
            with tracer.span("simulator.init"):
                super().__init__(*args, **kwargs)

        def run_until_idle(self) -> None:
            with tracer.span("simulator.simulate"):
                super().run_until_idle()

        def collect_log(self, run_id: str) -> str:
            with tracer.span("simulator.collect") as span:
                text = super().collect_log(run_id)
                span["attrs"]["rss_mb"] = rss_mb()
            return text

    runner.SimEnvironment = TracedEnvironment


def traced_run(args) -> dict:
    tracer = Tracer()
    with tracer.span("trace.total"):
        with tracer.span("runner.import"):
            from faasbench import analysis, runner
        with tracer.span("benchmarks.load_inputs"):
            app, config, profile, scale = workloads.build(args.workload)
        install_tracing(tracer, runner, analysis)
        with tracer.span("runner.run_benchmark"):
            result = runner.run_benchmark(app, config, profile, args.seed, args.out, scale=scale,
                                          benchmark_name=args.workload)
    end_rss = rss_mb()

    # raw.log is written between teardown and analysis; nothing else runs there
    run_idx = next(i for i, s in enumerate(tracer.spans) if s["name"] == "runner.run_benchmark")
    tracer.spans.append({"name": "runner.write_log", "start": tracer.first("deployment.teardown")["end"],
                         "end": tracer.first("analysis.analyze_log_text")["start"],
                         "parent": run_idx, "attrs": {}})

    out = check_run(result)
    counts = out["counts"]
    for name, keys in (
        ("workload.schedule", ("arrivals",)),
        ("simulator.simulate", ("invocations", "executors_created", "ids_drawn")),
        ("simulator.collect", ("log_bytes",)),
        ("analysis.parse", ("records",)),
        ("analysis.trees", ("trees", "records_per_tree", "owner_candidates_mean")),
        ("analysis.analyze_records", ("trees_complete", "residual_nonzero")),
    ):
        tracer.first(name)["attrs"].update({k: counts[k] for k in keys})
    tracer.first("trace.total")["attrs"]["rss_mb"] = end_rss

    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    for s, own in zip(tracer.spans, selfs):
        agg = by_name.setdefault(s["name"], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += s["end"] - s["start"]
        agg[2] += own
    origin = tracer.first("trace.total")["start"]
    Path(args.spans).write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "spans": [
            {"id": i, "name": s["name"], "parent": s["parent"], "start_s": s["start"] - origin,
             "end_s": s["end"] - origin, "self_s": own, **s["attrs"]}
            for i, (s, own) in enumerate(zip(tracer.spans, selfs))
        ],
    }) + "\n")

    out["layers"] = layer_metrics(by_name, counts, tracer.first("simulator.collect")["attrs"]["rss_mb"], end_rss)
    out["self_times"] = {name: {"calls": n, "total_s": total, "self_s": own}
                         for name, (n, total, own) in by_name.items()}
    out["run_s"] = by_name["runner.run_benchmark"][1]
    return out


def layer_metrics(by_name: dict, counts: dict, sim_rss: float, end_rss: float) -> dict:
    def own(*names: str) -> float:
        return sum(by_name[n][2] for n in names if n in by_name)

    timed = {
        "runner.import_s": own("runner.import"),
        "applications.validate_s": own("applications.validate"),
        "deployment.compile_s": own("deployment.compile"),
        "deployment.deploy_s": own("deployment.deploy"),
        "deployment.teardown_s": own("deployment.teardown"),
        "workload.schedule_s": own("workload.schedule"),
        "workload.execute_s": own("workload.execute"),
        "simulator.simulate_s": own("simulator.simulate"),
        "simulator.collect_s": own("simulator.collect"),
        "runner.write_log_s": own("runner.write_log"),
        "runner.run_benchmark_self_s": own("runner.run_benchmark"),
        "analysis.parse_s": own("analysis.parse"),
        "analysis.analyze_records_self_s": own("analysis.analyze_records"),
        "analysis.trees_s": own("analysis.trees"),
        "analysis.decompose_s": own("analysis.decompose"),
        "analysis.oneway_s": own("analysis.oneway"),
        "analysis.trigger_s": own("analysis.trigger"),
        "analysis.coldstart_s": own("analysis.coldstart", "analysis.crosscheck"),
        "analysis.summaries_s": own("analysis.summaries"),
        "analysis.reports_s": own("analysis.write_reports"),
    }
    total = by_name["trace.total"][1]
    invocations = counts["invocations"]
    return {
        **timed,
        # the small spans (input loading, environment init, profile checks,
        # analyze_log_text itself and the root): with the rows above this
        # sums to trace.total_s
        "trace.other_self_s": total - sum(timed.values()),
        "trace.total_s": total,
        "workload.arrivals": counts["arrivals"],
        "simulator.host_us_per_invocation": timed["simulator.simulate_s"] / max(1, invocations) * 1e6,
        "simulator.invocations": invocations,
        "simulator.executors_created": counts["executors_created"],
        "simulator.executor_reuse_ratio": 1 - counts["executors_created"] / max(1, invocations),
        "simulator.ids_drawn": counts["ids_drawn"],
        "simulator.log_mb": counts["log_bytes"] / 1e6,
        "simulator.rss_mb": sim_rss,
        "analysis.parse_records_per_s": counts["records"] / by_name["analysis.parse"][1],
        "analysis.owner_candidates_mean": counts["owner_candidates_mean"],
        "analysis.records_per_tree": counts["records_per_tree"],
        # the peak can only rise, so this is what analysis added over the
        # simulator's peak (0 when simulation and collection set the peak)
        "analysis.rss_mb": end_rss - sim_rss,
        "analysis.trees_complete": counts["trees_complete"],
        "analysis.residual_nonzero": counts["residual_nonzero"],
    }


# ---------------------------------------------------------------------------
# modes


def run_mode(args) -> dict:
    from faasbench import runner

    class TimedEnvironment(runner.SimEnvironment):
        """Notes when run_benchmark hands over to the simulation loop."""

        first_event: float | None = None

        def run_until_idle(self) -> None:
            if TimedEnvironment.first_event is None:
                TimedEnvironment.first_event = time.monotonic()
            super().run_until_idle()

    runner.SimEnvironment = TimedEnvironment
    app, config, profile, scale = workloads.build(args.workload)
    t0, c0 = time.perf_counter(), cpu_s()
    result = runner.run_benchmark(app, config, profile, args.seed, args.out, scale=scale,
                                  benchmark_name=args.workload)
    run_s, run_cpu_s = time.perf_counter() - t0, cpu_s() - c0
    peak = rss_mb()
    return {"run_s": run_s, "run_cpu_s": run_cpu_s, "peak_rss_mb": peak,
            "first_event": TimedEnvironment.first_event, "log": str(result.log_path), **check_run(result)}


def analyze_mode(args) -> dict:
    from faasbench import runner

    t0, c0 = time.perf_counter(), cpu_s()
    analysis = runner.analyze_file(args.log, out_dir=args.out)
    analyze_s, analyze_cpu_s = time.perf_counter() - t0, cpu_s() - c0
    peak = rss_mb()
    return {
        "analyze_s": analyze_s,
        "analyze_cpu_s": analyze_cpu_s,
        "analyze_peak_rss_mb": peak,
        "records": analysis.parse.records,
        "summary_sha256": sha256(Path(args.out) / "summary.json"),
    }


MODES = {"run": run_mode, "analyze": analyze_mode, "trace": traced_run}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=sorted(MODES))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    p.add_argument("--out", default=".", help="output directory for run or reports")
    p.add_argument("--log", help="raw.log to analyze (analyze mode)")
    p.add_argument("--spans", help="file the spans are written to (trace mode)")
    args = p.parse_args(argv)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
