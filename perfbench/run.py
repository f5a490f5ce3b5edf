"""faasbench benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload webshop-sync --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --check --seed 11     # ground-truth checks only, every workload
    python3 perfbench/run.py --write-golden        # re-record perfbench/golden.json

Run from the repository root. Each sample is a fresh single-threaded process
(see child.py), started one at a time, that imports faasbench from ./src.
With ``--trace 0`` the benchmark repeats {run, offline analyze} until
``--seconds`` have passed and reports medians of the end-to-end metrics;
with ``--trace 1`` it repeats {traced run, untraced run} and reports
per-layer metrics. Every run is checked against the simulator's ground truth,
its traffic counts and digests must repeat across runs with the same seed,
and at the pinned seed the digests must match golden.json. The last stdout
line is one JSON object: correct, attempted, failed, metrics.

The benchmark and its processes are pinned to one CPU. With ``--trace 0``
each process's times are scaled by the speed of that CPU just before and
just after it, read with reference.py, so that the reported times are
seconds at a fixed reference speed; the wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, reference_s
from workloads import PINNED_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
HARD_LIMIT_S = 170  # the whole benchmark run ends within this
ANALYZES_PER_ITERATION = 1


class ChildFailed(Exception):
    pass


def child(mode: str, workload: str, seed: int, deadline: float, **opts) -> tuple[dict, float]:
    """Run child.py once; returns (its JSON result, monotonic time at spawn)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload, "--seed", str(seed)]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{mode}: no time left before the {HARD_LIMIT_S} s limit")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode}: killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise ChildFailed(f"{mode}: exit code {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{mode}: no JSON result on stdout") from None


def golden_problem(workload: str, run: dict) -> str | None:
    """None when the run's digests match golden.json, else the reason."""
    golden = json.loads(GOLDEN.read_text())
    want = golden["workloads"].get(workload)
    scale = WORKLOADS[workload][2]
    if want is None or want["scale"] != scale:
        return f"golden.json has no digests for {workload} at scale {scale}; re-record with --write-golden"
    wrong = [key for key in ("raw_log_sha256", "summary_sha256") if run[key] != want[key]]
    if not wrong:
        return None
    here = run["versions"]
    drift = [f"{k} {golden['versions'][k]} recorded, {here[k]} here"
             for k in ("python", "numpy") if golden["versions"][k] != here[k]]
    if drift:
        return (f"{' and '.join(wrong)} differ from golden.json under another toolchain ("
                + "; ".join(drift) + "): the digests depend on numpy's Generator streams, re-record them")
    return f"{' and '.join(wrong)} differ from golden.json with the recorded python and numpy: behaviour changed"


class Tally:
    """Instances attempted and failed, plus every problem seen, over a run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None  # first run: digests and counts

    def fail_all(self, instances: int, problem: str) -> None:
        self.attempted += instances
        self.failed += instances
        self.problems.append(problem)

    def add_run(self, run: dict, label: str) -> None:
        """Fold in one run child's result; prints its traffic counts."""
        counts = run["counts"]
        print(f"  {label} traffic: " + " ".join(f"{k}={v}" for k, v in counts.items()))
        same = {"counts": counts, "raw_log_sha256": run["raw_log_sha256"],
                "summary_sha256": run["summary_sha256"]}
        run_level = []
        if self.reference is None:
            self.reference = same
            if self.seed == PINNED_SEED:
                problem = golden_problem(self.workload, run)
                if problem:
                    run_level.append(problem)
        elif same != self.reference:
            diff = [k for k in same if same[k] != self.reference[k]]
            run_level.append(f"{', '.join(diff)} differ between two runs with seed {self.seed}")
        if run_level:
            self.fail_all(run["attempted"], "; ".join(run_level))
        else:
            self.attempted += run["attempted"]
            self.failed += run["failed"]
        self.problems.extend(run["problems"])


def measure(workload: str, seed: int, seconds: int, trace: bool, start: float) -> tuple[Tally, dict, dict]:
    deadline = start + HARD_LIMIT_S
    tally = Tally(workload, seed)
    samples: dict[str, list[float]] = {}
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    work = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    last_trace: dict = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    instances = 1  # until the first run reports its arrivals
    speed = [reference_s()] if not trace else []

    def timed(mode: str, **opts) -> tuple[dict, float, float]:
        """child() plus the factor that scales its times to the reference speed."""
        result, spawned = child(mode, workload, seed, deadline, **opts)
        if trace:
            return result, spawned, 1.0
        speed.append(reference_s())
        return result, spawned, REFERENCE_S / ((speed[-2] + speed[-1]) / 2)

    try:
        iteration, last = 0, 0.0
        # start another iteration only if it should end less than half an iteration past --seconds
        while iteration == 0 or time.monotonic() + last / 2 < start + seconds:
            iteration += 1
            began = time.monotonic()
            out = work / f"i{iteration}"
            print(f"[{workload} seed {seed}] iteration {iteration}")
            try:
                if trace:
                    traced, _, _ = timed("trace", out=out / "traced", spans=spans_path)
                    tally.add_run(traced, "traced run")
                    instances = traced["attempted"]
                    for name, value in traced["layers"].items():
                        add(name, value)
                    add("trace.run_benchmark_s", traced["run_s"])
                    last_trace = traced
                    run, _, _ = timed("run", out=out / "run")
                    tally.add_run(run, "run")
                    add("run_s", run["run_s"])
                else:
                    run, spawned, scale = timed("run", out=out / "run")
                    tally.add_run(run, "run")
                    instances = run["attempted"]
                    # both clocks are CLOCK_MONOTONIC, shared by all processes
                    setup = run["first_event"] - spawned
                    add("setup_s", setup * scale)
                    add("run_s", run["run_s"] * scale)
                    add("setup_wall_s", setup)
                    add("run_wall_s", run["run_s"])
                    add("run_cpu_s", run["run_cpu_s"])
                    add("peak_rss_mb", run["peak_rss_mb"])
                    for _ in range(ANALYZES_PER_ITERATION):
                        offline, _, scale = timed("analyze", log=run["log"], out=out / "offline")
                        add("analyze_s", offline["analyze_s"] * scale)
                        add("analyze_wall_s", offline["analyze_s"])
                        add("analyze_cpu_s", offline["analyze_cpu_s"])
                        add("analyze_peak_rss_mb", offline["analyze_peak_rss_mb"])
                        if offline["summary_sha256"] != run["summary_sha256"]:
                            tally.problems.append("offline analyze_file wrote another summary.json than the run")
                            tally.failed = tally.attempted
            except ChildFailed as exc:
                tally.fail_all(instances, str(exc))
                break
            shutil.rmtree(out, ignore_errors=True)
            last = time.monotonic() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if speed:
        samples["reference_s"] = speed
    return tally, samples, last_trace


def report(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    tally, samples, last_trace = measure(workload, seed, seconds, trace, start)
    medians = {name: statistics.median(values) for name, values in samples.items()}
    ratio = (tally.attempted - tally.failed) / max(1, tally.attempted)
    if trace:
        if "run_s" in medians and "trace.run_benchmark_s" in medians:
            medians["trace.overhead_base_s"] = medians.pop("run_s")
            medians["trace.overhead_s"] = medians.pop("trace.run_benchmark_s") - medians["trace.overhead_base_s"]
        medians["checks.failed_ratio"] = 1 - ratio
        if last_trace:
            print("self time per span name (last traced run):")
            rows = sorted(last_trace["self_times"].items(), key=lambda kv: -kv[1]["self_s"])
            for name, row in rows:
                print(f"  {name:28s} calls={row['calls']:<6d} total={row['total_s']:.6f} s self={row['self_s']:.6f} s")
            print(f"  spans written to {OUT.name}/spans-{workload}-seed{seed}.json")
    else:
        medians["verified_ratio"] = ratio
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]} for m in spec if m["name"] in medians}
    # the unscaled wall times, the processes' own CPU time (user + system) and
    # the readings of the reference work are printed beside the metrics but
    # not reported, see README.md, Host speed
    unscaled = ("setup_wall_s", "run_wall_s", "analyze_wall_s", "run_cpu_s", "analyze_cpu_s", "reference_s")
    shown = {**metrics, **{name: {"value": medians[name], "unit": "s"} for name in unscaled if name in medians}}
    for name, m in shown.items():
        n = len(samples.get(name, []))
        detail = f"   median of {n}: " + " ".join(f"{v:.4g}" for v in samples[name]) if n > 1 else ""
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{detail}")
    for problem in tally.problems:
        print(f"PROBLEM: {problem}")
    correct = not tally.problems and tally.failed == 0
    return {"correct": correct, "attempted": max(1, tally.attempted), "failed": tally.failed, "metrics": metrics}


def single_run(workload: str, seed: int, deadline: float) -> dict:
    out = OUT / f"single-{workload}-seed{seed}-{os.getpid()}"
    try:
        return child("run", workload, seed, deadline, out=out)[0]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_only(seed: int) -> int:
    """One run per workload at ``seed`` with the ground-truth checks only."""
    deadline = time.monotonic() + 3 * HARD_LIMIT_S
    bad = 0
    for workload in WORKLOADS:
        run = single_run(workload, seed, deadline)
        print(f"{workload:20s} seed {seed}: attempted {run['attempted']} failed {run['failed']} "
              f"failed_ratio {run['failed'] / run['attempted']:g} {'; '.join(run['problems'])}")
        bad += bool(run["failed"] or run["problems"])
    return 1 if bad else 0


def write_golden() -> int:
    deadline = time.monotonic() + 3 * HARD_LIMIT_S
    golden: dict = {"seed": PINNED_SEED, "versions": None, "workloads": {}}
    for workload, (_, _, scale) in WORKLOADS.items():
        run = single_run(workload, PINNED_SEED, deadline)
        if run["failed"] or run["problems"]:
            print(f"{workload}: ground-truth checks fail, not recording: {run['problems']}", file=sys.stderr)
            return 1
        golden["versions"] = run["versions"]
        golden["workloads"][workload] = {"scale": scale, "raw_log_sha256": run["raw_log_sha256"],
                                         "summary_sha256": run["summary_sha256"]}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="faasbench benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true", help="ground-truth checks only, every workload")
    p.add_argument("--write-golden", action="store_true", help="re-record golden.json at the pinned seed")
    args = p.parse_args(argv)
    if args.workload is None and not (args.check or args.write_golden):
        p.error("--workload is required")
    if not (SRC / "faasbench" / "__init__.py").is_file():
        print(f"no faasbench package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # one CPU for this process, its children and the reference work
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.write_golden:
            return write_golden()
        if args.check:
            return check_only(args.seed)
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:  # a child that must succeed before anything can be measured
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
