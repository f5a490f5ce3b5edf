"""Benchmark manager CLI: run, analyze, recipes, validate.

Exit codes: 0 success, 2 configuration/validation error (a bad --out too), 3
reserved (no run can fail to deploy), 4 run failure, 5 analysis failure.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from pathlib import Path

from .analysis import AnalysisError
from .applications import InvalidApplication, UnknownBenchmark, validate
from .benchmarks import BENCHMARK_NAMES, builtin_profile
from .deployment import DeploymentConfig, DeploymentError, default_config
from .recipes import RECIPE_NAMES, UnknownRecipe, recipe
from .records import SimulationError
from .runner import REPORTS_DIR, analyze_file, load_app, run_benchmark
from .workload import LoadProfile, ProfileError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 4
EXIT_ANALYSIS = 5

OUT_ENV_VAR = "FAASBENCH_OUT"


def _positive_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faasbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark end to end on the simulated platforms")
    run.add_argument("benchmark", help=f"built-in name {BENCHMARK_NAMES} or application JSON path")
    run.add_argument("--config", help="deployment config JSON (default: single-platform config)")
    run.add_argument("--profile", help="load profile JSON (default: the benchmark's built-in profile)")
    run.add_argument("--seed", type=_non_negative_int, default=1)
    run.add_argument("--scale", type=_positive_scale, default=1.0, help="scale flow counts and phase durations")
    run.add_argument("--out", default=None, help=f"output directory (or ${OUT_ENV_VAR}; default ./out)")
    charts_help = "also write one box chart per metric, charts/<metric>.png, from the summary.csv statistics"
    run.add_argument("--charts", action="store_true", help=charts_help)

    analyze = sub.add_parser("analyze", help="re-run the analyzer offline on an existing raw log")
    analyze.add_argument("log", help="path to a raw.log file")
    analyze.add_argument("--out", default=None, help="report output directory (default: alongside the log)")
    analyze.add_argument("--max-parse-errors", type=_non_negative_int, default=0,
                         help="exit nonzero when parse errors exceed this count")
    analyze.add_argument("--charts", action="store_true", help=charts_help)

    recipes = sub.add_parser("recipes", help="emit a prebuilt (deployment config, profile) pair")
    recipes.add_argument("name", nargs="?", help=f"one of {RECIPE_NAMES} (omit to list)")
    recipes.add_argument("--out", default=None, help="directory for the emitted files (default .)")

    val = sub.add_parser("validate", help="validate an application spec")
    val.add_argument("app", help="built-in benchmark name or application JSON path")

    return parser


def _out_dir(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get(OUT_ENV_VAR)
    return Path(env) if env else Path("out")


def cmd_run(args) -> int:
    try:
        app = load_app(args.benchmark)
        config = DeploymentConfig.load(args.config) if args.config else default_config(app)
        if args.profile:
            profile = LoadProfile.load(args.profile)
        elif args.benchmark in BENCHMARK_NAMES:
            profile = builtin_profile(args.benchmark)
        else:
            print("a custom application needs --profile", file=sys.stderr)
            return EXIT_CONFIG
    except (InvalidApplication, UnknownBenchmark, DeploymentError, ProfileError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_benchmark(
            app,
            config,
            profile,
            seed=args.seed,
            scale=args.scale,
            out_dir=_out_dir(args.out),
            benchmark_name=args.benchmark,
            charts=args.charts,
            keep_truth=False,  # nothing here reads the truth or the trees
        )
    except InvalidApplication as exc:  # raised before the run directory is made
        print(f"invalid application: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DeploymentError, ProfileError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return EXIT_RUN
    except AnalysisError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS

    a = result.analysis
    print(f"run {result.run_id}: {a.parse.records} records, "
          f"{a.complete_trees}/{a.tree_count} complete trees, "
          f"{a.total_cold} cold starts, {a.parse.total_drops} dropped lines")
    print(f"outputs in {result.run_dir}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    log_path = Path(args.log)
    if not log_path.is_file():
        print(f"no such log file: {log_path}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else log_path.parent / REPORTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails here, before the log is read
    try:
        analysis = analyze_file(log_path, out_dir, charts=args.charts)
    except AnalysisError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    print(f"{analysis.parse.records} records, {analysis.parse.parse_errors} parse errors, "
          f"{analysis.complete_trees}/{analysis.tree_count} complete trees; reports in {out_dir}")
    if not analysis.per_phase:  # every profile has a phase
        print("no phases: no manifest.json with a profile beside the log; cold_starts.csv and timeline.csv list none")
    if analysis.parse.parse_errors > args.max_parse_errors:
        print(f"parse errors exceed threshold ({args.max_parse_errors})", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def cmd_recipes(args) -> int:
    if args.name is None:
        for name in RECIPE_NAMES:
            print(name)
        return EXIT_OK
    try:
        r = recipe(args.name)
    except UnknownRecipe:
        print(f"unknown recipe {args.name!r}; known: {', '.join(RECIPE_NAMES)}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / f"{r.name}.config.json"
    profile_path = out / f"{r.name}.profile.json"
    config_path.write_text(r.config.to_json() + "\n", encoding="utf-8")
    profile_path.write_text(r.profile.to_json() + "\n", encoding="utf-8")
    print(f"benchmark: {r.benchmark}")
    print(f"wrote {config_path}")
    print(f"wrote {profile_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        app = load_app(args.app)
    except (InvalidApplication, UnknownBenchmark, OSError, ValueError) as exc:
        print(f"cannot load application: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = validate(app)
    if not violations:
        print(f"{app.name}: ok ({len(app.functions)} functions)")
        return EXIT_OK
    for v in violations:
        print(str(v))
    return EXIT_CONFIG


def main(argv=None) -> int:
    # a name the locale cannot encode (an ASCII locale with UTF-8 mode off) is
    # printed escaped, not raised; a caller's StringIO in place of stdout encodes anything
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "analyze": cmd_analyze, "recipes": cmd_recipes, "validate": cmd_validate}[args.command]
    try:
        return command(args)
    except OSError as exc:  # most often an --out that names a file, or a directory under one
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
