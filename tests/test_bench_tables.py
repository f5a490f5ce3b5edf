"""Every name that the benchmark and ``scripts/bench.py`` wrap by attribute
exists.

``perfbench/child.py`` replaces each name of its ``RUNNER_CALLS`` and
``ANALYSIS_CALLS`` tables on ``faasbench.runner`` and ``faasbench.analysis``,
and ``scripts/bench.py`` each (owner, attribute) of its ``TIMED`` table, with
``getattr``; a refactor that drops or renames one of them would otherwise
fail only when those scripts run. The tables are read from the scripts
themselves: ``child.py`` as source, since it imports its sibling
``workloads`` module, and ``bench.py`` as a module, whose import runs nothing.
Both scripts also read the order of those calls in a run, which a test pins.
The benchmark's own ground-truth check, ``child.check_run``, reads a run's
result by attribute too, so a test runs it on every workload at a twentieth
of its scale. The benchmark's traced ``analysis.decompose`` span wraps the
module's ``decompose``, so a test counts that both readers call it once per
complete tree, and another that both build a one-call context without the
general tree builder and any other context with it. The last tests run
``bench.py``'s smallest row and its offline analysis as the script runs them,
each in a fresh process, and the same row as a one-pair comparison of a
``src`` tree with itself.
"""

import ast
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import faasbench
from faasbench import analysis, runner
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.recipes import recipe

ROOT = Path(__file__).resolve().parent.parent


def _literal(path: Path, name: str):
    """The value of the module-level assignment ``name = <literal>`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} has no module-level {name}")


def _bench_script():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table, module", [("RUNNER_CALLS", runner), ("ANALYSIS_CALLS", analysis)])
def test_every_call_the_benchmark_traces_exists(table, module):
    names = _literal(ROOT / "perfbench" / "child.py", table)
    assert names
    assert [name for name in names if not callable(getattr(module, name, None))] == []


def test_the_methods_the_benchmark_wraps_or_overrides_exist():
    # child.py wraps RunAnalysis.summaries and subclasses SimEnvironment by these names
    assert callable(analysis.RunAnalysis.summaries)
    for method in ("__init__", "run_until_idle", "collect_log"):
        assert method in vars(runner.SimEnvironment), method


def test_every_stage_bench_times_resolves():
    bench = _bench_script()
    owners = bench.timed_owners()
    assert [(owner, attr) for owner, attr, _ in bench.TIMED
            if not callable(getattr(owners[owner], attr, None))] == []
    assert {stage for _, _, stage in bench.TIMED} <= set(bench.STAGES)


def test_run_benchmark_makes_the_wrapped_calls_once_in_order(tmp_path, monkeypatch):
    # child.py times the write of raw.log as the gap from the end of teardown to
    # the start of analyze_log_text, so the run must deploy, simulate, collect,
    # tear down and analyze in this order, and write raw.log after teardown
    calls = []

    def record(owner, attr):
        fn = getattr(owner, attr)

        def recorded(*args, **kwargs):
            calls.append((attr, any(tmp_path.rglob(runner.RAW_LOG_NAME))))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, recorded)

    for owner, attr in ((runner, "deploy_all"), (runner.SimEnvironment, "run_until_idle"),
                        (runner.SimEnvironment, "collect_log"), (runner, "teardown"), (runner, "analyze_log_text")):
        record(owner, attr)
    app = load_builtin("streaming")
    runner.run_benchmark(app, runner.default_config(app), builtin_profile("streaming"), seed=7, out_dir=tmp_path,
                         scale=0.002)
    assert calls == [("deploy_all", False), ("run_until_idle", False), ("collect_log", False), ("teardown", False),
                     ("analyze_log_text", True)]


@pytest.mark.parametrize("workload", sorted(_literal(ROOT / "perfbench" / "workloads.py", "WORKLOADS")))
def test_the_benchmark_truth_check_passes_on_each_workload(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from child import check_run

    app, config, profile, scale = workloads.build(workload)
    result = runner.run_benchmark(app, config, profile, workloads.PINNED_SEED, tmp_path, scale=scale / 20,
                                  benchmark_name=workload)
    out = check_run(result)
    assert (out["failed"], out["problems"]) == (0, [])
    assert out["attempted"] == result.stats.instances > 0


def test_both_readers_decompose_each_complete_tree_once(tmp_path, monkeypatch):
    # a webshop log with lines lost, so that some trees are incomplete and must not be decomposed
    app = load_builtin("webshop")
    result = runner.run_benchmark(app, runner.default_config(app), builtin_profile("webshop"), seed=7,
                                  out_dir=tmp_path / "run", scale=0.002, keep_truth=False)
    lines = result.log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    damaged = tmp_path / "damaged.log"
    damaged.write_text("".join(line for i, line in enumerate(lines) if i % 97 != 50), encoding="utf-8")
    decomposed = []
    decompose = analysis.decompose

    def counted(tree, metrics):
        decomposed.append(tree.context_id)
        return decompose(tree, metrics)

    monkeypatch.setattr(analysis, "decompose", counted)
    kept = analysis.analyze_log_text(damaged.read_text(encoding="utf-8"))
    complete = Counter(tree.context_id for tree in kept.trees if tree.complete)
    assert 0 < kept.complete_trees < kept.tree_count
    assert Counter(decomposed) == complete and len(decomposed) == kept.complete_trees
    decomposed.clear()
    streamed = runner.analyze_file(damaged)
    assert Counter(decomposed) == complete and streamed.complete_trees == kept.complete_trees


@pytest.mark.parametrize("recipe_name, scale, one_call", [("exp4-coldstart", 0.1, True), (None, 0.01, False)])
def test_both_readers_build_only_other_shapes_with_the_general_path(recipe_name, scale, one_call, tmp_path,
                                                                    monkeypatch):
    # every context of exp4-coldstart is one call (streaming-coldstart's shape), and none of webshop's
    if recipe_name is None:
        app = load_builtin("webshop")
        config, profile = runner.default_config(app), builtin_profile("webshop")
    else:
        r = recipe(recipe_name)
        app, config, profile = load_builtin(r.benchmark), r.config, r.profile
    result = runner.run_benchmark(app, config, profile, seed=7, out_dir=tmp_path / "run", scale=scale,
                                  keep_truth=False)
    general = []
    general_trees = analysis._general_trees

    def counted(records, run):
        general.append(records[0].context_id)
        return general_trees(records, run)

    monkeypatch.setattr(analysis, "_general_trees", counted)
    kept = analysis.analyze_log_text(result.log_path.read_text(encoding="utf-8"))
    contexts = sorted(tree.context_id for tree in kept.trees)
    assert contexts and kept.complete_trees == len(contexts) == result.stats.instances
    assert sorted(general) == ([] if one_call else contexts)
    general.clear()
    streamed = runner.analyze_file(result.log_path)
    assert sorted(general) == ([] if one_call else contexts) and streamed.complete_trees == len(contexts)


SRC = Path(faasbench.__file__).parents[1]
# the stages of a row that keeps its truth: its analysis reads the log once and keeps every tree, so no count stage
KEPT_STAGES = ["schedule", "execute", "simulate", "collect", "teardown", "write_log", "parse", "trees", "decompose",
               "analyze_other", "summaries", "reports", "other"]


def _bench(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), *args], env=env,
                          capture_output=True, encoding="utf-8", timeout=300)


def test_bench_runs_its_smallest_row_and_analyzes_it_offline(tmp_path):
    def bench(*args: str) -> dict:
        proc = _bench(*args)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    run = bench("--one", "exp4-coldstart", str(tmp_path / "run"))
    offline = bench("--analyze", run["log"], str(tmp_path / "offline"))
    assert offline["summary_sha256"] == run["summary_sha256"]
    assert list(run["stages"]) == KEPT_STAGES
    assert run["numpy_loaded"] is False and offline["numpy_loaded"] is False


def test_bench_compares_a_src_tree_with_itself_in_one_pair(tmp_path):
    out = tmp_path / "pairs.json"
    proc = _bench(str(out), "--rows", "exp4-coldstart", "--baseline-src", str(SRC), "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["pairs"] == 1 and report["baseline"]["git_rev"] == report["change"]["git_rev"]
    assert list(report["rows"]) == ["exp4-coldstart"]
    row = report["rows"]["exp4-coldstart"]
    assert row["records"] > 0 and all(len(row[key]) == 64 for key in ("raw_log_sha256", "summary_sha256"))
    assert list(row["measures"]) == (["total_s", "setup_s", "maxrss_mb"] + [f"{stage}.wall_s" for stage in KEPT_STAGES]
                                     + ["analyze_file.wall_s", "analyze_file.maxrss_mb"])
    assert all(0 < row["reference_s"][side]["median"] for side in ("baseline", "change"))
    for measure in row["measures"].values():
        assert measure["change_lower"] in (0, 1)
        for side in ("baseline", "change"):
            assert measure[side]["q1"] == measure[side]["median"] == measure[side]["q3"]


def test_bench_refuses_a_pair_whose_digests_differ(tmp_path):
    # a copy of the package whose summary.json says another schema version
    shutil.copytree(SRC / "faasbench", tmp_path / "src" / "faasbench", ignore=shutil.ignore_patterns("__pycache__"))
    analysis_py = tmp_path / "src" / "faasbench" / "analysis.py"
    analysis_py.write_text(analysis_py.read_text(encoding="utf-8").replace('"schemaVersion": 1', '"schemaVersion": 2'),
                           encoding="utf-8")
    out = tmp_path / "pairs.json"
    proc = _bench(str(out), "--rows", "exp4-coldstart", "--baseline-src", str(tmp_path / "src"), "--pairs", "2")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "exp4-coldstart: pair 1 wrote other digests on the two sides"
    assert not out.exists()
