"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Ground-truth recovery
checks compare analyzer output against simulator-exported truth; stochastic
counts use pinned seeds (the whole pipeline is deterministic per seed).
"""

import math
import time
from collections import Counter

import pytest

from faasbench.analysis import parse_logs, summary_stats
from faasbench.applications import ApplicationSpec, FunctionSpec, HTTP_SYNC, compute
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.cli import EXIT_OK, main as cli_main
from faasbench.deployment import DeploymentConfig, PlatformSpec
from faasbench.distributions import constant
from faasbench.records import INVOCATION
from faasbench.recipes import (
    exp1_single_cloud,
    exp2_edge_cloud,
    exp2_edge_only,
    exp3_three_way_factory,
    exp4_coldstart,
)
from faasbench.runner import run_benchmark
from faasbench.workload import LoadProfile, PeriodicSeries, Phase, US, schedule

SEED = 15  # pinned; criterion 10's 3% band is ~0.4 sigma of a Poisson count


def run_recipe(recipe, seed, scale, out_dir, **kw):
    return run_benchmark(
        load_builtin(recipe.benchmark), recipe.config, recipe.profile,
        seed=seed, scale=scale, out_dir=out_dir, benchmark_name=recipe.benchmark, **kw,
    )


def pooled(analysis, metric):
    """The multiset of a metric's values over all of its groups."""
    counts = Counter()
    for group in analysis.metrics[metric].values():
        counts.update(group)
    return counts


def passline(n, text):
    print(f"\nACCEPTANCE {n} ({text}): PASS")


@pytest.fixture(scope="module")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def exp1_run(outroot):
    return run_recipe(exp1_single_cloud(), seed=SEED, scale=0.01, out_dir=outroot / "exp1")


def test_criterion_1_determinism_and_runtime(outroot):
    t0 = time.time()
    assert cli_main(["run", "webshop", "--seed", "15", "--scale", "0.01",
                     "--out", str(outroot / "det-a")]) == EXIT_OK
    first = time.time() - t0
    assert cli_main(["run", "webshop", "--seed", "15", "--scale", "0.01",
                     "--out", str(outroot / "det-b")]) == EXIT_OK
    log_a = next((outroot / "det-a").iterdir()) / "raw.log"
    log_b = next((outroot / "det-b").iterdir()) / "raw.log"
    assert log_a.read_bytes() == log_b.read_bytes()
    assert first < 10.0, f"run took {first:.1f}s"
    passline(1, f"byte-identical logs, {first:.1f}s < 10s")


def test_criterion_2_conservation_identity(exp1_run):
    analysis = exp1_run.analysis
    assert analysis.incomplete_trees == 0
    assert len(analysis.breakdowns) == len(analysis.trees)
    residuals = {bd.conservation_residual_us for bd in analysis.breakdowns}
    assert residuals == {0}, f"nonzero residuals: {sorted(residuals)[:5]}"
    passline(2, f"root RT == compute+network+db exactly on {len(analysis.breakdowns)} trees")


def test_criterion_3_parameter_recovery(outroot):
    shop = exp1_single_cloud(network="lognormal(15,0.25)", db="lognormal(3,0.25)")
    res = run_recipe(shop, seed=9, scale=0.02, out_dir=outroot / "recovery-shop")
    oneway = pooled(res.analysis, "network_oneway")
    db = pooled(res.analysis, "db")
    factory = exp3_three_way_factory(trigger="lognormal(100,0.25)")
    res3 = run_recipe(factory, seed=9, scale=1.0, out_dir=outroot / "recovery-factory")
    trigger = pooled(res3.analysis, "trigger_delay")

    checks = {
        "network one-way": (oneway, 15_000),
        "db": (db, 3_000),
        "trigger delay": (trigger, 100_000),
    }
    for name, (values, expected) in checks.items():
        assert values.total() >= 1000, f"{name}: only {values.total()} samples"
        p50 = summary_stats(values).p50
        assert abs(p50 - expected) / expected < 0.10, f"{name}: p50={p50} vs {expected}"
    passline(3, "medians within 10% at n>=1000 for network/db/trigger")


def test_criterion_4_trigger_delay_definition(outroot):
    recipe = exp3_three_way_factory()
    res = run_recipe(recipe, seed=3, scale=0.2, out_dir=outroot / "exp3")
    trigger_by_dest = {"couch": 100_000, "panel": 250_000, "cushion": 400_000}
    leg_by_pair = {
        ("couch", "panel"): 25_000, ("couch", "cushion"): 30_000, ("panel", "couch"): 35_000,
        ("panel", "cushion"): 40_000, ("cushion", "couch"): 45_000, ("cushion", "panel"): 50_000,
        ("couch", "couch"): 2_000, ("panel", "panel"): 2_000, ("cushion", "cushion"): 2_000,
    }
    trig_groups = res.analysis.metrics["trigger_delay"]
    pub_groups = res.analysis.metrics["publish_latency"]
    assert len(trig_groups) == 7  # the factory topology produces 7 (origin,destination) pairs
    for group, values in trig_groups.items():
        origin, dest = group.split("->")
        assert set(values) == {trigger_by_dest[dest]}, f"{group}: {set(values)}"
    for group, values in pub_groups.items():
        origin, dest = group.split("->")
        assert set(values) == {leg_by_pair[(origin, dest)]}, f"{group}: {set(values)}"
    passline(4, "trigger delay == configured constant per (origin,destination); publish == one-way leg")


def test_criterion_5_cold_start_behavior(outroot):
    res = run_recipe(exp4_coldstart(), seed=11, scale=0.1, out_dir=outroot / "exp4")
    analysis = res.analysis
    profile = builtin_profile("streaming").scaled(0.1)
    windows = profile.phase_windows()
    assert [w.kind for w in windows] == ["burst", "burst", "pause", "burst"]
    normal = windows[1]
    pause = windows[2]
    burst = windows[3]
    assert (pause.end_us - pause.start_us) == 120 * US  # 2-minute pause > 60s keep-alive
    assert analysis.coldstart.per_phase[1][1] == 50  # 50 normal-phase flows
    assert analysis.coldstart.per_phase[3][1] == 150  # 150 burst flows

    # (a) analyzer cold counts equal simulator ground truth exactly
    assert analysis.coldstart.total_cold == len(res.truth.executors)
    burst_truth = sum(1 for e in res.truth.executors if burst.start_us <= e.arrival_us < burst.end_us)
    burst_analyzer = analysis.coldstart.per_phase[3][2]
    assert burst_analyzer == burst_truth
    assert analysis.cold_flag_mismatches == 0

    # (b) first burst bucket p50 exceeds steady-state p50 by the cold-start delay
    records, _ = parse_logs(res.log_path.read_text())
    steady = sorted(
        r.duration_us for r in records
        if r.kind == INVOCATION and normal.start_us <= r.start_us < normal.end_us
    )
    bucket0 = analysis.coldstart.timeline[0]
    # the pause emptied the pool: cold starts dominate the first burst second
    assert bucket0.count > 0 and bucket0.cold * 2 > bucket0.count
    delta = bucket0.p50_exec_us - steady[max(1, math.ceil(0.5 * len(steady))) - 1]  # the sorted list's nearest rank
    assert abs(delta - 400_000) <= 1, f"delta {delta}us"
    passline(5, f"cold count == {len(res.truth.executors)} executors; burst p50 delta "
                f"= {delta/1000:.3f}ms == coldStartDelay +-1us")


def test_criterion_6_call_tree_fidelity(exp1_run):
    analysis = exp1_run.analysis
    assert analysis.complete_trees == len(analysis.trees)
    analyzer_edges = set()
    for tree in analysis.trees:
        analyzer_edges |= tree.edge_set()
    assert analyzer_edges == set(exp1_run.truth.edges)
    n_inv = sum(1 for r in parse_logs(exp1_run.log_path.read_text())[0] if r.kind == INVOCATION)
    assert sum(1 for t in analysis.trees for _ in t.nodes()) == n_inv
    passline(6, f"{len(analysis.trees)} contexts reconstruct complete trees isomorphic to ground truth")


def test_criterion_7_log_loss_degradation(outroot):
    app = ApplicationSpec(
        name="probe-app",
        functions=(FunctionSpec("probe", HTTP_SYNC, (compute(constant(1)),), entry_point=True),),
    )
    platform = PlatformSpec(
        id="p1",
        cold_start_delay=constant(0),
        keep_alive_us=600_000_000,
        network_latency={"p1": constant(0), "loadgen": constant(1)},
        trigger_delay=constant(100),
        log_lines_per_second=250,
    )
    cfg = DeploymentConfig(platforms=(platform,), assignment={"probe": "p1"})
    profile = LoadProfile(
        name="steady-500-per-second",
        workflows=(),
        phases=(Phase(kind="periodic", duration_us=30 * US,
                      series=(PeriodicSeries("probe", interval_us=2000),)),),
    )
    res = run_benchmark(app, cfg, profile, seed=2, scale=1.0, out_dir=outroot / "rate")
    analysis = res.analysis
    offered = res.stats.instances  # one root call per single-step workflow
    retained = sum(1 for r in parse_logs(res.log_path.read_text())[0]
                   if r.kind == INVOCATION and r.platform_id == "p1")
    fraction = retained / offered
    assert offered == 15_000
    assert abs(fraction - 0.5) <= 0.02, f"retained fraction {fraction:.4f}"
    assert analysis.parse.drops["p1"] == offered - retained
    assert analysis.incomplete_trees == offered - retained
    assert len(analysis.breakdowns) == analysis.complete_trees  # incomplete trees excluded, no crash
    contexts = {r.context_id for r in parse_logs(res.log_path.read_text())[0]}
    assert analysis.complete_trees + analysis.incomplete_trees == len(contexts)
    passline(7, f"retained {fraction:.1%}; analyzer reports {analysis.parse.drops['p1']} drops exactly")


def test_criterion_8_skew_immunity(outroot):
    base = run_recipe(exp2_edge_cloud(), seed=5, scale=0.05, out_dir=outroot / "skew-base")
    skew = run_recipe(exp2_edge_cloud(cloud_clock_offset_ms=50), seed=5, scale=0.05,
                      out_dir=outroot / "skew-off")
    assert base.log_path.read_text() != skew.log_path.read_text()  # timestamps really did shift
    for metric in ("compute", "network", "network_oneway", "db", "trigger_delay",
                   "publish_latency", "exec_duration", "root_round_trip"):
        assert base.analysis.metrics[metric] == skew.analysis.metrics[metric], metric
    passline(8, "+50ms platform offset changes no duration-based metric by any amount")


def test_criterion_9_edge_vs_cloud_ordering(outroot):
    mixed = run_recipe(exp2_edge_cloud(), seed=5, scale=0.05, out_dir=outroot / "exp2-mixed")
    edge = run_recipe(exp2_edge_only(), seed=5, scale=0.05, out_dir=outroot / "exp2-edge")
    mixed_root = summary_stats(pooled(mixed.analysis, "root_round_trip")).p50
    edge_root = summary_stats(pooled(edge.analysis, "root_round_trip")).p50
    mixed_db = summary_stats(pooled(mixed.analysis, "db")).p50
    edge_db = summary_stats(pooled(edge.analysis, "db")).p50
    assert edge_root < mixed_root, f"edge {edge_root} !< mixed {mixed_root}"
    assert edge_db > mixed_db, f"edge db {edge_db} !> mixed db {mixed_db}"
    passline(9, f"edge-only total p50 {edge_root/1000:.0f}ms < edge-cloud {mixed_root/1000:.0f}ms; "
                f"db p50 {edge_db/1000:.0f}ms > {mixed_db/1000:.0f}ms")


def test_criterion_10_load_profile_counts():
    import numpy as np

    # webshop at scale 0.01: 180 expected Poisson arrivals, pinned seed
    ss = np.random.SeedSequence(SEED)
    _, _, loadgen_ss = ss.spawn(3)
    web = schedule(builtin_profile("webshop").scaled(0.01), np.random.default_rng(loadgen_ss))
    assert abs(len(web) - 180) / 180 <= 0.03, f"{len(web)} arrivals"

    # smartcity periodic arrivals are exact at any seed
    city = builtin_profile("smartcity").scaled(0.02)  # 18s window
    arrivals = schedule(city, np.random.default_rng(0))
    expected = sorted(
        [2 * US * k for k in range(1, 10)]  # traffic every 2s
        + [2 * US * k for k in range(1, 10)]  # camera every 2s
        # weather every 20s and emergencies every 2min do not fit in 18s
    )
    assert sorted(a.at_us for a in arrivals) == expected

    # streaming pause phase contains zero arrivals
    streaming = builtin_profile("streaming").scaled(0.1)
    windows = streaming.phase_windows()
    pause = next(w for w in windows if w.kind == "pause")
    arrivals = schedule(streaming, np.random.default_rng(1))
    in_pause = [a for a in arrivals if pause.start_us < a.at_us < pause.end_us]
    assert in_pause == []
    assert len(arrivals) == 5 + 50 + 150
    passline(10, f"webshop {len(web)}/180 arrivals (+-3%); smartcity exact; pause empty")
