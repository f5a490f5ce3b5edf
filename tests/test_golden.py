"""Byte-identity guard: sha256 digests of ``raw.log`` and of each of the seven
reports (``summary.json`` and the six CSV tables) for five small runs at a
pinned seed.

A refactor that keeps behaviour keeps these digests. Every report is pinned,
not only ``summary.json``: the CSV tables are written by code of their own,
and comparing a run's reports with ``analyze`` on its ``raw.log`` cannot see
a change there, since both come from that code. The logs depend on
numpy's ``Generator`` streams, so the digests were recorded together with the
Python and numpy versions below; a mismatch under another toolchain names both
versions instead of reporting a bare hash difference.
"""

import hashlib
import platform

import numpy as np
import pytest

from faasbench import recipes, runner
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.distributions import parse_duration
from faasbench.recipes import KEYSTORE

from conftest import recipe_with

SEED = 7
RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6"}


def _webshop_default():
    app = load_builtin("webshop")
    return app, runner.default_config(app), builtin_profile("webshop")


def _recipe(name: str):
    r = recipes.recipe(name)
    return load_builtin(r.benchmark), r.config, r.profile


def _webshop_lognormal_rate_limited():
    # the recipes use constant legs, so their quantiles are all equal; sampled
    # legs and a rate limit that drops about an eighth of the lines make the
    # summary depend on the sample stream, the quantile rule and the limiter
    network = parse_duration("lognormal(15, 0.5)")
    r = recipe_with("exp1-single-cloud", cold_start_delay=parse_duration("lognormal(400, 0.3)"),
                    network_latency={"cloud-a": network, "loadgen": network,
                                     KEYSTORE: parse_duration("lognormal(3, 0.3)")},
                    log_lines_per_second=1000)
    return load_builtin(r.benchmark), r.config, r.profile


def _smartcity_edge_cloud_offset():
    # the only case whose logs carry a platform clock offset: the cloud writes
    # its timestamps 2.5 ms ahead of the edge
    r = recipe_with("exp2-edge-cloud", "cloud-a", clock_offset_us=2500)
    return load_builtin(r.benchmark), r.config, r.profile


# case -> (function giving app, config and profile; scale; sha256 of raw.log and of each report)
GOLDEN = {
    "webshop-default-x0.01": (
        _webshop_default, 0.01,
        {
            "raw.log": "7acc509777c6c1fcd0f1a80d4132be1787a4d85b404f771d7f1bc962976a76a5",
            "summary.json": "5452d40705e3cd0bdfbd899660d550d3fbba344bca8c8b18857db581720e47c1",
            "summary.csv": "7e212edcb2b9efb50a84bfc81d7ef7a8b6aaa3046ac36b2679e6638e34daef99",
            "trees.csv": "e269ef992659d10b16b581c22e5aea16fc056d1823974139df497bac84895d47",
            "cold_starts.csv": "0694cce0fde9495aae01aef5a6deb75b324cf151052b13e2220dbff10850718f",
            "timeline.csv": "112509c39ca921ff10574eac810a84a2207f8ba9e17dddeb73b9e1e02050b340",
            "trigger_delays.csv": "83a6a270b6c706e0a9eaa580ee3fb14b0be12e56f6a204d6cc09b631d598b2be",
            "publish_latency.csv": "83a6a270b6c706e0a9eaa580ee3fb14b0be12e56f6a204d6cc09b631d598b2be",
        },
    ),
    "exp3-three-way-factory-x1": (
        lambda: _recipe("exp3-three-way-factory"), 1.0,
        {
            "raw.log": "a74bcf2af5c9a9f241908930b1fba91845c61eefba899360da7dfcb36f2c4ff4",
            "summary.json": "3e6da4791247b572e1d801075c89daeb9ad99a74754e84c5aac5cbf07fc8a375",
            "summary.csv": "d67a3594d7a526f6ba9cc2e950e1480c6b562072ceff59582feaf4859a441890",
            "trees.csv": "5c328e1c16f9b7279ffdabd779f0e5bc7c9ae5cf04c96b5ab7929350118ca87a",
            "cold_starts.csv": "ba149e12964c269bfce5fade4b1d0cbe79d9865b6f875b312da7f91c3e41bb2f",
            "timeline.csv": "112509c39ca921ff10574eac810a84a2207f8ba9e17dddeb73b9e1e02050b340",
            "trigger_delays.csv": "e84dd40b63c216e3820bd868fabd05bf458e07d91553e8284313dc858e034470",
            "publish_latency.csv": "a8d3ff81d21d8a2ce9a6d112ccdf15324986b606634282fd3dca6e70f59dcbb8",
        },
    ),
    "exp4-coldstart-x1": (
        lambda: _recipe("exp4-coldstart"), 1.0,
        {
            "raw.log": "1ebb33dda8438d3162df3d885af2940f16ab5f11ea39af12ce5d4302bf56f635",
            "summary.json": "8106601b9c27984127fb4f4ad8789bfecde1f3d15c6bd3de51295979b66b6d26",
            "summary.csv": "0574b360c1a39bb2c5edbeacfb17e57837a8440e370e7027fe6f5d2555b215e7",
            "trees.csv": "1ce719e552b1ab21781dd45f2b8827486ff26700f0f06a1beae30fcd62280225",
            "cold_starts.csv": "1d069372c2bc0db80ab61cdb1ce3294b620a3f43a9d6249331ec68807f24b5d5",
            "timeline.csv": "dd227db2e3d7b366a9d68592e2f11703cdaf78d6e8c76fadaf461beb8f137050",
            "trigger_delays.csv": "83a6a270b6c706e0a9eaa580ee3fb14b0be12e56f6a204d6cc09b631d598b2be",
            "publish_latency.csv": "83a6a270b6c706e0a9eaa580ee3fb14b0be12e56f6a204d6cc09b631d598b2be",
        },
    ),
    "webshop-lognormal-1000-lines-per-s-x0.01": (
        _webshop_lognormal_rate_limited, 0.01,
        {
            "raw.log": "5a5e4fd823f8b4b9ff2272e5d5c9a4a44cd922b7b459ba493d7c62882b4f9e4b",
            "summary.json": "95095d038d6eebee391fb053c258a60598cd44f2bd90c15f9bee977dc5a6b95c",
            "summary.csv": "4ed6db16ce8ccee89aba7007ca6f59a049c96a819aff6c80bb9ee287cf9cfa83",
            "trees.csv": "93346160167bf289d44e9f9a7fcf4df31f719b66032e014455606214c780df39",
            "cold_starts.csv": "40b5a55d8711bac40eb7be8961e2b3155c39f68f9a1ffcef9f948ae4fb25e3e6",
            "timeline.csv": "112509c39ca921ff10574eac810a84a2207f8ba9e17dddeb73b9e1e02050b340",
            "trigger_delays.csv": "83a6a270b6c706e0a9eaa580ee3fb14b0be12e56f6a204d6cc09b631d598b2be",
            "publish_latency.csv": "83a6a270b6c706e0a9eaa580ee3fb14b0be12e56f6a204d6cc09b631d598b2be",
        },
    ),
    "smartcity-exp2-edge-cloud-offset-2.5ms-x0.25": (
        _smartcity_edge_cloud_offset, 0.25,
        {
            "raw.log": "8da2d9d35b92b16df19f581e72855da9f33e4b67e9df84d9c920d193035ee30c",
            "summary.json": "5051bd27dbe7305464aee74aaf02f49bee3ddd211bf47586af40221393548eb4",
            "summary.csv": "5988a2474a2db7c4319b975e6545a66bf2fc9d7a0a442dfae8491e234a914fb2",
            "trees.csv": "5827397dfc4b6799398ace3fcb3f9c61f9305422c1e1f32cc8f8c316561ebb13",
            "cold_starts.csv": "b0405b1bf3132f3bc6fff58b1d0d3631bd6d4623f27ec866021bf5466abf0212",
            "timeline.csv": "112509c39ca921ff10574eac810a84a2207f8ba9e17dddeb73b9e1e02050b340",
            "trigger_delays.csv": "e6bfbdbea9fa21a1a94775e3bf7f44667f8b3eed21082f0b85396a642d18487f",
            "publish_latency.csv": "d028095f62b25c6385daa14cb0a25e28ab1bcf1f7a4e23965ad987982fa4a156",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case, tmp_path):
    build, scale, want = GOLDEN[case]
    app, config, profile = build()
    result = runner.run_benchmark(app, config, profile, SEED, tmp_path, scale=scale)

    reports = result.run_dir / runner.REPORTS_DIR
    assert sorted(p.name for p in reports.iterdir()) == sorted(set(want) - {"raw.log"})
    got = {name: _sha256(result.log_path if name == "raw.log" else reports / name) for name in want}
    wrong = [name for name in want if got[name] != want[name]]
    if not wrong:
        return
    here = {"python": platform.python_version(), "numpy": np.__version__}
    drift = [f"{k} {RECORDED_WITH[k]} recorded, {here[k]} here" for k in RECORDED_WITH if RECORDED_WITH[k] != here[k]]
    if drift:
        pytest.fail(f"{case}: {', '.join(wrong)} digests differ under another toolchain ({'; '.join(drift)}); "
                    "they depend on numpy's Generator streams, so re-record them with this toolchain")
    pytest.fail(f"{case}: {', '.join(wrong)} digests differ with the recorded python {here['python']} and "
                f"numpy {here['numpy']}: behaviour changed ({ {name: got[name] for name in wrong} })")
