"""Byte-identity guard: sha256 digests of ``raw.log`` and ``reports/summary.json``
for five small runs at a pinned seed.

A refactor that keeps behaviour keeps these digests. The logs depend on
numpy's ``Generator`` streams, so the digests were recorded together with the
Python and numpy versions below; a mismatch under another toolchain names both
versions instead of reporting a bare hash difference.
"""

import hashlib
import platform
from dataclasses import replace

import numpy as np
import pytest

from faasbench import recipes, runner
from faasbench.benchmarks import builtin_profile, load_builtin

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
    r = recipes.exp1_single_cloud(network="lognormal(15, 0.5)", db="lognormal(3, 0.3)",
                                  cold_start="lognormal(400, 0.3)")
    limited = tuple(replace(p, log_lines_per_second=1000) for p in r.config.platforms)
    return load_builtin(r.benchmark), replace(r.config, platforms=limited), r.profile


def _smartcity_edge_cloud_offset():
    # the only case whose logs carry a platform clock offset: the cloud writes
    # its timestamps 2.5 ms ahead of the edge
    r = recipes.exp2_edge_cloud(cloud_clock_offset_ms=2.5)
    return load_builtin(r.benchmark), r.config, r.profile


# case -> (function giving app, config and profile; scale; raw.log sha256; summary.json sha256)
GOLDEN = {
    "webshop-default-x0.01": (
        _webshop_default, 0.01,
        "7acc509777c6c1fcd0f1a80d4132be1787a4d85b404f771d7f1bc962976a76a5",
        "5452d40705e3cd0bdfbd899660d550d3fbba344bca8c8b18857db581720e47c1",
    ),
    "exp3-three-way-factory-x1": (
        lambda: _recipe("exp3-three-way-factory"), 1.0,
        "a74bcf2af5c9a9f241908930b1fba91845c61eefba899360da7dfcb36f2c4ff4",
        "3e6da4791247b572e1d801075c89daeb9ad99a74754e84c5aac5cbf07fc8a375",
    ),
    "exp4-coldstart-x1": (
        lambda: _recipe("exp4-coldstart"), 1.0,
        "1ebb33dda8438d3162df3d885af2940f16ab5f11ea39af12ce5d4302bf56f635",
        "8106601b9c27984127fb4f4ad8789bfecde1f3d15c6bd3de51295979b66b6d26",
    ),
    "webshop-lognormal-1000-lines-per-s-x0.01": (
        _webshop_lognormal_rate_limited, 0.01,
        "5a5e4fd823f8b4b9ff2272e5d5c9a4a44cd922b7b459ba493d7c62882b4f9e4b",
        "95095d038d6eebee391fb053c258a60598cd44f2bd90c15f9bee977dc5a6b95c",
    ),
    "smartcity-exp2-edge-cloud-offset-2.5ms-x0.25": (
        _smartcity_edge_cloud_offset, 0.25,
        "8da2d9d35b92b16df19f581e72855da9f33e4b67e9df84d9c920d193035ee30c",
        "5051bd27dbe7305464aee74aaf02f49bee3ddd211bf47586af40221393548eb4",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case, tmp_path):
    build, scale, want_log, want_summary = GOLDEN[case]
    app, config, profile = build()
    result = runner.run_benchmark(app, config, profile, SEED, tmp_path, scale=scale)

    got = {"raw.log": _sha256(result.log_path),
           "summary.json": _sha256(result.run_dir / runner.REPORTS_DIR / "summary.json")}
    wrong = [name for name, want in (("raw.log", want_log), ("summary.json", want_summary)) if got[name] != want]
    if not wrong:
        return
    here = {"python": platform.python_version(), "numpy": np.__version__}
    drift = [f"{k} {RECORDED_WITH[k]} recorded, {here[k]} here" for k in RECORDED_WITH if RECORDED_WITH[k] != here[k]]
    if drift:
        pytest.fail(f"{case}: {' and '.join(wrong)} digests differ under another toolchain ({'; '.join(drift)}); "
                    "they depend on numpy's Generator streams, so re-record them with this toolchain")
    pytest.fail(f"{case}: {' and '.join(wrong)} digests differ with the recorded python {here['python']} and "
                f"numpy {here['numpy']}: behaviour changed ({got})")
