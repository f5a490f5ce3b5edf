import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faasbench import analysis, cli
from faasbench.applications import ApplicationSpec, validate
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.cli import EXIT_ANALYSIS, EXIT_CONFIG, EXIT_OK, main
from faasbench.deployment import DeploymentConfig
from faasbench.records import HEADER_LINE, INVOCATION, TraceRecord
from faasbench.recipes import recipe
from faasbench.runner import default_config
from faasbench.simulator import SimEnvironment
from faasbench.workload import LoadProfile

from conftest import serialize_record


def run_cli(*argv) -> int:
    return main(list(argv))


def find_run_dir(out: Path) -> Path:
    dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def test_recipes_list_and_emit(tmp_path, capsys):
    assert run_cli("recipes") == EXIT_OK
    listed = capsys.readouterr().out.split()
    assert "exp1-single-cloud" in listed and "exp4-coldstart" in listed

    assert run_cli("recipes", "exp3-three-way-factory", "--out", str(tmp_path)) == EXIT_OK
    cfg = tmp_path / "exp3-three-way-factory.config.json"
    prof = tmp_path / "exp3-three-way-factory.profile.json"
    assert cfg.exists() and prof.exists()
    parsed = json.loads(cfg.read_text())
    assert {p["id"] for p in parsed["platforms"]} == {"couch", "panel", "cushion"}


def test_recipes_unknown(tmp_path, capsys):
    assert run_cli("recipes", "exp9-nope", "--out", str(tmp_path)) == EXIT_CONFIG
    capsys.readouterr()
    # so is an empty name: only an omitted one lists the recipes
    assert run_cli("recipes", "", "--out", str(tmp_path / "out")) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("unknown recipe ''; known: exp1-single-cloud") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_validate_builtin_ok(capsys):
    assert run_cli("validate", "webshop") == EXIT_OK
    assert "17 functions" in capsys.readouterr().out


def test_validate_broken_app(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "functions": [
            {"name": "a", "trigger": "http-sync", "entryPoint": True,
             "body": [{"kind": "call", "target": "ghost"}]},
        ],
    }))
    assert run_cli("validate", str(bad)) == EXIT_CONFIG
    assert "UnknownTarget" in capsys.readouterr().out


@pytest.mark.parametrize("document, violations", [
    # bodies are unconditional: without the check, run would never go idle
    ({"functions": [{"name": "a", "trigger": "http-sync", "entryPoint": True,
                     "body": [{"kind": "call", "target": "b"}]},
                    {"name": "b", "trigger": "http-sync", "body": [{"kind": "call", "target": "a"}]}]},
     ["Cycle [a]: unbounded cycle a -> b -> a"]),
    ({"functions": [{"name": "a", "trigger": "http-sync", "entryPoint": True},
                    {"name": "b", "trigger": "http-sync"},
                    {"name": "c", "trigger": "http-sync"}]},
     ["Unreachable [b]: not reachable from any entry point", "Unreachable [c]: not reachable from any entry point"]),
    ({"functions": [{"name": "a", "trigger": "cron", "entryPoint": True}]},
     ["BadTriggerKind [a]: unknown trigger kind 'cron'", "AsyncEntryPoint [a]: entry points must be http-sync"]),
    ({"functions": [{"name": "a", "trigger": "event-async", "entryPoint": True}]},
     ["AsyncEntryPoint [a]: entry points must be http-sync"]),
    # a platform's networkLatency entry for "loadgen" is the load generator's
    # leg, so a store of that name would take the same entry
    ({"externalServices": ["loadgen"],
      "functions": [{"name": "a", "trigger": "http-sync", "entryPoint": True,
                     "body": [{"kind": "dbGet", "key": "k"}]}]},
     ["BadName: external service name 'loadgen' is reserved for the load generator"]),
], ids=["cycle", "two-unreachable", "bad-trigger-kind", "async-entry-point", "loadgen-service"])
def test_an_invalid_app_is_rejected_by_validate_and_run(tmp_path, capsys, document, violations):
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "bad", **document}))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "name": "one",
        "workflows": [{"name": "hit", "steps": [{"entry": "a"}]}],
        "phases": [{"kind": "burst", "durationSeconds": 1, "totalFlows": 1, "mix": {"hit": 1.0}}],
    }))
    assert run_cli("validate", str(app)) == EXIT_CONFIG
    assert capsys.readouterr().out.splitlines() == violations
    out = tmp_path / "out"
    assert run_cli("run", str(app), "--profile", str(profile), "--out", str(out)) == EXIT_CONFIG
    # run names every violation in one line, as run_benchmark's InvalidApplication does
    assert capsys.readouterr().err.splitlines() == [f"invalid application: {'; '.join(violations)}"]
    assert not out.exists()


@pytest.mark.parametrize("body, where", [
    ([{"kind": "compute", "duration": "constant(1)"}, {"kind": "compute", "duration": "constant(inf)"}],
     "function a: body step 1 (compute): "),
    ([{"kind": "parallelBlock", "branches": [[], [{"kind": "call", "target": "b"},
                                                  {"kind": "compute", "duration": "constant(inf)"}]]}],
     "function a: body step 0 (parallelBlock): branch 1 step 1 (compute): "),
], ids=["top-level", "in-a-branch"])
def test_validate_and_run_name_the_body_step_of_a_bad_distribution(tmp_path, capsys, body, where):
    app = tmp_path / "app.json"
    app.write_text(json.dumps({
        "name": "inf",
        "functions": [{"name": "a", "trigger": "http-sync", "entryPoint": True, "body": body},
                      {"name": "b", "trigger": "http-sync", "body": []}],
    }))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "name": "one",
        "workflows": [{"name": "hit", "steps": [{"entry": "a"}]}],
        "phases": [{"kind": "burst", "durationSeconds": 1, "totalFlows": 1, "mix": {"hit": 1.0}}],
    }))
    reason = f"{where}duration: constant(inf): parameters must be finite"
    assert run_cli("validate", str(app)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"cannot load application: {reason}\n"
    out = tmp_path / "out"
    assert run_cli("run", str(app), "--profile", str(profile), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {reason}\n"
    assert not out.exists()


# the last name holds a lone surrogate, which UTF-8 cannot encode
_BAD_NAMES = ["a\tb", "-", "", "a\nb", "a\r\nb", "a\rb", "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b", "a\ud800b"]
_BAD_NAME_IDS = ["tab", "dash", "empty", "newline", "crlf", "cr", "vertical-tab", "file-separator", "next-line",
                 "line-separator", "surrogate"]


def _write_app_and_profile(tmp_path, fn: str = "a", service: str | None = None) -> tuple[Path, Path]:
    body = [{"kind": "compute", "duration": "constant(1)"}]
    if service is not None:
        body.append({"kind": "dbGet", "key": "k"})
    app = tmp_path / "app.json"
    app.write_text(json.dumps({
        "name": "names",
        "externalServices": [] if service is None else [service],
        "functions": [{"name": fn, "trigger": "http-sync", "entryPoint": True, "body": body}],
    }))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "name": "five",
        "workflows": [{"name": "hit", "steps": [{"entry": fn}]}],
        "phases": [{"kind": "burst", "durationSeconds": 1, "totalFlows": 5, "mix": {"hit": 1.0}}],
    }))
    return app, profile


@pytest.mark.parametrize("field", ["function", "external service"])
@pytest.mark.parametrize("name", _BAD_NAMES, ids=_BAD_NAME_IDS)
def test_validate_and_run_reject_a_name_that_breaks_the_log(tmp_path, capsys, field, name):
    # the name lands in a column of every line it is logged in
    if field == "function":
        app, profile = _write_app_and_profile(tmp_path, fn=name)
    else:
        app, profile = _write_app_and_profile(tmp_path, service=name)
    reason = (f"BadName: {field} name {name!r} must be a non-empty UTF-8 encodable string other than '-', "
              "with no tab or line break")
    assert run_cli("validate", str(app)) == EXIT_CONFIG
    assert capsys.readouterr().out == reason + "\n"
    out = tmp_path / "out"
    assert run_cli("run", str(app), "--profile", str(profile), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"invalid application: {reason}\n"
    assert not out.exists()


def test_validate_and_run_reject_the_publisher_prefix(tmp_path, capsys):
    # deployment names the publisher it adds to a platform "__publisher_<id>"
    app, profile = _write_app_and_profile(tmp_path, fn="__publisher_x")
    reason = "BadName: function name '__publisher_x' starts with the reserved publisher prefix '__publisher_'"
    assert run_cli("validate", str(app)) == EXIT_CONFIG
    assert capsys.readouterr().out == reason + "\n"
    out = tmp_path / "out"
    assert run_cli("run", str(app), "--profile", str(profile), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"invalid application: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("pid, reason", [
    ("loadgen", "platform id 'loadgen' is reserved for the load generator"),
    ("keystore", "external service 'keystore' is also a platform id; one networkLatency entry cannot serve both"),
    *((name, f"platform id {name!r} must be a non-empty UTF-8 encodable string other than '-', with no whitespace")
      for name in [*_BAD_NAMES, "a b", "a\u3000b"]),
], ids=["loadgen", "store", *_BAD_NAME_IDS, "space", "ideographic-space"])
def test_run_rejects_a_platform_id_that_breaks_the_log(tmp_path, capsys, pid, reason):
    # "loadgen" would read every call as a load-generator root; the store's
    # name would make one networkLatency entry serve both the calls between
    # functions and the store steps; whitespace would also break the
    # "#dropped <id> <count>" line
    assert _run_with_platform_id(tmp_path, pid) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_a_bad_platform_id_is_named_before_the_errors_that_print_it(tmp_path, capsys):
    assert _run_with_platform_id(tmp_path, "a\nb", keepAliveSeconds=float("nan")) == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: platform id 'a\\nb' must be a non-empty UTF-8 "
                                       "encodable string other than '-', with no whitespace\n")


def _run_with_platform_id(tmp_path, pid: str, **platform_fields) -> int:
    """Exit code of a webshop run on exp1-single-cloud with its platform id replaced."""
    config = json.loads(recipe("exp1-single-cloud").config.to_json().replace('"cloud-a"', json.dumps(pid)))
    config["platforms"][0].update(platform_fields)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run_cli("run", "webshop", "--config", str(cfg), "--scale", "0.002", "--out", str(tmp_path / "out"))


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # in an ASCII locale with UTF-8 mode off, open() defaults to ASCII; the
    # application, its log and its reports must still be read and written as UTF-8
    app, profile = _write_app_and_profile(tmp_path, fn="registerCafé")
    for path in (app, profile):
        path.write_text(json.dumps(json.loads(path.read_text()), ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}

    def faasbench(*argv) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "faasbench.cli", *argv], env=env, capture_output=True,
                              encoding="utf-8", timeout=120)

    assert faasbench("validate", str(app)).returncode == EXIT_OK
    run = faasbench("run", str(app), "--profile", str(profile), "--seed", "7", "--out", str(tmp_path / "out"))
    assert run.returncode == EXIT_OK, run.stderr
    run_dir = find_run_dir(tmp_path / "out")
    assert "\tregisterCafé\t" in (run_dir / "raw.log").read_text(encoding="utf-8")
    analyze = faasbench("analyze", str(run_dir / "raw.log"), "--out", str(tmp_path / "again"))
    assert analyze.returncode == EXIT_OK, analyze.stderr
    reports = sorted((run_dir / "reports").iterdir())
    assert [p.name for p in reports] == sorted(p.name for p in (tmp_path / "again").iterdir())
    assert all(p.read_bytes() == (tmp_path / "again" / p.name).read_bytes() for p in reports)


def test_a_violation_naming_what_the_locale_cannot_encode_is_reported(tmp_path):
    # in an ASCII locale with UTF-8 mode off, a violation that quotes a
    # non-ASCII name is printed escaped, and validate exits 2 with no traceback
    app = tmp_path / "app.json"
    app.write_text(json.dumps({
        "name": "names",
        "externalServices": [],
        "functions": [{"name": "registerCafé", "trigger": "http-sync", "entryPoint": True,
                       "body": [{"kind": "call", "target": "nöpe"}]}],
    }, ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "faasbench.cli", "validate", str(app)], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "registerCaf\\xe9" in proc.stdout and "n\\xf6pe" in proc.stdout


def test_run_produces_artifacts_and_reports(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "webshop", "--seed", "7", "--scale", "0.002", "--out", str(out))
    assert code == EXIT_OK
    run_dir = find_run_dir(out)
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "raw.log").exists()
    assert (run_dir / "reports" / "summary.json").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["benchmark"] == "webshop" and manifest["scale"] == 0.002
    # the run's inputs themselves, the profile unscaled, and no paths
    app = load_builtin("webshop")
    assert manifest["application"] == json.loads(json.dumps(app.to_dict()))
    assert manifest["config"] == json.loads(default_config(app).to_json())
    assert manifest["profile"] == json.loads(builtin_profile("webshop").to_json())
    assert not {"configPath", "profilePath", "phases"} & manifest.keys()
    assert (run_dir / "raw.log").read_text().startswith(HEADER_LINE)


def test_the_inputs_a_manifest_embeds_rerun_the_same_log(tmp_path, streaming_run):
    # the application, config and profile written back to files, at the manifest's seed and scale
    manifest = json.loads((streaming_run / "manifest.json").read_text())
    for key in ("application", "config", "profile"):
        (tmp_path / f"{key}.json").write_text(json.dumps(manifest[key]))
    out = tmp_path / "out"
    assert run_cli("run", str(tmp_path / "application.json"), "--config", str(tmp_path / "config.json"),
                   "--profile", str(tmp_path / "profile.json"), "--seed", str(manifest["seed"]),
                   "--scale", repr(manifest["scale"]), "--out", str(out)) == EXIT_OK
    rerun = find_run_dir(out)
    assert (rerun / "raw.log").read_bytes() == (streaming_run / "raw.log").read_bytes()
    for report in (streaming_run / "reports").iterdir():
        assert (rerun / "reports" / report.name).read_bytes() == report.read_bytes()


def test_run_determinism_across_invocations(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "webshop", "--seed", "7", "--scale", "0.002", "--out", str(out_a)) == EXIT_OK
    assert run_cli("run", "webshop", "--seed", "7", "--scale", "0.002", "--out", str(out_b)) == EXIT_OK
    log_a = (find_run_dir(out_a) / "raw.log").read_bytes()
    log_b = (find_run_dir(out_b) / "raw.log").read_bytes()
    assert log_a == log_b


def test_run_with_recipe_files_emits_trigger_csv(tmp_path):
    assert run_cli("recipes", "exp3-three-way-factory", "--out", str(tmp_path)) == EXIT_OK
    out = tmp_path / "out"
    code = run_cli(
        "run", "smartfactory",
        "--config", str(tmp_path / "exp3-three-way-factory.config.json"),
        "--profile", str(tmp_path / "exp3-three-way-factory.profile.json"),
        "--seed", "3", "--scale", "0.05", "--out", str(out),
    )
    assert code == EXIT_OK
    run_dir = find_run_dir(out)
    trigger_csv = (run_dir / "reports" / "trigger_delays.csv").read_text()
    assert "couch->panel" in trigger_csv
    assert "panel->couch" in trigger_csv


def test_run_unknown_benchmark(tmp_path):
    assert run_cli("run", "shop", "--out", str(tmp_path)) == EXIT_CONFIG


def test_run_invalid_deployment_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "platforms": [{"id": "p1", "networkLatency": {"p1": "constant(1)", "loadgen": "constant(1)"}}],
        "assignment": {},  # nothing assigned
    }))
    out = tmp_path / "out"
    code = run_cli("run", "webshop", "--config", str(cfg), "--seed", "1",
                   "--scale", "0.002", "--out", str(out))
    assert code == EXIT_CONFIG


# flag -> the reason argparse gives after "argument <flag>: "
BAD_FLAGS = {
    "--scale=nan": "must be finite and > 0, got 'nan'",
    "--scale=inf": "must be finite and > 0, got 'inf'",
    "--scale=-inf": "must be finite and > 0, got '-inf'",
    "--scale=0": "must be finite and > 0, got '0'",
    "--scale=-1": "must be finite and > 0, got '-1'",
    "--scale=abc": "not a number: 'abc'",
    "--seed=-3": "must be >= 0, got '-3'",
    "--seed=x": "not an integer: 'x'",
    "--max-parse-errors=-1": "must be >= 0, got '-1'",
}


@pytest.mark.parametrize("flag", BAD_FLAGS)
def test_run_rejects_a_bad_scale_or_seed_at_the_boundary(tmp_path, capsys, flag):
    command = ("analyze", str(tmp_path / "raw.log")) if flag.startswith("--max-parse-errors") else ("run", "streaming")
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, flag, "--out", str(tmp_path / "out"))
    assert exc.value.code == EXIT_CONFIG
    # argparse prints the usage, then the one line that names the flag
    reason = f"faasbench {command[0]}: error: argument {flag.split('=')[0]}: {BAD_FLAGS[flag]}"
    assert capsys.readouterr().err.splitlines()[-1] == reason
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, reason", [
    ("keepAliveSeconds", float("nan"), "platform cloud-a: keepAliveSeconds must be finite, got nan"),
    ("keepAliveSeconds", 1e305,
     "platform cloud-a: keepAliveSeconds must be below 2**51 us (about 71 years), got 1e+305"),
    ("keepAliveSeconds", 2**51 / 1e6,
     "platform cloud-a: keepAliveSeconds must be below 2**51 us (about 71 years), got 2.2518e+09"),
    ("clockOffsetMs", float("nan"), "platform cloud-a: clockOffsetMs must be finite, got nan"),
    ("clockOffsetMs", float("-inf"), "platform cloud-a: clockOffsetMs must be finite, got -inf"),
    ("clockOffsetMs", 1e30, "platform cloud-a: clockOffsetMs must be within +-86400000 ms, got 1e+30"),
    ("clockOffsetMs", -1e307, "platform cloud-a: clockOffsetMs must be within +-86400000 ms, got -1e+307"),
    ("logLinesPerSecond", -5, "platform cloud-a: logLinesPerSecond must be an integer >= 1 or null, got -5"),
    ("logLinesPerSecond", float("nan"), "platform cloud-a: logLinesPerSecond must be an integer >= 1 or null, got nan"),
    ("logLinesPerSecond", 2.5, "platform cloud-a: logLinesPerSecond must be an integer >= 1 or null, got 2.5"),
    ("coldStartDelay", "constant(inf)", "platform cloud-a: coldStartDelay: constant(inf): parameters must be finite"),
    ("coldStartDelay", "constant(nan)", "platform cloud-a: coldStartDelay: constant(nan): parameters must be finite"),
    ("coldStartDelay", "lognormal(1e300,5)", "platform cloud-a: coldStartDelay: lognormal(1e+300,5): "
                                             "samples can reach 2**53 us (about 285 years), past microsecond precision"),
    ("coldStartDelay", 400, "platform cloud-a: coldStartDelay: cannot parse distribution: 400"),
    ("keepAliveSeconds", 0, "platform cloud-a: keepAliveSeconds must round to at least 1 us"),
    ("keepAliveSeconds", 1e-7, "platform cloud-a: keepAliveSeconds must round to at least 1 us"),
    ("keepAliveSeconds", -1e305, "platform cloud-a: keepAliveSeconds must round to at least 1 us"),
], ids=["nan-keep-alive", "huge-keep-alive", "keep-alive-2**51", "nan-clock-offset", "infinite-clock-offset", "huge-clock-offset",
        "overflowing-clock-offset", "negative-log-rate", "nan-log-rate", "fractional-log-rate", "infinite-cold-start",
        "nan-cold-start", "overflowing-cold-start", "numeric-cold-start", "zero-keep-alive",
        "sub-microsecond-keep-alive", "overflowing-negative-keep-alive"])
def test_run_names_the_out_of_range_config_field(tmp_path, capsys, field, value, reason):
    config = recipe("exp1-single-cloud").config.to_dict()
    config["platforms"][0][field] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # NaN and -Infinity as Python's json writes and reads them
    assert run_cli("run", "webshop", "--config", str(cfg), "--scale", "0.002",
                   "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {reason}\n"


def test_run_rejects_a_platform_listed_twice(tmp_path, capsys):
    config = recipe("exp4-coldstart").config.to_dict()
    config["platforms"].append(dict(config["platforms"][0], keepAliveSeconds=1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("run", "streaming", "--config", str(cfg), "--scale", "0.01",
                   "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: platform id 'cloud-a' is listed twice\n"
    assert not (tmp_path / "out").exists()


# document -> (text the first occurrence of which gains a repeat, the repeated key)
KEYS_GIVEN_TWICE = {
    "app": ('"entryPoint": true', '"entryPoint": false, "entryPoint": true', "entryPoint"),
    "config": ('"assignment": {', '"assignment": {"registerUser": "nowhere", ', "registerUser"),
    "profile": ('"thinkSeconds": 0.0', '"thinkSeconds": 0.0, "thinkSeconds": 5.0', "thinkSeconds"),
}


@pytest.mark.parametrize("document", KEYS_GIVEN_TWICE)
def test_a_key_given_twice_in_one_object_exits_in_one_line(tmp_path, capsys, document):
    # json.loads alone would keep the last value and run with it
    r = recipe("exp4-coldstart")
    doc = {"app": load_builtin(r.benchmark), "config": r.config, "profile": r.profile}[document].to_dict()
    old, new, key = KEYS_GIVEN_TWICE[document]
    text = json.dumps(doc)
    assert old in text
    path = tmp_path / "doc.json"
    path.write_text(text.replace(old, new, 1))
    out = tmp_path / "out"
    if document == "app":
        argv, prefix = ("validate", str(path)), "cannot load application"
    else:
        argv = ("run", r.benchmark, f"--{document}", str(path), "--scale", "0.01", "--out", str(out))
        prefix = "configuration error"
    assert run_cli(*argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"{prefix}: key {key!r} appears twice in one object\n"
    assert not out.exists()


def _without(doc: dict, path: tuple) -> dict:
    """``doc`` with the field at ``path`` (keys and list indexes) deleted."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    del node[last]
    return doc


def _first_call_step(app: dict) -> tuple:
    return next(("functions", f, "body", s) for f, fn in enumerate(app["functions"])
                for s, step in enumerate(fn["body"]) if step["kind"] == "call")


@pytest.mark.parametrize("command, field, where", [
    ("config", "id", ""),
    ("profile", "kind", ""),
    ("validate", "name", ""),
    ("validate", "target", "function frontend: body step 1 (call): "),
], ids=["platform-id", "phase-kind", "function-name", "call-target"])
def test_a_missing_required_field_is_named_in_one_line(tmp_path, capsys, command, field, where):
    doc_path = tmp_path / "doc.json"
    out = tmp_path / "out"
    if command == "validate":
        app = load_builtin("webshop").to_dict()
        path = ("functions", 0, "name") if field == "name" else _first_call_step(app) + ("target",)
        doc_path.write_text(json.dumps(_without(app, path)))
        argv, prefix = ("validate", str(doc_path)), "cannot load application"
    else:
        if command == "config":
            doc = recipe("exp1-single-cloud").config.to_dict()
            path = ("platforms", 0, "id")
        else:
            doc = builtin_profile("webshop").to_dict()
            path = ("phases", 0, "kind")
        doc_path.write_text(json.dumps(_without(doc, path)))
        argv, prefix = ("run", "webshop", f"--{command}", str(doc_path), "--out", str(out)), "configuration error"
    assert run_cli(*argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"{prefix}: {where}missing required field {field!r}\n"
    assert not out.exists()


def _changed(doc, path: tuple, value):
    """``doc`` with the value at ``path`` (keys and list indexes) replaced;
    the empty path replaces the whole document."""
    if not path:
        return value
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _shipped(command: str, bench: str):
    if command == "validate":
        return load_builtin(bench).to_dict()
    if command == "config":
        return recipe("exp1-single-cloud").config.to_dict()
    return builtin_profile(bench).to_dict()


@pytest.mark.parametrize("command, bench, path, value, reason", [
    ("validate", "webshop", (), {"name": "x", "functions": ["f"]}, 'functions[0] must be an object, got "f"'),
    ("validate", "webshop", (), [1], "expected an object, got [1]"),
    ("validate", "webshop", ("functions",), {"a": 1}, 'functions must be an array, got {"a": 1}'),
    ("validate", "webshop", ("functions", 0, "body"), "compute",
     'function frontend: body must be an array, got "compute"'),
    ("validate", "webshop", ("functions", 0, "body", 1, "target"), ["b"],
     'function frontend: body step 1 (call): target must be a string, got ["b"]'),
    ("validate", "webshop", ("functions", 0, "entryPoint"), "no",
     'function frontend: entryPoint must be true or false, got "no"'),
    ("validate", "webshop", ("externalServices",), "kv", 'externalServices must be an array, got "kv"'),
    ("validate", "webshop", ("functions", 0, "body", 1, "kind"), "sleep",
     "function frontend: body step 1 (sleep): unknown body step kind: 'sleep'"),
    ("validate", "webshop", ("functions", 0, "body", 0, "duration"), "exponential(-1)",
     "function frontend: body step 0 (compute): duration: exponential(mean) requires mean >= 0: (-1.0,)"),
    ("validate", "webshop", ("functions", 0, "body", 0, "duration"), "constant(x)",
     "function frontend: body step 0 (compute): duration: bad distribution arguments in 'constant(x)'"),
    ("config", "webshop", ("platforms", 0, "networkLatency"), "constant(1)",
     'platform cloud-a: networkLatency must be an object, got "constant(1)"'),
    ("config", "webshop", ("platforms",), "x", 'platforms must be an array, got "x"'),
    ("config", "webshop", ("assignment",), [1], "assignment must be an object, got [1]"),
    ("config", "webshop", ("platforms", 0, "keepAliveSeconds"), "300",
     'platform cloud-a: keepAliveSeconds must be a number, got "300"'),
    ("config", "webshop", ("platforms", 0, "keepAliveSeconds"), True,
     "platform cloud-a: keepAliveSeconds must be a number, got true"),
    ("config", "webshop", (), [1], "expected an object, got [1]"),
    ("profile", "webshop", ("phases",), "x", 'phases must be an array, got "x"'),
    ("profile", "webshop", ("phases", 0, "mix"), [1], "mix must be an object, got [1]"),
    ("profile", "webshop", ("phases", 0, "mix", "browse"), "1", 'mix weights: browse must be a number, got "1"'),
    ("profile", "streaming", ("phases", 0, "totalFlows"), float("inf"), "totalFlows must be an integer, got Infinity"),
    ("profile", "streaming", ("phases", 0, "totalFlows"), "5", 'totalFlows must be an integer, got "5"'),
    ("profile", "webshop", (), [1], "expected an object, got [1]"),
    ("profile", "webshop", ("phases", 0, "durationSeconds"), 1e305,
     "durationSeconds must be within +-2**51 us (about 71 years), got 1e+305"),
    ("profile", "webshop", ("phases", 0, "durationSeconds"), -5, "phases[0].durationSeconds must be >= 0"),
    ("profile", "smartcity", ("phases", 0, "series", 1, "intervalSeconds"), 1e-7,
     "phases[0].series[1].intervalSeconds must round to at least 1 us"),
    ("profile", "smartcity", ("phases", 0, "series", 0, "trainCount"), 0, "phases[0].series[0].trainCount must be >= 1"),
    ("profile", "smartcity", ("phases", 0, "series", 3, "trainSpacingSeconds"), 0,
     "phases[0].series[3].trainSpacingSeconds must round to at least 1 us when trainCount > 1"),
    ("profile", "webshop", ("workflows", 0, "steps", 0, "thinkSeconds"), -1, "workflow 'browse': negative think time"),
    ("profile", "streaming", ("phases", 0, "totalFlows"), 0, "burst needs totalFlows >= 1"),
    ("profile", "webshop", ("phases", 0, "kind"), "ramp", "unknown phase kind 'ramp'"),
    # movementPlan is reached through calls, but a series may start only at an entry point
    ("profile", "smartcity", ("phases", 0, "series", 0, "entry"), "movementPlan",
     "periodic series targets non-entry function 'movementPlan'"),
], ids=["function-not-an-object", "app-not-an-object", "functions-not-an-array", "body-not-an-array",
        "target-not-a-string", "entry-point-not-a-boolean", "services-not-an-array", "unknown-step-kind",
        "negative-exponential-mean", "unparsable-constant", "latency-not-an-object",
        "platforms-not-an-array", "assignment-not-an-object", "keep-alive-a-string", "keep-alive-a-boolean",
        "config-not-an-object", "phases-not-an-array", "mix-not-an-object", "mix-weight-a-string",
        "infinite-total-flows", "total-flows-a-string", "profile-not-an-object", "huge-phase-duration",
        "negative-phase-duration", "sub-microsecond-interval", "empty-train", "zero-train-spacing",
        "negative-think-time", "zero-total-flows", "unknown-phase-kind", "series-at-a-non-entry"])
def test_a_field_of_the_wrong_type_is_named_in_one_line(tmp_path, capsys, command, bench, path, value, reason):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_changed(_shipped(command, bench), path, value)))
    out = tmp_path / "out"
    if command == "validate":
        argv, prefix = ("validate", str(doc_path)), "cannot load application"
    else:
        argv, prefix = ("run", bench, f"--{command}", str(doc_path), "--out", str(out)), "configuration error"
    assert run_cli(*argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"{prefix}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("scale, flows, reason", [
    ("1e308", None, "durationSeconds scaled by 1e+308 reaches 2**51 us (about 71 years)"),
    ("1e20", None, "durationSeconds scaled by 1e+20 reaches 2**51 us (about 71 years)"),
    ("0.002", 10**400, "totalFlows must be below 2**53"),
], ids=["overflowing-scale", "endless-scale", "huge-total-flows"])
def test_a_profile_past_2_53_is_named_in_one_line(tmp_path, capsys, scale, flows, reason):
    doc = builtin_profile("streaming").to_dict()
    if flows is not None:
        doc["phases"][0]["totalFlows"] = flows
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("run", "streaming", "--profile", str(profile), "--scale", scale, "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {reason}\n"
    assert not out.exists()


def test_a_scale_that_rounds_every_duration_to_zero_exits_in_one_line(tmp_path, capsys):
    # the scaled profile is checked as it is built, before any run directory
    out = tmp_path / "out"
    assert run_cli("run", "webshop", "--scale", "1e-10", "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: total duration must be > 0\n"
    assert not out.exists()


def test_a_negative_mix_weight_exits_in_one_line(tmp_path, capsys):
    # the weights sum to 1, and a burst of them would pick hit every time
    app, profile = _write_app_and_profile(tmp_path)
    doc = json.loads(profile.read_text())
    doc["workflows"].append({"name": "miss", "steps": [{"entry": "a"}]})
    doc["phases"][0]["mix"] = {"hit": 2.0, "miss": -1.0}
    profile.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("run", str(app), "--profile", str(profile), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: phases[0].mix.miss must be >= 0, got -1\n"
    assert not out.exists()


def test_a_workflow_with_no_steps_exits_in_one_line(tmp_path, capsys):
    # a burst of it would count instances that emit nothing
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "name": "empty",
        "workflows": [{"name": "idle", "steps": []}],
        "phases": [{"kind": "burst", "durationSeconds": 1, "totalFlows": 3, "mix": {"idle": 1.0}}],
    }))
    out = tmp_path / "out"
    assert run_cli("run", "webshop", "--profile", str(profile), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: workflow 'idle' has no steps\n"
    assert not out.exists()


def test_run_validates_the_application_once(tmp_path, monkeypatch):
    # wrap validate wherever a module of the package imported it
    calls = []

    def counted(app):
        calls.append(app.name)
        return validate(app)

    modules = [m for name, m in sys.modules.items()
               if name.startswith("faasbench.") and getattr(m, "validate", None) is validate]
    assert {m.__name__ for m in modules} >= {"faasbench.cli", "faasbench.runner"}
    for module in modules:
        monkeypatch.setattr(module, "validate", counted)
    assert run_cli("run", "webshop", "--scale", "0.002", "--out", str(tmp_path / "out")) == EXIT_OK
    assert calls == ["webshop"]


def _with_sizes(steps: list) -> None:
    for step in steps:
        step.update(payloadBytes=256, valueSize=64, sizeBytes=128)
        for branch in step.get("branches", []):
            _with_sizes(branch)


@pytest.mark.parametrize("name", ["exp1-single-cloud", "exp3-three-way-factory", "exp4-coldstart"])
def test_the_unread_size_fields_load_and_are_not_written_back(name):
    # payloadBytes, valueSize, sizeBytes and tracingOverheadBytes changed
    # nothing in a run; files that carry them still load
    r = recipe(name)
    app, config, profile = load_builtin(r.benchmark).to_dict(), r.config.to_dict(), r.profile.to_dict()
    sized_app, sized_config, sized_profile = json.loads(json.dumps([app, config, profile]))
    for fn in sized_app["functions"]:
        _with_sizes(fn["body"])
    sized_config["tracingOverheadBytes"] = 64
    for wf in sized_profile["workflows"]:
        for step in wf["steps"]:
            step["payloadBytes"] = 512
    for cls, plain, sized in [(ApplicationSpec, app, sized_app), (DeploymentConfig, config, sized_config),
                              (LoadProfile, profile, sized_profile)]:
        spec = cls.from_json(json.dumps(sized))
        assert spec == cls.from_json(json.dumps(plain))
        assert spec.to_dict() == plain


@pytest.mark.parametrize("flag", ["app", "--config", "--profile"])
def test_an_input_path_that_is_a_directory_exits_in_one_line(tmp_path, capsys, flag):
    argv = ("validate", str(tmp_path)) if flag == "app" else ("run", "webshop", flag, str(tmp_path))
    assert run_cli(*argv, *(("--out", str(tmp_path / "out")) if flag != "app" else ())) == EXIT_CONFIG
    prefix = "cannot load application" if flag == "app" else "configuration error"
    assert capsys.readouterr().err == f"{prefix}: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("flag", ["app", "run-app", "--config", "--profile"])
def test_an_input_nested_too_deeply_exits_in_one_line(tmp_path, capsys, flag):
    # past Python's recursion limit, so json.loads raises RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"app": ("validate", str(deep)), "run-app": ("run", str(deep)),
            "--config": ("run", "webshop", "--config", str(deep)),
            "--profile": ("run", "webshop", "--profile", str(deep))}[flag]
    assert run_cli(*argv, *(("--out", str(tmp_path / "out")) if flag != "app" else ())) == EXIT_CONFIG
    prefix = "cannot load application" if flag == "app" else "configuration error"
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}: JSON nested too deeply: maximum recursion depth") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "run-env", "recipes", "analyze"])
def test_an_out_that_names_a_file_exits_in_one_line(tmp_path, capsys, monkeypatch, command):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out_flag = ("--out", str(taken))
    if command == "run-env":
        monkeypatch.setenv("FAASBENCH_OUT", str(taken))
        command, out_flag = "run", ()

    def no_simulation(self):
        raise AssertionError("the run simulated before it found --out unusable")

    def no_parse(*args):
        raise AssertionError("the log was parsed before --out was found unusable")

    monkeypatch.setattr(SimEnvironment, "run_until_idle", no_simulation)
    if command == "run":
        argv = ("run", "webshop", "--scale", "0.002", *out_flag)
    elif command == "recipes":
        argv = ("recipes", "exp1-single-cloud", *out_flag)
    else:
        log = tmp_path / "raw.log"
        log.write_text(HEADER_LINE + "\n")
        argv = ("analyze", str(log), *out_flag)
        monkeypatch.setattr(analysis, "parse_logs", no_parse)
    assert run_cli(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1 and str(taken) in err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("name, platform, entry", [
    ("exp1-single-cloud", "cloud-a", "keystore"),
    ("exp1-single-cloud", "cloud-a", "loadgen"),
    ("exp3-three-way-factory", "couch", "panel"),
], ids=["store", "entry-point", "publish"])
def test_run_rejects_a_missing_network_leg_before_the_run(tmp_path, capsys, name, platform, entry):
    r = recipe(name)
    doc = r.config.to_dict()
    del next(p for p in doc["platforms"] if p["id"] == platform)["networkLatency"][entry]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("run", r.benchmark, "--config", str(cfg), "--scale", "0.01", "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: platform {platform}: no networkLatency entry for {entry!r}\n"
    assert not out.exists()


def test_analyze_matches_pipeline_reports(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "webshop", "--seed", "7", "--scale", "0.002", "--out", str(out)) == EXIT_OK
    run_dir = find_run_dir(out)
    redo = tmp_path / "redo"
    assert run_cli("analyze", str(run_dir / "raw.log"), "--out", str(redo), "--charts") == EXIT_OK
    original = json.loads((run_dir / "reports" / "summary.json").read_text())
    offline = json.loads((redo / "summary.json").read_text())
    assert offline == original
    with_data = {m for m, groups in offline["metrics"].items() if any(g["count"] for g in groups.values())}
    assert with_data and {p.stem for p in (redo / "charts").glob("*.png")} == with_data


REPORT_FILES = ("summary.json", "summary.csv", "trees.csv", "trigger_delays.csv", "publish_latency.csv",
                "cold_starts.csv", "timeline.csv")


@pytest.mark.parametrize("case", ["webshop", "exp3-three-way-factory"])
def test_a_cli_run_keeps_no_truth_and_writes_what_a_run_that_keeps_it_writes(case, tmp_path, monkeypatch, capsys):
    if case == "webshop":
        bench, argv = case, []
        app, config, profile = load_builtin(bench), default_config(load_builtin(bench)), builtin_profile(bench)
    else:
        r = recipe(case)
        bench, app, config, profile = r.benchmark, load_builtin(r.benchmark), r.config, r.profile
        (tmp_path / "config.json").write_text(json.dumps(config.to_dict()), encoding="utf-8")
        (tmp_path / "profile.json").write_text(json.dumps(profile.to_dict()), encoding="utf-8")
        argv = ["--config", str(tmp_path / "config.json"), "--profile", str(tmp_path / "profile.json")]
    results = []

    def recording_run_benchmark(*args, **kwargs):
        results.append(cli_run_benchmark(*args, **kwargs))
        return results[-1]

    cli_run_benchmark = cli.run_benchmark
    monkeypatch.setattr(cli, "run_benchmark", recording_run_benchmark)
    assert run_cli("run", bench, *argv, "--seed", "7", "--scale", "0.01", "--out", str(tmp_path / "cli")) == EXIT_OK
    (result,) = results
    assert result.truth is None and result.analysis.trees is None
    kept = cli_run_benchmark(app, config, profile, seed=7, scale=0.01, out_dir=tmp_path / "kept", benchmark_name=bench)
    assert kept.truth.invocations and len(kept.analysis.trees) == result.analysis.tree_count > 0
    assert result.log_path.read_bytes() == kept.log_path.read_bytes()
    for name in REPORT_FILES:
        assert (result.run_dir / "reports" / name).read_bytes() == (kept.run_dir / "reports" / name).read_bytes(), name
    complete = result.analysis.complete_trees
    assert f"{complete}/{result.analysis.tree_count} complete trees" in capsys.readouterr().out


def test_analyze_charts_a_range_below_float_precision(tmp_path):
    # two executions of 2**53 and 2**53 + 3 us: float ticks round past the range
    lines = [serialize_record(TraceRecord("r1", "p1", INVOCATION, "f", "c1", f"p{i}", 0, end, executor_key="e1",
                                          cold_start=i == 0))
             for i, end in enumerate((2 ** 53, 2 ** 53 + 3))]
    log = tmp_path / "raw.log"
    log.write_text("\n".join([HEADER_LINE, *lines]) + "\n")
    assert run_cli("analyze", str(log), "--out", str(tmp_path / "r"), "--charts") == EXIT_OK
    assert (tmp_path / "r" / "charts" / "exec_duration.png").exists()


def test_analyze_missing_file(tmp_path):
    assert run_cli("analyze", str(tmp_path / "nope.log")) == EXIT_CONFIG


# case -> (path, value) of one change to the streaming run's manifest
MANIFEST_CHANGES = {
    "profile-duration-a-string": (("profile", "phases", 3, "durationSeconds"), "0"),
    "profile-flows-a-fraction": (("profile", "phases", 3, "totalFlows"), 0.5),
    "profile-null": (("profile",), None),
    "profile-empty": (("profile",), {}),
    "seed-a-string": (("seed",), "seven"),
    "scale-zero": (("scale",), 0),
    "scale-negative": (("scale",), -0.5),
    "manifest-an-array": ((), [1]),
}


BAD_ANALYZE_INPUTS = [
    ("directory", EXIT_CONFIG, "", ""),
    ("manifest-without-run-id", EXIT_ANALYSIS, "manifest.json", "missing required field 'runId'"),
    ("manifest-not-json", EXIT_ANALYSIS, "manifest.json", ""),
    ("manifest-nested-too-deep", EXIT_ANALYSIS, "manifest.json", "recursion"),
    ("log-not-utf8", EXIT_ANALYSIS, "raw.log", "not UTF-8"),
    ("profile-duration-a-string", EXIT_ANALYSIS, "manifest.json",
     'profile: durationSeconds must be a number, got "0"'),
    ("profile-flows-a-fraction", EXIT_ANALYSIS, "manifest.json", "profile: totalFlows must be an integer, got 0.5"),
    ("profile-null", EXIT_ANALYSIS, "manifest.json", "profile must be an object, got null"),
    ("profile-empty", EXIT_ANALYSIS, "manifest.json", "profile: profile has no phases"),
    ("seed-a-string", EXIT_ANALYSIS, "manifest.json", 'seed must be an integer, got "seven"'),
    ("scale-zero", EXIT_ANALYSIS, "manifest.json", "not a run manifest: scale must be > 0, got 0\n"),
    ("scale-negative", EXIT_ANALYSIS, "manifest.json", "not a run manifest: scale must be > 0, got -0.5\n"),
    ("manifest-an-array", EXIT_ANALYSIS, "manifest.json", "expected an object, got [1]"),
    ("manifest-with-a-key-twice", EXIT_ANALYSIS, "manifest.json", "key 'runId' appears twice in one object"),
]


@pytest.mark.parametrize("case, code, named, words", BAD_ANALYZE_INPUTS, ids=[c[0] for c in BAD_ANALYZE_INPUTS])
def test_analyze_ends_in_one_line_on_bad_input(tmp_path, capsys, streaming_run, case, code, named, words):
    # ``named`` is the file the line must name, relative to the run directory
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    log = run_dir / "raw.log"
    log.write_text(HEADER_LINE + "\n")
    if case in MANIFEST_CHANGES:
        # the streaming run's profile ends in a burst, so analyze reads every field of its phases[3]
        log.write_bytes((streaming_run / "raw.log").read_bytes())
        manifest = json.loads((streaming_run / "manifest.json").read_text())
        (run_dir / "manifest.json").write_text(json.dumps(_changed(manifest, *MANIFEST_CHANGES[case])))
    elif case == "manifest-without-run-id":
        (run_dir / "manifest.json").write_text(json.dumps({"benchmark": "webshop", "profile": {}}))
    elif case == "manifest-with-a-key-twice":
        (run_dir / "manifest.json").write_text('{"runId": "a", "runId": "b", "benchmark": "webshop", "profile": {}}')
    elif case == "manifest-not-json":
        (run_dir / "manifest.json").write_text("{not json")
    elif case == "manifest-nested-too-deep":
        (run_dir / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
    elif case == "log-not-utf8":
        log.write_bytes(HEADER_LINE.encode() + b"\n\xff\xfe\n")
    target = run_dir if case == "directory" else log
    assert run_cli("analyze", str(target), "--out", str(tmp_path / "r")) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(run_dir / named) in err and words in err, err


NO_PHASES = "no phases: no manifest.json with a profile beside the log; cold_starts.csv and timeline.csv list none\n"


@pytest.mark.parametrize("layout", ["old", "new", "none"])
def test_analyze_says_when_it_has_no_phases(tmp_path, capsys, streaming_run, layout):
    # a manifest written before the inputs were embedded holds the files'
    # paths and the phase windows, and no profile: it analyzes without phases
    (tmp_path / "raw.log").write_bytes((streaming_run / "raw.log").read_bytes())
    manifest = json.loads((streaming_run / "manifest.json").read_text())
    if layout == "old":
        for key in ("application", "config", "profile"):
            del manifest[key]
        manifest.update(configPath="<default-single-platform>", profilePath="<builtin-default>",
                        phases=[{"name": "0:burst", "kind": "burst", "startUs": 0, "endUs": 1}])
    if layout != "none":
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("analyze", str(tmp_path / "raw.log"), "--out", str(tmp_path / "r")) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith(NO_PHASES) is (layout != "new")
    phases = (tmp_path / "r" / "cold_starts.csv").read_text().splitlines()[1:]
    assert phases == ([] if layout != "new" else
                      (streaming_run / "reports" / "cold_starts.csv").read_text().splitlines()[1:])
    assert len(phases) == (4 if layout == "new" else 0)


def test_analyze_empty_file_with_header(tmp_path, capsys):
    log = tmp_path / "raw.log"
    log.write_text(HEADER_LINE + "\n")
    assert run_cli("analyze", str(log), "--out", str(tmp_path / "r")) == EXIT_OK
    assert "0 records" in capsys.readouterr().out


def test_analyze_truncated_file_partial_results(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "webshop", "--seed", "7", "--scale", "0.002", "--out", str(out)) == EXIT_OK
    raw = (find_run_dir(out) / "raw.log").read_text().splitlines()
    truncated = tmp_path / "trunc.log"
    keep = len(raw) // 2
    truncated.write_text("\n".join(raw[:keep]) + "\n" + raw[keep][: len(raw[keep]) // 2] + "\n")
    redo = tmp_path / "redo"
    code = run_cli("analyze", str(truncated), "--out", str(redo))
    assert code == EXIT_ANALYSIS  # parse errors beyond the default threshold
    summary = json.loads((redo / "summary.json").read_text())
    assert summary["parseErrors"] >= 1
    assert summary["records"] > 0  # partial results still produced
    code = run_cli("analyze", str(truncated), "--out", str(redo), "--max-parse-errors", "10")
    assert code == EXIT_OK


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FAASBENCH_OUT", str(tmp_path / "envout"))
    assert run_cli("run", "smartfactory", "--seed", "2", "--scale", "0.02") == EXIT_OK
    assert (tmp_path / "envout").exists()


def test_run_custom_application_file(tmp_path):
    # a user-supplied app + profile runs with the generated default config
    app = {
        "name": "ping",
        "externalServices": ["keystore"],
        "functions": [
            {"name": "gate", "trigger": "http-sync", "entryPoint": True,
             "body": [
                 {"kind": "compute", "duration": "constant(1)"},
                 {"kind": "call", "target": "store"},
             ]},
            {"name": "store", "trigger": "http-sync",
             "body": [{"kind": "dbSet", "key": "hit", "valueSize": 64}]},
        ],
    }
    profile = {
        "name": "ping-profile",
        "workflows": [{"name": "hit", "steps": [{"entry": "gate", "payloadBytes": 64}]}],
        "phases": [{"kind": "burst", "durationSeconds": 5, "totalFlows": 20, "mix": {"hit": 1.0}}],
    }
    app_path = tmp_path / "app.json"
    profile_path = tmp_path / "profile.json"
    app_path.write_text(json.dumps(app))
    profile_path.write_text(json.dumps(profile))
    out = tmp_path / "out"
    code = run_cli("run", str(app_path), "--profile", str(profile_path),
                   "--seed", "1", "--out", str(out))
    assert code == EXIT_OK
    summary = json.loads((find_run_dir(out) / "reports" / "summary.json").read_text())
    assert summary["trees"]["total"] == 20 and summary["trees"]["incomplete"] == 0


def test_run_with_charts(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "smartfactory", "--seed", "2", "--scale", "0.02",
                   "--out", str(out), "--charts")
    assert code == EXIT_OK
    charts = find_run_dir(out) / "reports" / "charts"
    assert (charts / "trigger_delay.png").exists()
    assert (charts / "exec_duration.png").exists()


def test_rerun_into_same_out_dir_gets_fresh_directory(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "smartfactory", "--seed", "2", "--scale", "0.02", "--out", str(out)) == EXIT_OK
    assert run_cli("run", "smartfactory", "--seed", "2", "--scale", "0.02", "--out", str(out)) == EXIT_OK
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(dirs) == 2
    assert dirs[1] == f"{dirs[0]}-2"  # same run id, suffixed directory
    assert (out / dirs[0] / "raw.log").read_bytes() == (out / dirs[1] / "raw.log").read_bytes()


def test_run_custom_application_requires_profile(tmp_path):
    app_path = tmp_path / "app.json"
    app_path.write_text(json.dumps({
        "name": "solo",
        "functions": [{"name": "f", "trigger": "http-sync", "entryPoint": True,
                       "body": [{"kind": "compute", "duration": "constant(1)"}]}],
    }))
    assert run_cli("run", str(app_path), "--out", str(tmp_path / "out")) == EXIT_CONFIG


def test_deep_sync_chain_runs_to_completion(tmp_path, monkeypatch):
    # far deeper than Python's recursion limit: linking, walking and
    # decomposing the tree must not recurse per level
    depth = 3000
    functions = []
    for i in range(depth):
        body = [{"kind": "compute", "duration": "constant(1)"}]
        if i + 1 < depth:
            body.append({"kind": "call", "target": f"f{i + 1}"})
        functions.append({"name": f"f{i}", "trigger": "http-sync", "entryPoint": i == 0, "body": body})
    profile = {
        "name": "one-chain",
        "workflows": [{"name": "chain", "steps": [{"entry": "f0"}]}],
        "phases": [{"kind": "burst", "durationSeconds": 1, "totalFlows": 1, "mix": {"chain": 1.0}}],
    }
    app_path = tmp_path / "chain.json"
    profile_path = tmp_path / "profile.json"
    app_path.write_text(json.dumps({"name": "chain", "functions": functions}))
    profile_path.write_text(json.dumps(profile))
    results = []

    def run_and_keep(*args, keep_truth, **kwargs):
        # the CLI keeps no truth and no trees; this run keeps both, to check them
        assert keep_truth is False
        results.append(cli_run_benchmark(*args, keep_truth=True, **kwargs))
        return results[-1]

    cli_run_benchmark = cli.run_benchmark
    monkeypatch.setattr(cli, "run_benchmark", run_and_keep)
    out = tmp_path / "out"
    assert run_cli("run", str(app_path), "--profile", str(profile_path), "--seed", "1", "--out", str(out)) == EXIT_OK

    (result,) = results
    (tree,) = result.analysis.trees
    assert tree.complete and sum(1 for _ in tree.nodes()) == depth
    (bd,) = result.analysis.breakdowns
    metrics = result.analysis.metrics
    assert bd.conservation_residual_us == 0
    assert sum(sum(g.values()) for g in metrics["network"].values()) == depth - 1
    assert sum(sum(g.values()) for g in metrics["compute"].values()) == depth
    assert tree.edge_set() == set(result.truth.edges)
    summary = json.loads((find_run_dir(out) / "reports" / "summary.json").read_text())
    assert summary["trees"] == {"total": 1, "complete": 1, "incomplete": 0}
