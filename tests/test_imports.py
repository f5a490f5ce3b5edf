"""No faasbench process loads numpy: running, analyzing, validating, listing
recipes and drawing charts all run without it, since ``faasbench.rng`` draws
numpy's streams with the standard library. The tests alone import numpy."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import faasbench
from faasbench import cli, runner, simulator
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.cli import EXIT_RUN

# a fresh interpreter imports the runner and the CLI, evaluates one check
# with the run's raw.log and an output directory, and prints whether it held
# and whether numpy was loaded
_CALL = """
import sys
from faasbench import cli, runner
log, out = sys.argv[2:4]
print(eval(sys.argv[1]), "numpy" in sys.modules)
"""


@pytest.mark.parametrize("check", [
    "True",
    "cli.main(['run', 'streaming', '--scale', '0.002', '--out', out]) == 0",
    "cli.main(['analyze', log, '--out', out]) == 0",
    "cli.main(['analyze', log, '--out', out, '--charts']) == 0",
    "cli.main(['validate', 'webshop']) == 0",
    "cli.main(['recipes', 'exp3-three-way-factory', '--out', out]) == 0",
    "runner.analyze_file(log, out, charts=True).parse.records > 0",
], ids=["import", "run", "analyze", "analyze-charts", "validate", "recipes", "analyze_file"])
def test_no_numpy_outside_the_simulator(streaming_run, tmp_path, check):
    proc = _python(_CALL, check, str(streaming_run / "raw.log"), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False"  # the check held, and numpy was not loaded
    if "charts" in check:
        assert list(tmp_path.glob("charts/*.png"))


# a fresh interpreter in which ``import numpy`` fails runs and analyzes
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy raises ImportError
from pathlib import Path
from faasbench import cli
out = Path(sys.argv[1])
assert cli.main(["run", "webshop", "--scale", "0.002", "--out", str(out / "runs"), "--charts"]) == 0
[log] = (out / "runs").glob("*/raw.log")
assert cli.main(["analyze", str(log), "--out", str(out / "offline"), "--charts"]) == 0
print((out / "offline" / "summary.json").read_bytes() == (log.parent / "reports" / "summary.json").read_bytes())
"""


def test_a_run_and_its_analysis_reach_no_numpy(tmp_path):
    proc = _python(_WITHOUT_NUMPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(faasbench.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, encoding="utf-8",
                          timeout=120)


def test_run_benchmark_builds_the_environment_class_assigned_to_runner(tmp_path, monkeypatch):
    built = []

    class CountedEnvironment(runner.SimEnvironment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(type(self))

    monkeypatch.setattr(runner, "SimEnvironment", CountedEnvironment)
    app = load_builtin("streaming")
    runner.run_benchmark(app, runner.default_config(app), builtin_profile("streaming"), seed=7, out_dir=tmp_path,
                         scale=0.002)
    assert built == [CountedEnvironment]


def test_runner_and_cli_use_the_simulators_names():
    assert runner.SimEnvironment is simulator.SimEnvironment
    assert cli.SimulationError is simulator.SimulationError
    # the package itself holds its version and its submodules
    assert [name for name, value in vars(faasbench).items()
            if not name.startswith("__") and not isinstance(value, ModuleType)] == []
    assert not hasattr(faasbench, "SimEnvironment")


def test_a_simulation_error_exits_4(tmp_path, monkeypatch, capsys):
    def stuck(self):
        raise simulator.SimulationError("stuck")

    monkeypatch.setattr(simulator.SimEnvironment, "run_until_idle", stuck)
    assert cli.main(["run", "streaming", "--scale", "0.002", "--out", str(tmp_path)]) == EXIT_RUN
    assert capsys.readouterr().err == "run failure: stuck\n"
