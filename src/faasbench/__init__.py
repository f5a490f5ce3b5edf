"""Application-centric FaaS benchmarking harness with simulated platforms.

Only the simulator needs numpy, so ``SimEnvironment`` is imported from
``simulator`` on its first access (a PEP 562 module ``__getattr__``), and a
process that only analyzes, validates or lists recipes never loads numpy.
"""

__version__ = "0.1.0"

from .applications import ApplicationSpec, InvalidApplication, UnknownBenchmark, validate
from .benchmarks import BENCHMARK_NAMES, builtin_profile, load_builtin
from .deployment import DeploymentConfig, DeploymentPlan, PlatformSpec, compile, deploy_all, teardown
from .workload import LoadProfile, execute, schedule

__all__ = [
    "ApplicationSpec",
    "BENCHMARK_NAMES",
    "DeploymentConfig",
    "DeploymentPlan",
    "InvalidApplication",
    "LoadProfile",
    "PlatformSpec",
    "SimEnvironment",
    "UnknownBenchmark",
    "builtin_profile",
    "compile",
    "deploy_all",
    "execute",
    "load_builtin",
    "schedule",
    "teardown",
    "validate",
]


def __getattr__(name: str):
    if name != "SimEnvironment":  # a submodule's name too, so that the import system then loads it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .simulator import SimEnvironment

    globals()[name] = SimEnvironment  # later reads find it without this call
    return SimEnvironment
