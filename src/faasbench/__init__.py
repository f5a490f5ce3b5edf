"""Application-centric FaaS benchmarking harness with simulated platforms."""

__version__ = "0.1.0"

from .applications import ApplicationSpec, InvalidApplication, UnknownBenchmark, validate
from .benchmarks import BENCHMARK_NAMES, builtin_profile, load_builtin
from .deployment import DeploymentConfig, DeploymentPlan, PlatformSpec, compile, deploy_all, teardown
from .simulator import SimEnvironment
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
