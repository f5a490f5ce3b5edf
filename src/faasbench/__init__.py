"""Application-centric FaaS benchmarking harness with simulated platforms.

The package exports nothing but its version: import what you need from its
modules, e.g. ``from faasbench.benchmarks import load_builtin`` or ``from
faasbench import runner``.
"""

__version__ = "0.1.0"
