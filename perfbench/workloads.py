"""The benchmark's workloads: which application, deployment config, load
profile and scale each one runs.

This module imports nothing from faasbench at load time, so the parent
process can list the workloads without the package on its path.
"""

from __future__ import annotations

PINNED_SEED = 7

# name -> (built-in application, recipe or None for runner.default_config, --scale)
WORKLOADS = {
    "webshop-sync": ("webshop", None, 0.05),
    "factory-events": ("smartfactory", "exp3-three-way-factory", 5.0),
    "streaming-coldstart": ("streaming", "exp4-coldstart", 10.0),
}


def build(name: str):
    """(app, config, profile, scale) of one workload; the profile is unscaled."""
    from faasbench import recipes, runner
    from faasbench.benchmarks import builtin_profile, load_builtin

    bench, recipe_name, scale = WORKLOADS[name]
    app = load_builtin(bench)
    if recipe_name is None:
        return app, runner.default_config(app), builtin_profile(bench), scale
    recipe = recipes.recipe(recipe_name)
    return app, recipe.config, recipe.profile, scale
