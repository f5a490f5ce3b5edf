"""Every malformed application, config, profile or run manifest ends in a
documented exit code, never in a traceback.

Each example takes a shipped document (or a real run's ``manifest.json``),
changes it at one drawn place and drives ``cli.main`` in-process: ``validate``
for the application, ``run`` for the config and the profile, ``analyze`` for
the manifest. Property-based testing after Hypothesis (MacIver et al., JOSS
2019).
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faasbench import cli
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.recipes import recipe

# A run makes as many flows as its profile asks for (nothing bounds a run's
# size yet), so integers stay small enough that a drawn totalFlows runs in
# milliseconds at scale 0.002. Floats are unbounded, NaN and infinities
# included.
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10_000, 10_000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every place in a JSON document, the document itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one drawn change: a value set (often to another JSON
    type), a key or item deleted, or a value, the whole document included,
    wrapped in a list."""
    doc = copy.deepcopy(doc)
    action = draw(st.sampled_from(["set", "delete", "wrap"]))
    paths = list(_paths(doc))
    path = draw(st.sampled_from(paths[1:] if action == "delete" else paths))
    if not path:
        return draw(VALUES) if action == "set" else [doc]
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if action == "set":
        node[last] = draw(VALUES)
    elif action == "wrap":
        node[last] = [node[last]]
    else:
        del node[last]
    return doc


def _main(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check(command: str, doc, *argv) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes and reads them
        if command == "validate":
            code, out, err = _main("validate", str(path))
        else:
            code, out, err = _main("run", *argv, f"--{command}", str(path), "--scale", "0.002",
                                   "--out", str(Path(tmp) / "out"))
    assert code in (0, 2, 3, 4, 5)
    if code:
        # validate reports the violations of a readable application on stdout,
        # one per line; every other failure is one line on stderr
        assert err.count("\n") == 1 or (command == "validate" and not err and out), (code, out, err)


FUZZ = settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(doc=mutated(load_builtin("webshop").to_dict()))
def test_a_mutated_application_validates_or_exits_in_one_line(doc):
    _check("validate", doc)


@FUZZ
@given(doc=mutated(recipe("exp3-three-way-factory").config.to_dict()))
def test_a_mutated_config_runs_or_exits_in_one_line(doc):
    _check("config", doc, "smartfactory")


@FUZZ
@given(doc=mutated(builtin_profile("streaming").to_dict()))
def test_a_mutated_profile_runs_or_exits_in_one_line(doc):
    _check("profile", doc, "streaming")


@FUZZ
@given(data=st.data())
def test_a_mutated_manifest_analyzes_or_exits_in_one_line(streaming_run, data):
    doc = data.draw(mutated(json.loads((streaming_run / "manifest.json").read_text())))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "raw.log"
        log.write_bytes((streaming_run / "raw.log").read_bytes())
        (Path(tmp) / "manifest.json").write_text(json.dumps(doc))
        code, out, err = _main("analyze", str(log), "--out", str(Path(tmp) / "reports"))
    assert code in (0, 5)
    assert err.count("\n") == (1 if code else 0), (code, out, err)
