"""``faasbench.rng`` draws numpy's streams bit for bit: its ``SeedSequence``
and PCG64 ``Generator`` give what numpy 2.4.6's do for every seed, spawn
key and sequence of the five calls a run makes, the ziggurat samplers' rare
branches included, and its ziggurat tables are the ones the committed script
reads from the installed numpy."""

import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faasbench import rng

ROOT = Path(__file__).resolve().parents[1]

# one call a run makes: a method and its arguments
CALLS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(0, 1e6)).map(
        lambda c: ("uniform", c[1], c[1] + c[2])),
    st.tuples(st.just("normal"), st.floats(-1e3, 1e3), st.floats(0, 1e3)),
    st.tuples(st.just("exponential"), st.floats(0, 1e6)),
    st.tuples(st.just("bytes"), st.integers(0, 40)),
)


def _bits(value) -> bytes:
    """A draw as bytes, so that 0.0 and -0.0 differ."""
    return value if isinstance(value, bytes) else struct.pack("<d", value)


def _draws(gen, calls) -> list[bytes]:
    return [_bits(getattr(gen, name)(*args)) for name, *args in calls]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), n_words=st.integers(1, 12), calls=st.lists(CALLS, max_size=60))
def test_the_spawned_streams_are_numpys(seed, n_words, calls):
    ours, theirs = rng.SeedSequence(seed), np.random.SeedSequence(seed)
    assert ours.pool == theirs.pool.tolist()
    assert ours.generate_state(n_words) == theirs.generate_state(n_words).tolist()
    for our_child, their_child in zip(ours.spawn(3), theirs.spawn(3), strict=True):
        assert our_child.pool == their_child.pool.tolist()
        assert our_child.generate_state(n_words) == their_child.generate_state(n_words).tolist()
        assert _draws(rng.Generator(our_child), calls) == _draws(np.random.default_rng(their_child), calls)
    # a second spawn goes on from the first one's children, and a child spawns grandchildren
    assert [c.pool for c in ours.spawn(2)[1].spawn(2)] == [c.pool.tolist() for c in theirs.spawn(2)[1].spawn(2)]


class _Watched(tuple):
    """A ziggurat table that calls ``seen`` with each index read from it."""

    def __new__(cls, values, seen):
        table = super().__new__(cls, values)
        table.seen = seen
        return table

    def __getitem__(self, i):
        self.seen(i)
        return tuple.__getitem__(self, i)


DRAWS_PER_SEED = 250_000


@pytest.mark.parametrize("method,k,f,tail", [("normal", "KI", "FI", rng.ZIGGURAT_NOR_R),
                                             ("exponential", "KE", "FE", rng.ZIGGURAT_EXP_R)],
                         ids=["normal", "exponential"])
def test_a_million_draws_take_every_layers_rare_branch(monkeypatch, method, k, f, tail):
    # a draw reads the k table once per try, at the try's layer; only a
    # layer's wedge test reads the f table, so the last k read names its layer
    last, wedges = [None], set()
    rng.Generator(rng.SeedSequence(0))  # the first Generator decodes the tables
    monkeypatch.setattr(rng, k, _Watched(getattr(rng, k), lambda i: last.__setitem__(0, i)))
    monkeypatch.setattr(rng, f, _Watched(getattr(rng, f), lambda i: wedges.add(last[0])))
    tails = 0
    for seed in (0, 7, 11, 2**127 + 5):
        draw = getattr(rng.Generator(rng.SeedSequence(seed)), method)
        ours = [draw() for _ in range(DRAWS_PER_SEED)]
        assert ours == getattr(np.random.default_rng(seed), method)(size=DRAWS_PER_SEED).tolist()
        tails += sum(abs(x) > tail for x in ours)  # only layer 0's tail draws past its base
    assert wedges == set(range(1, 256))  # layer 0 has a tail, not a wedge
    assert tails > 0


def test_the_committed_tables_are_the_installed_numpys(tmp_path):
    out = tmp_path / "_ziggurat.py"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "ziggurat_tables.py"), str(out)], check=True)
    assert out.read_text(encoding="utf-8") == Path(rng._ziggurat.__file__).read_text(encoding="utf-8")


def test_bytes_keeps_the_half_word_it_did_not_use():
    gen = rng.Generator(rng.SeedSequence(3))
    whole = rng.Generator(rng.SeedSequence(3)).bytes(24)
    # bytes(0) draws a word too, as numpy's does, and the other methods leave the kept half alone
    assert gen.bytes(2) + gen.bytes(0) + gen.bytes(3) == whole[:2] + whole[8:11]
    gen.random()
    assert gen.bytes(4) == np.random.default_rng(3).bytes(16)[12:16]
