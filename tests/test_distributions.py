import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from faasbench.distributions import (
    DistributionError,
    Duration,
    constant,
    exponential,
    lognormal,
    parse_duration,
    uniform,
)


def test_constant_is_exact_microseconds():
    assert constant(15).sample(np.random.default_rng(0)) == 15_000
    assert constant(0.4).sample(np.random.default_rng(0)) == 400
    assert constant(0.0004).sample(np.random.default_rng(0)) == 0  # below resolution rounds down


def test_constant_consumes_no_randomness():
    rng = np.random.default_rng(5)
    constant(3).sample(rng)
    after_constant = rng.random()
    assert after_constant == np.random.default_rng(5).random()


def test_parse_round_trip():
    for text in ("constant(15)", "uniform(1,2)", "lognormal(3,0.25)", "lognormal(15,2)", "exponential(7)"):
        d = parse_duration(text)
        assert parse_duration(d.spec()) == d


# parameters in ms, up to past the 2**53 us reach limit
MS = st.floats(0, 1e13)


@st.composite
def durations(draw):
    kind = draw(st.sampled_from(["constant", "uniform", "lognormal", "exponential"]))
    if kind == "uniform":
        args = tuple(sorted((draw(MS), draw(MS))))
    elif kind == "lognormal":
        args = (draw(st.floats(1e-300, 1e13)), draw(st.floats(0, 50)))
    else:
        args = (draw(MS),)
    try:
        return Duration(kind, args)
    except DistributionError:
        assume(False)


@example(d=parse_duration("constant(1234.567)"))
@example(d=parse_duration("lognormal(15.000004,0.25)"))
@example(d=parse_duration("uniform(1e-7,0.1)"))
@given(d=durations())
def test_a_spec_reads_back_as_its_duration(d):
    # a config or application written by to_dict holds the durations that ran
    assert parse_duration(d.spec()) == d
    short = [f"{a:g}" for a in d.args]
    if all(float(text) == a for text, a in zip(short, d.args)):  # the short form is kept where it is exact
        assert d.spec() == f"{d.kind}({','.join(short)})"


@pytest.mark.parametrize(
    "bad",
    ["gauss(1)", "constant()", "uniform(2,1)", "lognormal(0,1)", "constant(-1)", "uniform(1)", "nope",
     "constant(inf)", "constant(nan)", "uniform(0,nan)", "lognormal(1e300,5)", "lognormal(15,2.5)",
     "lognormal(1e-300,100)", "exponential(1e12)", "uniform(0,1e13)"],
)
def test_parse_rejects_bad_expressions(bad):
    with pytest.raises(DistributionError):
        parse_duration(bad)


def test_uniform_stays_in_bounds():
    d = uniform(5, 9)
    rng = np.random.default_rng(1)
    samples = [d.sample(rng) for _ in range(500)]
    assert all(5_000 <= s <= 9_000 for s in samples)
    assert len(set(samples)) > 10


def test_lognormal_sample_median_matches_parameter():
    # the median of exp(N(ln m, sigma)) is m; check the empirical median
    d = lognormal(15, 0.25)
    rng = np.random.default_rng(2)
    samples = sorted(d.sample(rng) for _ in range(2000))
    median = samples[len(samples) // 2]
    assert math.isclose(median, 15_000, rel_tol=0.10)


def test_exponential_sample_mean_matches_parameter():
    d = exponential(3)
    rng = np.random.default_rng(3)
    samples = [d.sample(rng) for _ in range(5000)]
    assert math.isclose(float(np.mean(samples)), 3_000, rel_tol=0.10)


def test_sampling_is_deterministic_under_seed():
    d = lognormal(10, 0.5)
    a = [d.sample(np.random.default_rng(9)) for _ in range(5)]
    b = [d.sample(np.random.default_rng(9)) for _ in range(5)]
    # same generator state must be drawn from in the same order
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    assert [d.sample(rng1) for _ in range(5)] == [d.sample(rng2) for _ in range(5)]
    assert a[0] == b[0]


def test_samples_are_nonnegative_ints():
    rng = np.random.default_rng(4)
    for d in (uniform(0, 1), lognormal(0.001, 2), exponential(0.5)):
        for _ in range(200):
            s = d.sample(rng)
            assert isinstance(s, int) and s >= 0


def test_zero_sigma_lognormal_is_exact():
    d = Duration("lognormal", (4.0, 0.0))
    rng = np.random.default_rng(5)
    assert {d.sample(rng) for _ in range(10)} == {4000}
