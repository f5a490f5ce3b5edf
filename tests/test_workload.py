import json
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from faasbench.applications import ApplicationSpec, FunctionSpec, HTTP_SYNC, compute
from faasbench.benchmarks import builtin_profile, load_builtin
from faasbench.distributions import constant
from faasbench.records import INVOCATION, LOADGEN, OUTGOING_CALL
from faasbench.analysis import parse_logs
from faasbench.runner import _read_phases, default_config
from faasbench.workload import (
    Arrival,
    LoadProfile,
    MAX_PROFILE_US,
    PHASE_FIELDS,
    PeriodicSeries,
    Phase,
    ProfileError,
    US,
    Workflow,
    WorkflowStep,
    execute,
    schedule,
)

from conftest import deployed_env, make_platform, rarely, single_platform_config


def rng(seed=0):
    return np.random.default_rng(seed)


def flat_profile(**phase_kw) -> LoadProfile:
    """One phase of ``phase_kw`` over one workflow ``w``, its whole mix when its kind holds one."""
    wf = Workflow("w", (WorkflowStep("fn"),))
    if "mix" in PHASE_FIELDS[phase_kw["kind"]]:
        phase_kw.setdefault("mix", (("w", 1.0),))
    return LoadProfile("p", (wf,), (Phase(**phase_kw),))


# -- built-in profiles -------------------------------------------------------


def test_webshop_default_profile_shape():
    p = builtin_profile("webshop")
    assert len(p.phases) == 1
    phase = p.phases[0]
    assert phase.kind == "constantRate"
    assert phase.rate_per_s == 20.0
    assert phase.duration_us == 900 * US  # 15 minutes, 18000 expected workflows
    assert len(p.workflows) == 4
    assert abs(sum(w for _, w in phase.mix) - 1.0) < 1e-9


def test_smartcity_default_profile_series():
    p = builtin_profile("smartcity")
    series = {s.entry: s for s in p.phases[0].series}
    assert series["trafficSensorFilter"].interval_us == 2 * US
    assert series["objectRecognition"].interval_us == 2 * US
    assert series["weatherSensorFilter"].interval_us == 20 * US
    emergency = series["emergencyDetection"]
    assert emergency.interval_us == 120 * US
    assert emergency.train_count == 5 and emergency.train_spacing_us == US  # lasts five seconds
    assert p.phases[0].duration_us == 900 * US


def test_smartfactory_default_profile():
    p = builtin_profile("smartfactory")
    series = p.phases[0].series[0]
    assert series.entry == "orderSupplies" and series.interval_us == 5 * US
    arrivals = schedule(p, rng())
    assert len(arrivals) == 180  # one couch order every 5s for 15 minutes


def test_streaming_default_profile_phases():
    p = builtin_profile("streaming")
    kinds = [ph.kind for ph in p.phases]
    assert kinds == ["burst", "burst", "pause", "burst"]
    assert p.phases[1].total_flows == 500 and p.phases[1].duration_us == 300 * US
    assert p.phases[2].duration_us == 1200 * US  # 20 minute outage
    assert p.phases[3].total_flows == 1500 and p.phases[3].duration_us == 300 * US


# -- scheduling --------------------------------------------------------------


def test_periodic_exact_arrivals():
    wf = Workflow("fn", (WorkflowStep("fn"),))
    profile = LoadProfile(
        "p", (wf,),
        (Phase(kind="periodic", duration_us=60 * US, series=(PeriodicSeries("fn", interval_us=2 * US),)),),
    )
    arrivals = schedule(profile, rng())
    assert len(arrivals) == 30
    assert [a.at_us for a in arrivals] == [2 * US * k for k in range(1, 31)]
    # each arrival is one call to the series' entry, built once per series
    assert all(a.workflow.steps == (WorkflowStep("fn"),) for a in arrivals)
    assert len({id(a.workflow) for a in arrivals}) == 1


def test_periodic_trains():
    profile = LoadProfile(
        "p", (),
        (Phase(kind="periodic", duration_us=300 * US,
               series=(PeriodicSeries("e", interval_us=120 * US, train_count=5, train_spacing_us=US),)),),
    )
    arrivals = schedule(profile, rng())
    at = [a.at_us for a in arrivals]
    assert at == [120 * US + k * US for k in range(5)] + [240 * US + k * US for k in range(5)]


def test_a_train_longer_than_its_phase_stops_at_the_phase_end():
    def periodic(train_count):
        series = PeriodicSeries("e", interval_us=10 * US, train_count=train_count, train_spacing_us=US)
        return LoadProfile("p", (), (Phase(kind="periodic", duration_us=60 * US, series=(series,)),))

    def hang(signum, frame):
        raise TimeoutError

    fits = schedule(periodic(51), rng())  # the first tick's train ends exactly at the phase end
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        long_train = schedule(periodic(10**18), rng())
    except TimeoutError:
        long_train = None  # still walking the train members past the phase end
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(fits) == 51 + 41 + 31 + 21 + 11 + 1
    assert long_train == fits


def test_pause_phase_emits_nothing():
    wf = Workflow("w", (WorkflowStep("fn"),))
    profile = LoadProfile(
        "p", (wf,),
        (
            Phase(kind="burst", duration_us=10 * US, total_flows=10, mix=(("w", 1.0),)),
            Phase(kind="pause", duration_us=100 * US),
            Phase(kind="burst", duration_us=10 * US, total_flows=10, mix=(("w", 1.0),)),
        ),
    )
    arrivals = schedule(profile, rng())
    pause_window = [a for a in arrivals if 10 * US < a.at_us < 110 * US]
    assert pause_window == []
    assert len(arrivals) == 20


def test_burst_spreads_exact_count_evenly():
    profile = flat_profile(kind="burst", duration_us=10 * US, total_flows=5)
    arrivals = schedule(profile, rng())
    assert [a.at_us for a in arrivals] == [0, 2 * US, 4 * US, 6 * US, 8 * US]


def test_poisson_count_concentrates_at_large_n():
    # 20/s for 900s: expected 18000; 3% is ~4 sigma for a Poisson count
    profile = flat_profile(kind="constantRate", duration_us=900 * US, rate_per_s=20.0)
    for seed in range(5):
        n = len(schedule(profile, rng(seed)))
        assert abs(n - 18000) / 18000 < 0.03


def test_poisson_arrivals_are_open_loop_random():
    profile = flat_profile(kind="constantRate", duration_us=100 * US, rate_per_s=10.0)
    a = [x.at_us for x in schedule(profile, rng(1))]
    b = [x.at_us for x in schedule(profile, rng(2))]
    assert a != b
    assert [x.at_us for x in schedule(profile, rng(1))] == a  # deterministic per seed


def test_scaling_counts_and_durations():
    p = builtin_profile("streaming")
    scaled = p.scaled(0.1)
    assert [ph.total_flows for ph in scaled.phases if ph.kind == "burst"] == [5, 50, 150]
    assert scaled.phases[2].duration_us == 120 * US  # pause shrinks with the run
    # rates and intervals stay put
    web = builtin_profile("webshop").scaled(0.01)
    assert web.phases[0].rate_per_s == 20.0
    assert web.phases[0].duration_us == 9 * US
    city = builtin_profile("smartcity").scaled(0.5)
    assert city.phases[0].series[0].interval_us == 2 * US


def test_scale_linearity_for_bursts():
    p = flat_profile(kind="burst", duration_us=100 * US, total_flows=1000)
    assert len(schedule(p.scaled(0.5), rng())) == 500
    assert len(schedule(p.scaled(0.25), rng())) == 250


def test_scale_linearity_for_constant_rate():
    # halving the scale halves the expected arrival count (n >= 1000)
    p = flat_profile(kind="constantRate", duration_us=200 * US, rate_per_s=20.0)
    full = len(schedule(p, rng(3)))
    half = len(schedule(p.scaled(0.5), rng(3)))
    assert abs(full - 4000) / 4000 < 0.10
    assert abs(half - 2000) / 2000 < 0.10


def test_mix_weights_respected():
    wa = Workflow("a", (WorkflowStep("fa"),))
    wb = Workflow("b", (WorkflowStep("fb"),))
    profile = LoadProfile(
        "p", (wa, wb),
        (Phase(kind="burst", duration_us=100 * US, total_flows=4000, mix=(("a", 0.25), ("b", 0.75)),),),
    )
    arrivals = schedule(profile, rng(4))
    share_a = sum(1 for x in arrivals if x.workflow.name == "a") / len(arrivals)
    assert abs(share_a - 0.25) < 0.05


def test_profile_validation_errors():
    wf = Workflow("w", (WorkflowStep("fn"),))
    with pytest.raises(ProfileError):
        LoadProfile("p", (wf,), (Phase(kind="burst", duration_us=US, total_flows=1,
                                       mix=(("w", 0.5),)),))  # weights != 1
    with pytest.raises(ProfileError):
        LoadProfile("p", (), (Phase(kind="constantRate", duration_us=US, rate_per_s=0,
                                    mix=()),))
    with pytest.raises(ProfileError):
        LoadProfile("p", (), ())
    with pytest.raises(ProfileError):
        LoadProfile("p", (), (Phase(kind="periodic", duration_us=US,
                                    series=(PeriodicSeries("e", interval_us=0),)),))
    with pytest.raises(ProfileError):
        builtin_profile("webshop").scaled(0)


def _profile_doc() -> dict:
    return {
        "workflows": [{"name": "w", "steps": [{"entry": "fn", "thinkSeconds": 0.5}]}],
        "phases": [
            {"kind": "constantRate", "durationSeconds": 1, "ratePerSecond": 5, "mix": {"w": 1.0}},
            {"kind": "periodic", "durationSeconds": 1,
             "series": [{"entry": "fn", "intervalSeconds": 0.5, "trainCount": 2, "trainSpacingSeconds": 0.1}]},
        ],
    }


@pytest.mark.parametrize("path, value, field", [
    (("phases", 0, "ratePerSecond"), float("inf"), "ratePerSecond"),
    (("phases", 0, "ratePerSecond"), float("nan"), "ratePerSecond"),
    (("phases", 0, "mix", "w"), float("nan"), "mix weights"),
    (("phases", 0, "durationSeconds"), float("inf"), "durationSeconds"),
    (("phases", 1, "durationSeconds"), float("nan"), "durationSeconds"),
    (("phases", 1, "series", 0, "intervalSeconds"), float("inf"), "intervalSeconds"),
    (("phases", 1, "series", 0, "trainSpacingSeconds"), float("-inf"), "trainSpacingSeconds"),
    (("workflows", 0, "steps", 0, "thinkSeconds"), float("inf"), "thinkSeconds"),
], ids=["infinite-rate", "nan-rate", "nan-mix-weight", "infinite-duration", "nan-duration",
        "infinite-interval", "infinite-train-spacing", "infinite-think-time"])
def test_a_non_finite_profile_number_is_named(path, value, field):
    doc = _profile_doc()
    LoadProfile.from_json(json.dumps(doc))  # the unchanged document loads
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ProfileError, match=field):
        LoadProfile.from_json(json.dumps(doc))  # NaN and Infinity as Python's json writes and reads them


@pytest.mark.parametrize("rate", [float("inf"), float("nan")])
def test_construction_rejects_a_non_finite_rate(rate):
    with pytest.raises(ProfileError, match="ratePerSecond"):
        flat_profile(kind="constantRate", duration_us=US, rate_per_s=rate)


def test_profile_json_round_trip():
    for name in ("webshop", "smartcity", "smartfactory", "streaming"):
        p = builtin_profile(name)
        assert LoadProfile.from_json(p.to_json()) == p


TIMES = st.integers(0, MAX_PROFILE_US - 1)  # every time of a profile, in us
# in range, so that only its type keeps it out
NOT_INTS = st.floats(1, 1e9).filter(lambda x: not x.is_integer()) | st.booleans()
ODD_FIELDS = ["think_time_us", "duration_us", "interval_us", "train_count", "train_spacing_us", "total_flows", "mix",
              "rate_per_s", "foreign"]
# a value of each phase field that to_dict writes only for the kinds that hold it
FOREIGN = {"rate_per_s": st.floats(1e-9, 1e9) | st.just(True), "mix": st.just((("w", 1.0),)),
           "series": st.just((PeriodicSeries("fn", US),)), "total_flows": st.integers(1, 100)}


@st.composite
def profiles(draw, odd=False):
    """A valid profile: every phase kind, any time below the bound, and each
    mix in any order. With ``odd``, each field is odd one time in eight, in
    all of its values (a time or count is then a float or a bool, a rate a
    bool, the mix weights may be negative or one of them a bool, and a phase
    may hold a field its kind never writes), and the profile is None when
    the constructor refuses it."""
    odd_fields = {f for f in ODD_FIELDS if odd and draw(rarely(st.just(True), st.just(False)))}

    def pick(field, usual, odd_values=NOT_INTS):
        return draw(odd_values if field in odd_fields else usual)

    names = draw(st.lists(st.text("wxyz", min_size=1, max_size=2), min_size=1, max_size=3, unique=True))
    workflows = tuple(Workflow(n, tuple(WorkflowStep(draw(st.text(max_size=3)), pick("think_time_us", TIMES))
                                        for _ in range(draw(st.integers(1, 2))))) for n in names)
    phases = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["constantRate", "burst", "periodic", "pause"]))
        duration = pick("duration_us", TIMES)
        foreign = {}
        if "foreign" in odd_fields:
            name = draw(st.sampled_from([f for f in FOREIGN if f not in PHASE_FIELDS[kind]]))
            foreign[name] = draw(FOREIGN[name])
        if kind == "periodic":
            series = tuple(PeriodicSeries(draw(st.text(max_size=3)),
                                          pick("interval_us", st.integers(1, MAX_PROFILE_US - 1)),
                                          pick("train_count", st.integers(1, 5)),
                                          pick("train_spacing_us", st.integers(1, MAX_PROFILE_US - 1)))
                           for _ in range(draw(st.integers(0, 2))))
            phases.append(Phase(kind, duration, series=series, **foreign))
        elif kind == "pause":
            phases.append(Phase(kind, duration, **foreign))
        else:
            mixed = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
            counts = [pick("mix", st.integers(1, 1000), st.integers(-1000, 1000)) for _ in mixed]
            assume(sum(counts))
            mix = tuple((n, c / sum(counts)) for n, c in zip(mixed, counts))
            if "mix" in odd_fields and draw(st.booleans()):
                mix = ((mixed[0], True),) + tuple((n, 0.0) for n in mixed[1:])  # weights that sum to 1, one a bool
            if kind == "burst":
                flows = pick("total_flows", st.integers(1, 2**53 - 1))
                phases.append(Phase(kind, duration, mix=mix, total_flows=flows, **foreign))
            else:
                rate = pick("rate_per_s", st.floats(1e-9, 1e9), st.booleans())
                phases.append(Phase(kind, duration, rate_per_s=rate, mix=mix, **foreign))
    assume(sum(p.duration_us for p in phases) > 0)
    try:
        return LoadProfile(draw(st.text(max_size=3)), workflows, tuple(phases))
    except ProfileError:  # without odd values, only mix weights that do not sum to 1 within 1e-9
        assume(odd)
        return None


@settings(max_examples=300, derandomize=True, deadline=None)
@example(p=flat_profile(kind="burst", duration_us=MAX_PROFILE_US - 1, total_flows=2**53 - 1))
@given(p=profiles(odd=True))
def test_a_profile_reads_back_from_its_json(p):
    # the constructor refuses what to_dict cannot write as itself; every
    # time below 2**51 us comes back as the same microsecond
    if p is not None:
        assert LoadProfile.from_dict(json.loads(json.dumps(p.to_dict()))) == p


@pytest.mark.parametrize("build, reason", [
    (lambda: flat_profile(kind="pause", duration_us=US + 0.5), "phases[0].duration_us must be an int, got 1000000.5"),
    (lambda: LoadProfile("p", (Workflow("w", (WorkflowStep("fn", 0.5),)),), (Phase("pause", US),)),
     "workflow 'w': think_time_us must be an int, got 0.5"),
    (lambda: flat_profile(kind="periodic", duration_us=US, series=(PeriodicSeries("fn", US + 0.5),)),
     "phases[0].series[0].interval_us must be an int, got 1000000.5"),
    (lambda: flat_profile(kind="periodic", duration_us=US, series=(PeriodicSeries("fn", US, 2, True),)),
     "phases[0].series[0].train_spacing_us must be an int, got True"),
    (lambda: flat_profile(kind="periodic", duration_us=US, series=(PeriodicSeries("fn", US, 2.0),)),
     "phases[0].series[0].train_count must be an int, got 2.0"),
    (lambda: flat_profile(kind="burst", duration_us=US, total_flows=5.0),
     "phases[0].total_flows must be an int, got 5.0"),
    (lambda: flat_profile(kind="burst", duration_us=US, total_flows=True),
     "phases[0].total_flows must be an int, got True"),
], ids=["duration-float", "think-time-float", "interval-float", "train-spacing-bool", "train-count-float",
        "total-flows-float", "total-flows-bool"])
def test_a_profile_built_in_code_holds_only_int_times_and_counts(build, reason):
    # to_dict would write a value that from_dict refuses or reads back as another
    with pytest.raises(ProfileError) as exc:
        build()
    assert str(exc.value) == reason


@pytest.mark.parametrize("phase, reason", [
    (Phase("pause", US, total_flows=5), "phases[0]: a pause phase has no total_flows"),
    (Phase("pause", US, mix=(("w", 1.0),)), "phases[0]: a pause phase has no mix"),
    (Phase("pause", US, rate_per_s=2.0), "phases[0]: a pause phase has no rate_per_s"),
    (Phase("burst", US, rate_per_s=2.0, mix=(("w", 1.0),), total_flows=5),
     "phases[0]: a burst phase has no rate_per_s"),
    (Phase("periodic", US, mix=(("w", 1.0),)), "phases[0]: a periodic phase has no mix"),
    (Phase("constantRate", US, rate_per_s=2.0, mix=(("w", 1.0),), total_flows=5),
     "phases[0]: a constantRate phase has no total_flows"),
    (Phase("burst", US, series=(PeriodicSeries("fn", US),), mix=(("w", 1.0),), total_flows=5),
     "phases[0]: a burst phase has no series"),
    (Phase("constantRate", US, rate_per_s=True, mix=(("w", 1.0),)), "phases[0].rate_per_s must be a number, got True"),
    (Phase("burst", US, mix=(("w", True),), total_flows=5), "phases[0].mix.w must be a number, got True"),
    (Phase("ramp", US), "unknown phase kind 'ramp'"),
], ids=["pause-flows", "pause-mix", "pause-rate", "burst-rate", "periodic-mix", "rate-flows", "burst-series",
        "bool-rate", "bool-weight", "unknown-kind"])
def test_a_phase_built_in_code_holds_only_what_its_json_holds(phase, reason):
    # to_dict writes only the fields of the phase's kind, and JSON writes a bool
    # as true, which from_dict refuses as a number
    with pytest.raises(ProfileError) as exc:
        LoadProfile("p", (Workflow("w", (WorkflowStep("fn"),)),), (phase,))
    assert str(exc.value) == reason


def test_a_mix_out_of_name_order_schedules_as_its_json_form():
    workflows = (Workflow("a", (WorkflowStep("fn"),)), Workflow("b", (WorkflowStep("fn"),)))
    p = LoadProfile("p", workflows, (Phase("burst", US, mix=(("b", 0.3), ("a", 0.7)), total_flows=1000),))
    assert p.phases[0].mix == (("a", 0.7), ("b", 0.3))
    read_back = LoadProfile.from_dict(json.loads(json.dumps(p.to_dict())))
    assert read_back == p
    picks = [(a.at_us, a.workflow.name) for a in schedule(p, rng(7))]
    assert picks == [(a.at_us, a.workflow.name) for a in schedule(read_back, rng(7))]
    assert {name for _, name in picks} == {"a", "b"}


@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(p=profiles(), scale=st.floats(1e-6, 1e6))
def test_the_phases_of_a_written_manifest_are_those_that_ran(streaming_run, p, scale):
    try:
        ran = p.scaled(scale).phase_windows()
    except ProfileError:
        assume(False)
    manifest = json.loads((streaming_run / "manifest.json").read_text())
    manifest.update(profile=p.to_dict(), scale=scale)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert _read_phases(path) == ran


@pytest.mark.parametrize("phase, think_us", [
    (Phase("pause", MAX_PROFILE_US), 0),
    (Phase("pause", 2**53 - 1), 0),
    (Phase("periodic", US, series=(PeriodicSeries("fn", MAX_PROFILE_US),)), 0),
    (Phase("periodic", US, series=(PeriodicSeries("fn", US, 2, MAX_PROFILE_US),)), 0),
    (Phase("pause", US), MAX_PROFILE_US),
], ids=["duration", "duration-2**53-1", "interval", "train-spacing", "think-time"])
def test_a_profile_built_in_code_keeps_its_times_below_2_51(phase, think_us):
    # to_dict could not write such a time exactly, so a run could not read its own manifest back
    with pytest.raises(ProfileError, match=r"reaches 2\*\*51 us"):
        LoadProfile("p", (Workflow("w", (WorkflowStep("fn", think_us),)),), (phase,))


def test_a_mix_that_names_a_workflow_twice_is_refused():
    # its JSON object would keep one weight, and the profile would not read back
    with pytest.raises(ProfileError, match=r"phases\[0\].mix names a workflow twice"):
        LoadProfile("p", (Workflow("w", (WorkflowStep("fn"),)),),
                    (Phase("burst", US, mix=(("w", 0.5), ("w", 0.5)), total_flows=1),))


# -- execution ---------------------------------------------------------------


def one_fn_env(seed=1):
    fn = FunctionSpec("fn", HTTP_SYNC, (compute(constant(2)),), entry_point=True)
    app = ApplicationSpec("one", (fn,))
    platform = make_platform(cold_start_delay=constant(0))
    return deployed_env(app, single_platform_config(app, platform), seed=seed)


def test_execute_single_workflow_single_step():
    env, plan = one_fn_env()
    arrivals = [Arrival(0, Workflow("w", (WorkflowStep("fn"),)))]
    stats = execute(arrivals, plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    roots = [r for r in records if r.platform_id == LOADGEN]
    invs = [r for r in records if r.kind == INVOCATION]
    assert stats.instances == 1 and len(roots) == 1
    assert {r.context_id for r in records} == {roots[0].context_id}  # context spans the chain
    assert invs[0].pair_id == roots[0].pair_id


def test_execute_contexts_are_fresh_per_instance():
    env, plan = one_fn_env()
    wf = Workflow("w", (WorkflowStep("fn"),))
    execute([Arrival(0, wf), Arrival(1000, wf), Arrival(2000, wf)], plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    roots = [r for r in records if r.platform_id == LOADGEN]
    assert len({r.context_id for r in roots}) == 3  # one context per workflow instance


def test_execute_multi_step_workflow_honors_think_time():
    env, plan = one_fn_env()
    wf = Workflow("w", (WorkflowStep("fn", think_time_us=5 * US), WorkflowStep("fn")))
    execute([Arrival(0, wf)], plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    roots = sorted((r for r in records if r.platform_id == LOADGEN), key=lambda r: r.start_us)
    assert len(roots) == 2
    assert len({r.context_id for r in roots}) == 1  # the instance shares one context
    first_rt = roots[0].end_us - roots[0].start_us
    assert roots[1].start_us == roots[0].start_us + first_rt + 5 * US


def test_profile_must_target_entry_points():
    from faasbench.workload import validate_profile_against_app

    app = load_builtin("webshop")
    bad = LoadProfile(
        "p",
        (Workflow("w", (WorkflowStep("payment"),)),),  # internal function
        (Phase(kind="burst", duration_us=US, total_flows=1, mix=(("w", 1.0),)),),
    )
    with pytest.raises(ProfileError):
        validate_profile_against_app(bad, app)
    validate_profile_against_app(builtin_profile("webshop"), app)  # fine


def test_a_periodic_series_calls_its_own_entry():
    # a workflow named like the series' entry but stepping elsewhere must not
    # redirect the series: every root call of the run goes to "a"
    a = FunctionSpec("a", HTTP_SYNC, (compute(constant(1)),), entry_point=True)
    b = FunctionSpec("b", HTTP_SYNC, (compute(constant(2)),), entry_point=True)
    app = ApplicationSpec("two", (a, b))
    profile = LoadProfile(
        "p", (Workflow("a", (WorkflowStep("b"),)),),
        (Phase(kind="periodic", duration_us=10 * US, series=(PeriodicSeries("a", interval_us=US),)),),
    )
    env, plan = deployed_env(app, single_platform_config(app, make_platform()))
    execute(schedule(profile, rng()), plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    assert [r.callee for r in records if r.platform_id == LOADGEN] == ["a"] * 10
    assert {r.function for r in records if r.kind == INVOCATION} == {"a"}


def test_arrivals_do_not_depend_on_response_times():
    # same profile and seed produce the same schedule whatever the platform does
    profile = flat_profile(kind="constantRate", duration_us=20 * US, rate_per_s=5.0)
    a = [x.at_us for x in schedule(profile, rng(7))]
    b = [x.at_us for x in schedule(profile, rng(7))]
    assert a == b


def test_webshop_run_has_one_root_per_context():
    app = load_builtin("webshop")
    cfg = default_config(app)
    env, plan = deployed_env(app, cfg, seed=15)
    profile = builtin_profile("webshop").scaled(0.005)
    arrivals = schedule(profile, env.loadgen_rng)
    stats = execute(arrivals, plan, env)
    env.run_until_idle()
    records, _ = parse_logs(env.collect_log(env.run_id))
    roots = [r for r in records if r.platform_id == LOADGEN and r.kind == OUTGOING_CALL]
    contexts = {r.context_id for r in records}
    assert len(roots) == stats.instances
    assert len({r.context_id for r in roots}) == stats.instances
    assert contexts == {r.context_id for r in roots}  # every record reachable from a root
