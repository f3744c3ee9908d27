"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""
import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from market_coord import dam, io, model, policies  # noqa: E402

import synth  # noqa: E402
from checks import CheckFailed, check_sweep_shape, recheck  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import malformed_bid_sets, roundtrip  # noqa: E402


@pytest.fixture(scope="module")
def sys5():
    return io.bundled_instance("sys5")


@pytest.fixture(scope="module")
def scored(sys5):
    return policies.myopic(sys5)


def test_generator_is_seeded_and_valid(tmp_path):
    a = synth.generate(1, 7, n_buses=6, n_units=8, n_vre=2, n_scenarios=3)
    assert a == synth.generate(1, 7, n_buses=6, n_units=8, n_vre=2, n_scenarios=3)
    other = synth.generate(1, 8, n_buses=6, n_units=8, n_vre=2, n_scenarios=3)
    assert other.network == a.network and other.units == a.units
    assert other.scenario_set.scenarios != a.scenario_set.scenarios
    assert model.validate(a).ok
    assert {u.start_class for u in a.units} == {"slow", "fast"}
    assert roundtrip(a, tmp_path, "grid") == a


def test_recheck_accepts_a_real_result(sys5, scored):
    recheck(sys5, scored, scored.bids)


@pytest.mark.parametrize("corrupt", [
    lambda r: dataclasses.replace(r, da=dataclasses.replace(
        r.da, p_conventional={k: v + 1.0 for k, v in r.da.p_conventional.items()})),
    lambda r: dataclasses.replace(r, rt_dispatches=[
        dataclasses.replace(d, f_rt=d.f_rt + 1.0) for d in r.rt_dispatches]),
    lambda r: dataclasses.replace(r, rt_dispatches=[
        dataclasses.replace(d, shed={k: v + 1.0 for k, v in d.shed.items()})
        for d in r.rt_dispatches]),
    lambda r: dataclasses.replace(r, s_total=r.s_total * 1.001),
    lambda r: dataclasses.replace(r, da=dataclasses.replace(
        r.da, startup_cost={k: v + 1.0 for k, v in r.da.startup_cost.items()})),
    lambda r: dataclasses.replace(r, rt_dispatches=[
        dataclasses.replace(d, startup_cost={k: v + 1.0 for k, v in d.startup_cost.items()})
        for d in r.rt_dispatches]),
    lambda r: dataclasses.replace(r, rt_dispatches=[
        dataclasses.replace(d, commitment={k: 0.0 for k in d.commitment})
        for d in r.rt_dispatches]),
], ids=["da-output", "rt-cost", "rt-shed", "total", "da-startup", "rt-startup",
        "rt-commitment"])
def test_recheck_rejects_a_corrupted_result(sys5, scored, corrupt):
    with pytest.raises(CheckFailed):
        recheck(sys5, corrupt(scored), scored.bids)


def test_recheck_recomputes_startup_from_the_initial_commitment(sys5, scored):
    # sys5's slow unit g1 starts committed, so it pays no start-up at t = 0;
    # the same schedule is wrong for an instance where it starts off
    g1 = sys5.units[0]
    assert g1.start_class == "slow" and g1.u_init == 1.0 and g1.startup_cost > 0
    cold = dataclasses.replace(sys5, units=(
        dataclasses.replace(g1, u_init=0.0, p_init=0.0),) + sys5.units[1:])
    with pytest.raises(CheckFailed, match="start-up"):
        recheck(cold, scored, scored.bids)


def test_malformed_bid_sets_are_malformed(sys5):
    sets = malformed_bid_sets(sys5)
    assert len(sets) == 4
    for bids in sets:
        assert any(model.validate_bid_curve(b, sys5) for b in bids)


def test_sweep_shape():
    check_sweep_shape([1.0, 1.0, 1.0, 2.0])
    with pytest.raises(CheckFailed):
        check_sweep_shape([1.0, 1.0, 1.0, 0.5])
    with pytest.raises(CheckFailed):
        check_sweep_shape([1.0, 1.5, 2.0, 2.0])


def test_tracer_wraps_where_callers_look_up(sys5):
    tracer = Tracer()
    original = dam.solve
    tracer.install()
    try:
        assert dam.solve is not original and dam.solve.__wrapped__ is original
        with tracer.span("setup"):
            io.bundled_instance("t1")
        with tracer.span("pass"):
            policies.evaluate_bids(sys5, policies.myopic_bids(sys5))
    finally:
        tracer.uninstall()
    assert dam.solve is original
    names = [s[0] for s in tracer.spans]
    assert names.count("lp.solve") == names.count("lp.linprog") == 1 + 3
    own = tracer.self_times()
    assert all(t >= 0.0 for t in own)
    layers = layer_metrics(tracer, setups=1, passes=1, rounds=0)
    assert layers["lp.solves"] == 4 and layers["rtm.rtm_structure_calls"] == 3
    assert layers["lp.highs_iterations"] > 0 and layers["io.load_instance_s"] > 0
