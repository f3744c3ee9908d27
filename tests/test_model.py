"""Domain types, instance validation, and the expected-output helper."""
import dataclasses
import math
import re

import pytest

from market_coord.dam import BidSetError, check_prices
from market_coord.model import (
    MAGNITUDE_LIMIT,
    BidCurve,
    Line,
    Scenario,
    ScenarioSet,
    SystemParams,
    expected_vre,
    validate,
    validate_bid_curve,
    validated,
)
from market_coord.policies import myopic, stochastic


def test_bundled_instances_validate_clean(bundled):
    for name, inst in bundled.items():
        report = validate(inst)
        assert report.ok, f"{name}: {report.violations}"


def test_probabilities_must_sum_to_one(t1):
    bad = dataclasses.replace(
        t1,
        scenario_set=ScenarioSet(
            hours=(0,),
            da_load=t1.scenario_set.da_load,
            scenarios=(
                Scenario("a", 0.6, {("w1", 0): 10.0}, {}),
                Scenario("b", 0.6, {("w1", 0): 10.0}, {}),
            ),
        ),
    )
    report = validate(bad)
    assert any("sum to 1.2" in v for v in report.violations)
    # no scenarios at all is bad input too, not an expectation of zero
    none = dataclasses.replace(t1, scenario_set=dataclasses.replace(t1.scenario_set,
                                                                    scenarios=()))
    assert validate(none).violations == ["no scenarios"]


def test_vre_realization_above_capacity_flagged(t1):
    bad = dataclasses.replace(
        t1,
        scenario_set=ScenarioSet(
            hours=(0,),
            da_load=t1.scenario_set.da_load,
            scenarios=(Scenario("a", 1.0, {("w1", 0): 60.0}, {}),),
        ),
    )
    report = validate(bad)
    assert not report.ok


def _with_scenario(instance, **changes):
    first, *rest = instance.scenario_set.scenarios
    scenarios = (dataclasses.replace(first, **changes), *rest)
    return dataclasses.replace(
        instance, scenario_set=dataclasses.replace(instance.scenario_set, scenarios=scenarios))


def _with(instance, record: str, **changes):
    """`instance` with `changes` made to its `record`: "network", "system",
    "scenario_set", or "units"/"vre_units" (their only member)."""
    value = getattr(instance, record)
    if isinstance(value, tuple):
        (value,) = value
        return dataclasses.replace(instance, **{record: (dataclasses.replace(value, **changes),)})
    return dataclasses.replace(instance, **{record: dataclasses.replace(value, **changes)})


def _two_buses(reactance: float = 0.1, capacity: float = 10.0):
    """The buses of t1 and b2, joined by one line."""
    return dict(buses=("b1", "b2"), lines=(Line("b1", "b2", reactance, capacity),))


@pytest.mark.parametrize("change, message", [
    (lambda i: dataclasses.replace(i, system=SystemParams(voll=math.nan)),
     "system: voll nan is not finite"),
    (lambda i: dataclasses.replace(i, system=SystemParams(voll=1000.0, price_cap=math.inf)),
     "system: price_cap inf is not finite"),
    (lambda i: dataclasses.replace(
        i, units=(dataclasses.replace(i.units[0], ramp_down=math.nan),)),
     "unit g1: ramp_down nan is not finite"),
    (lambda i: dataclasses.replace(
        i, vre_units=(dataclasses.replace(i.vre_units[0], capacity=math.inf),)),
     "VRE w1: capacity inf is not finite"),
    (lambda i: dataclasses.replace(i, scenario_set=dataclasses.replace(
        i.scenario_set, da_load={("b1", 0): math.inf})),
     "day-ahead load at (b1,0) is not finite"),
    (lambda i: _with_scenario(i, probability=math.nan), "scenario s1: probability nan"),
    (lambda i: _with_scenario(i, rt_load={("b1", 0): math.nan}),
     "scenario s1: load at (b1,0) is not finite"),
    # finite, but above the magnitude limit
    (lambda i: _with(i, "units", p_max=2 ** 63),
     "unit g1: p_max 9223372036854775808 exceeds the magnitude limit 1e+06"),
    (lambda i: _with(i, "units", p_max=1e16), "unit g1: p_max 1e+16 exceeds the magnitude limit"),
    (lambda i: _with(i, "units", startup_cost=1e308), "unit g1: startup_cost 1e+308 exceeds"),
    (lambda i: _with(i, "units", ramp_up=1e308), "unit g1: ramp_up 1e+308 exceeds"),
    (lambda i: _with(i, "units", variable_cost=-1e308), "unit g1: variable_cost -1e+308 exceeds"),
    (lambda i: _with(i, "units", up_redispatch_cost=2.0 ** 63),
     "unit g1: up_redispatch_cost 9.223372036854776e+18 exceeds"),
    (lambda i: _with(i, "system", voll=1e308), "system: voll 1e+308 exceeds"),
    (lambda i: _with(i, "vre_units", capacity=1e308), "VRE w1: capacity 1e+308 exceeds"),
    (lambda i: _with(i, "network", **_two_buses(capacity=1e308)),
     "line (b1,b2): capacity 1e+308 exceeds"),
    (lambda i: _with(i, "network", **_two_buses(reactance=1e-16)),
     "line (b1,b2): susceptance 1/reactance 1e+16 exceeds"),
    (lambda i: _with(i, "scenario_set", da_load={("b1", 0): 1e308}),
     "day-ahead load at (b1,0) exceeds"),
    (lambda i: _with_scenario(i, rt_load={("b1", 0): 1e308}),
     "scenario s1: load at (b1,0) exceeds"),
], ids=["voll", "price-cap", "ramp", "vre-capacity", "da-load", "probability", "rt-load",
        "p-max-int-above-limit", "p-max-above-limit", "startup-above-limit", "ramp-above-limit",
        "variable-cost-above-limit", "c-up-above-limit", "voll-above-limit",
        "vre-capacity-above-limit", "line-capacity-above-limit", "susceptance-above-limit",
        "da-load-above-limit", "rt-load-above-limit"])
def test_nonfinite_number_fails_validation_before_any_lp(t1, change, message):
    bad = change(t1)
    assert any(message in v for v in validate(bad).violations)
    for call in (validated, myopic, stochastic):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)


def test_numbers_at_the_magnitude_limit_validate(t1):
    at_limit = _with(_with(_with(t1, "units", p_max=MAGNITUDE_LIMIT, ramp_up=MAGNITUDE_LIMIT),
                           "system", voll=MAGNITUDE_LIMIT),
                     "network", **_two_buses(reactance=1.0 / MAGNITUDE_LIMIT))
    assert validate(at_limit).ok, validate(at_limit).violations


@pytest.mark.parametrize("change, message", [
    (lambda i: _with(i, "network", buses=("b1", "b1")), "duplicate bus ids"),
    (lambda i: _with(i, "network", slack_bus="b9"), "slack bus 'b9' is not a declared bus"),
    (lambda i: _with(i, "network", lines=(Line("b1", "b9", 0.1, 10.0),)),
     "line (b1,b9) references an undeclared bus"),
    (lambda i: _with(i, "network", lines=(Line("b1", "b1", 0.1, 10.0),)),
     "self-loop line at bus 'b1'"),
    (lambda i: _with(i, "network", lines=(Line("b1", "b1", 0.0, 10.0),)),
     "line (b1,b1) reactance must be > 0"),
    (lambda i: _with(i, "network", lines=(Line("b1", "b1", 0.1, -1.0),)),
     "line (b1,b1) capacity must be >= 0"),
    (lambda i: _with(i, "network", lines=(Line("b1", "b1", math.nan, 10.0),)),
     "line (b1,b1): reactance nan is not finite"),
    (lambda i: _with(i, "network", buses=("b1", "b2")), "network graph is not connected"),
    (lambda i: dataclasses.replace(i, units=i.units * 2), "duplicate conventional unit ids"),
    (lambda i: _with(i, "units", bus="b9"), "unit g1: bus 'b9' not declared"),
    (lambda i: _with(i, "units", p_min=90.0), "unit g1: requires 0 <= p_min <= p_max"),
    (lambda i: _with(i, "units", ramp_down=-1.0), "unit g1: ramp rates must be >= 0"),
    (lambda i: _with(i, "units", start_class="warm"), "unit g1: unknown start class 'warm'"),
    (lambda i: _with(i, "units", u_init=2.0), "unit g1: u_init must lie in [0, 1]"),
    (lambda i: _with(i, "units", p_init=10.0), "unit g1: p_init 10.0 outside [0.0, 0.0]"),
    (lambda i: _with(i, "units", up_redispatch_cost=5.0, down_redispatch_cost=10.0),
     "unit g1: requires C_up >= C_down"),
    (lambda i: dataclasses.replace(i, vre_units=i.vre_units * 2), "duplicate VRE unit ids"),
    (lambda i: _with(i, "vre_units", bus="b9"), "VRE w1: bus 'b9' not declared"),
    (lambda i: _with(i, "vre_units", capacity=0.0), "VRE w1: capacity must be > 0"),
    (lambda i: _with(i, "vre_units", id="b1"), "VRE b1: id is also a bus id"),
    (lambda i: _with(i, "scenario_set", hours=()), "no hours in horizon"),
    (lambda i: _with(i, "scenario_set", hours=(0, 0)), "duplicate hours in horizon"),
    (lambda i: _with(i, "scenario_set", hours=(1, 0)), "hours in horizon must strictly increase"),
    (lambda i: _with(i, "scenario_set", da_load={("b9", 0): 1.0}),
     "day-ahead load references unknown bus 'b9'"),
    (lambda i: _with(i, "scenario_set", da_load={("b1", 5): 1.0}),
     "day-ahead load references unknown hour 5"),
    (lambda i: _with(i, "scenario_set", da_load={("b1", 0): -1.0}),
     "day-ahead load at (b1,0) is negative"),
    (lambda i: _with(i, "scenario_set", scenarios=i.scenario_set.scenarios[:1] * 2),
     "duplicate scenario ids"),
    (lambda i: _with_scenario(i, probability=0.0), "scenario s1: probability must be > 0"),
    (lambda i: _with_scenario(i, vre_real={("w1", 0): 5.0, ("w9", 0): 5.0}),
     "scenario s1: unknown VRE id 'w9'"),
    (lambda i: _with_scenario(i, vre_real={("w1", 0): 5.0, ("w1", 5): 5.0}),
     "scenario s1: unknown hour 5"),
    (lambda i: _with_scenario(i, rt_load={("b9", 0): 1.0}), "scenario s1: unknown bus 'b9'"),
    (lambda i: _with_scenario(i, rt_load={("b1", 5): 1.0}), "scenario s1: unknown hour 5"),
    (lambda i: _with_scenario(i, rt_load={("b1", 0): -1.0}),
     "scenario s1: load at (b1,0) negative"),
    (lambda i: _with(i, "system", voll=0.0), "VoLL must be > 0"),
    (lambda i: _with(i, "system", price_cap=-5.0), "bid price cap must be >= 0"),
], ids=["duplicate-bus", "unknown-slack", "line-to-unknown-bus", "self-loop", "reactance",
        "line-capacity", "nonfinite-reactance", "disconnected", "duplicate-unit",
        "unit-bus", "p-min-above-p-max", "ramp", "start-class", "u-init", "p-init",
        "up-below-down", "duplicate-vre", "vre-bus", "vre-capacity", "vre-id-is-a-bus",
        "no-hours", "duplicate-hour",
        "decreasing-hours", "da-load-bus", "da-load-hour", "da-load-negative",
        "duplicate-scenario", "probability-zero", "scenario-vre", "scenario-vre-hour",
        "rt-load-bus", "rt-load-hour", "rt-load-negative", "voll", "negative-price-cap"])
def test_each_rule_reports_its_violation(t1, change, message):
    assert validate(t1).ok
    assert message in validate(change(t1)).violations


def test_cost_ordering_is_a_warning_not_a_violation(t1):
    assert validate(t1).warnings == []
    cheap_up = _with(t1, "units", up_redispatch_cost=t1.units[0].variable_cost - 1.0)
    report = validate(cheap_up)
    assert report.ok
    assert report.warnings == ["unit g1: cost ordering C_up >= C >= C_down >= 0 does not hold"]


def test_validate_is_pure_and_idempotent(t1):
    first = validate(t1)
    second = validate(t1)
    assert first.violations == second.violations
    assert first.warnings == second.warnings


def test_bid_prices_must_be_nondecreasing(t1):
    bad = BidCurve(owner="w1", hour=0, segments=((5.0, 1.0), (2.0, 1.0)))
    problems = validate_bid_curve(bad, t1)
    assert any("nondecreasing" in p for p in problems)


@pytest.mark.parametrize("prices", [
    (0.0,), (0.0, 5.0, 5.0), (1000.0,), (float("nan"),), (0.0, float("inf")), (5.0, 2.0),
    (-1.0, 2.0), (0.0, 1500.0), (-float("inf"),), (),
], ids=["zero", "flat", "at-cap", "nan", "inf", "decreasing", "negative", "above-cap", "-inf",
        "empty"])
def test_price_vectors_and_curves_follow_one_rule_set(t1, prices):
    curve = BidCurve(owner="w1", hour=0, segments=tuple((p, 1.0) for p in prices))
    curve_rejected = validate_bid_curve(curve, t1) != []
    try:
        check_prices(t1, prices)
        vector_rejected = False
    except BidSetError:
        vector_rejected = True
    assert vector_rejected == curve_rejected
    assert vector_rejected == (prices not in [(0.0,), (0.0, 5.0, 5.0), (1000.0,)])


def test_bid_quantities_bounded_by_capacity(t1):
    bad = BidCurve(owner="w1", hour=0, segments=((0.0, 40.0), (1.0, 40.0)))
    problems = validate_bid_curve(bad, t1)
    assert any("exceeds capacity" in p for p in problems)
    ok = BidCurve(owner="w1", hour=0, segments=((0.0, 20.0), (1.0, 20.0)))
    assert validate_bid_curve(ok, t1) == []


def test_expected_vre_t1_is_30(t1):
    assert expected_vre(t1.scenario_set, "w1", 0) == pytest.approx(30.0)


def test_expected_vre_degenerate_and_zero(t1):
    ss = ScenarioSet(
        hours=(0,),
        da_load={},
        scenarios=(Scenario("a", 1.0, {("w1", 0): 7.0}, {}),),
    )
    assert expected_vre(ss, "w1", 0) == pytest.approx(7.0)
    zero = ScenarioSet(
        hours=(0,),
        da_load={},
        scenarios=(Scenario("a", 1.0, {("w1", 0): 0.0}, {}),),
    )
    assert expected_vre(zero, "w1", 0) == 0.0


def test_expected_vre_unknown_ids_raise(t1):
    with pytest.raises(KeyError):
        expected_vre(t1.scenario_set, "nope", 0)
    with pytest.raises(KeyError):
        expected_vre(t1.scenario_set, "w1", 99)


def test_expected_vre_bounded_by_capacity(bundled):
    for inst in bundled.values():
        for k in inst.vre_units:
            for t in inst.hours:
                value = expected_vre(inst.scenario_set, k.id, t)
                assert 0.0 <= value <= k.capacity


def test_bid_curve_total_quantity():
    bid = BidCurve(owner="w1", hour=0, segments=((0.0, 10.0), (2.0, 5.0)))
    assert bid.total_quantity == pytest.approx(15.0)


def test_price_cap_defaults_to_voll():
    assert SystemParams(voll=1000.0).bid_price_cap == 1000.0
    assert SystemParams(voll=1000.0, price_cap=350.0).bid_price_cap == 350.0


def test_instance_lookups(t1):
    assert t1.unit("g1").variable_cost == pytest.approx(20.0)
    assert t1.vre("w1").capacity == pytest.approx(50.0)
    with pytest.raises(KeyError):
        t1.unit("missing")
