"""Dispatch policies: sequential scoring, MyD, StD, and the comparison."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from market_coord import dam, lp, model
from market_coord.bilevel import solve_bid
from market_coord.dam import BidSetError, DamInfeasibleError
from market_coord.lp import LpSolution, LpStatus
from market_coord.model import BidCurve, VreUnit
from market_coord.policies import (
    compare,
    evaluate_bids,
    myopic,
    myopic_bids,
    stochastic,
)
from conftest import random_bid_set


def test_sequential_score_t1_expected_forecast(t1):
    result = evaluate_bids(t1, [BidCurve("w1", 0, ((0.0, 30.0),))])
    assert result.f_da_true == pytest.approx(1000.0)
    assert result.expected_rt == pytest.approx(250.0)
    assert result.s_total == pytest.approx(1250.0)


def test_sequential_score_t1_optimal_quantity(t1):
    result = evaluate_bids(t1, [BidCurve("w1", 0, ((0.0, 10.0),))])
    assert result.s_total == pytest.approx(1100.0)


def test_score_decomposes_into_parts(bundled):
    for inst in bundled.values():
        result = evaluate_bids(inst, myopic_bids(inst))
        assert result.s_total == pytest.approx(
            result.f_da_true + result.expected_rt, rel=1e-9
        )


def test_score_is_deterministic(sys3):
    bids = myopic_bids(sys3)
    a = evaluate_bids(sys3, bids)
    b = evaluate_bids(sys3, bids)
    c = evaluate_bids(sys3, (bid for bid in bids))  # a generator is read once
    assert a.s_total == pytest.approx(b.s_total, rel=1e-12) == c.s_total
    assert a.bids == b.bids == c.bids == tuple(bids)


def _first_curve(segments):
    return lambda inst, bids: [dataclasses.replace(bids[0], segments=segments)] + bids[1:]


@pytest.mark.parametrize("malform", [
    _first_curve(((0.0, -1.0),)),
    lambda inst, bids: bids + [BidCurve("ghost", inst.hours[0], ((0.0, 1.0),))],
    lambda inst, bids: _first_curve(((0.0, inst.vre_units[0].capacity + 1.0),))(inst, bids),
    lambda inst, bids: [dataclasses.replace(b, segments=((30.0, 1.0), (10.0, 1.0)))
                        for b in bids],
    lambda inst, bids: bids + [BidCurve(inst.vre_units[0].id, 99, ((0.0, 1.0),))],
    lambda inst, bids: bids + [dataclasses.replace(bids[0], segments=((0.0, 1.0),))],
    _first_curve(((0.0, float("nan")),)),
    _first_curve(((float("inf"), 1.0),)),
], ids=["negative-quantity", "unknown-owner", "above-capacity", "decreasing-prices",
        "unknown-hour", "duplicate-curve", "nan-quantity", "inf-price"])
def test_malformed_bid_set_rejected_as_bad_input(sys5, malform):
    bids = malform(sys5, myopic_bids(sys5))
    with pytest.raises(BidSetError):
        evaluate_bids(sys5, bids)


def test_no_vre_instance_score_ignores_bids(t1):
    stale = dataclasses.replace(t1, vre_units=())
    # its scenarios still report output for the dropped unit w1
    with pytest.raises(ValueError, match="unknown VRE id 'w1'"):
        evaluate_bids(stale, [])
    ss = t1.scenario_set
    bare = dataclasses.replace(stale, scenario_set=dataclasses.replace(ss, scenarios=tuple(
        dataclasses.replace(s, vre_real={}) for s in ss.scenarios)))
    result = evaluate_bids(bare, [])
    # conventional unit serves 80 MW day-ahead; scenarios only carry wind
    assert result.f_da_true == pytest.approx(1600.0)


@pytest.mark.parametrize("run", [
    stochastic,
    myopic,
    lambda inst: evaluate_bids(inst, myopic_bids(inst)),
    lambda inst: evaluate_bids(inst, [BidCurve("w1", 0, ((0.0, 30.0),))]),
    lambda inst: solve_bid(inst, (0.0,)),
], ids=["stochastic", "myopic", "evaluate_bids", "evaluate_given_bids", "solve_bid"])
def test_instance_without_scenarios_rejected_before_any_lp(t1, monkeypatch, run):
    empty = dataclasses.replace(
        t1, scenario_set=dataclasses.replace(t1.scenario_set, scenarios=()))
    monkeypatch.setattr(lp, "linprog", lambda *a, **k: pytest.fail("an LP was solved"))
    with pytest.raises(ValueError, match="no scenarios"):
        run(empty)


@pytest.mark.parametrize("name, status, run, message", [
    ("dam", LpStatus.UNBOUNDED, lambda inst: evaluate_bids(inst, myopic_bids(inst)),
     "day-ahead market solve ended unbounded"),
    ("rtm[s1]", LpStatus.UNBOUNDED, lambda inst: evaluate_bids(inst, myopic_bids(inst)),
     "real-time dispatch for scenario 's1' solve ended unbounded"),
    ("std", LpStatus.UNBOUNDED, stochastic, "stochastic dispatch solve ended unbounded"),
    ("relaxed-bid", LpStatus.INFEASIBLE, lambda inst: solve_bid(inst, (0.0,)),
     "relaxed bid LP is infeasible; most violated rows: "),
    ("relaxed-bid", LpStatus.UNBOUNDED, lambda inst: solve_bid(inst, (0.0,)),
     "relaxed bid LP solve ended unbounded"),
], ids=["dam", "rtm", "stochastic", "solve_bid-infeasible", "solve_bid-unbounded"])
def test_a_market_lp_that_ends_not_optimal_raises(t1, monkeypatch, name, status, run, message):
    # every market LP is solved through `dam.solved`; the LP named `name` ends `status`
    solve = dam.solve
    monkeypatch.setattr(dam, "solve", lambda lp_model, **kwargs: (
        LpSolution(status=status) if lp_model.name == name else solve(lp_model, **kwargs)))
    with pytest.raises(DamInfeasibleError, match=re.escape(message)):
        run(t1)


def test_instance_validated_once(t1, monkeypatch):
    calls = []
    monkeypatch.setattr(model, "validate", lambda inst: calls.append(inst) or
                        model.ValidationReport())
    fresh = dataclasses.replace(t1)
    myopic(fresh)
    myopic(fresh)
    stochastic(fresh)
    solve_bid(fresh, (0.0, 10.0))
    assert calls == [fresh]


def test_myopic_lmps_carry_no_signed_zero(sys5):
    # HiGHS reports -0.0 on some of sys5's balance rows
    result = myopic(sys5)
    lmps = [*result.da_duals.values()]
    lmps += [v for d in result.rt_dispatches for v in d.lmp.values()]
    assert 0.0 in lmps
    assert [v for v in lmps if math.copysign(1.0, v) < 0 and v == 0.0] == []


def test_myopic_schedule_and_dispatch_carry_no_signed_zero(sys5):
    # HiGHS reports -0.0 in some of sys5's primal values
    result = myopic(sys5)
    values = [v for part in (result.da, *result.rt_dispatches) for field in vars(part).values()
              if isinstance(field, dict) for v in field.values()]
    assert 0.0 in values
    assert [v for v in values if math.copysign(1.0, v) < 0 and v == 0.0] == []


def test_myopic_bids_expected_forecast_per_unit(t1):
    bids = myopic_bids(t1)
    assert len(bids) == 1
    assert bids[0].segments == ((0.0, 30.0),)
    result = myopic(t1)
    assert result.policy == "MyD"
    assert result.s_total == pytest.approx(1250.0)


def test_myopic_two_units_bid_independently(t1):
    scenarios = tuple(
        dataclasses.replace(
            s, vre_real={**s.vre_real, ("w2", 0): 20.0 if s.id == "s1" else 0.0}
        )
        for s in t1.scenario_set.scenarios
    )
    twin = dataclasses.replace(
        t1,
        vre_units=t1.vre_units + (VreUnit(id="w2", bus="b1", capacity=50.0),),
        scenario_set=dataclasses.replace(t1.scenario_set, scenarios=scenarios),
    )
    by_owner = {b.owner: b for b in myopic_bids(twin)}
    assert by_owner["w1"].segments[0][1] == pytest.approx(30.0)
    assert by_owner["w2"].segments[0][1] == pytest.approx(10.0)


def test_myopic_deterministic_scenario_has_zero_rt_cost(t1_perfect):
    result = myopic(t1_perfect)
    assert result.expected_rt == pytest.approx(0.0, abs=1e-6)
    assert result.s_total == pytest.approx(1000.0)


def test_stochastic_t1(t1):
    result = stochastic(t1)
    assert result.policy == "StD"
    assert result.s_total == pytest.approx(1100.0)


def test_stochastic_single_scenario_equals_perfect_foresight(t1_perfect):
    std = stochastic(t1_perfect)
    perfect = evaluate_bids(t1_perfect, [BidCurve("w1", 0, ((0.0, 30.0),))])
    assert std.s_total == pytest.approx(perfect.s_total, rel=1e-9)


def test_stochastic_lower_bounds_every_policy(bundled):
    for inst in bundled.values():
        std = stochastic(inst).s_total
        myd = myopic(inst).s_total
        assert std <= myd + 1e-6 * max(1.0, abs(myd))


def test_compare_t1_table_and_chain(t1):
    table = compare(t1, (0.0,))
    assert table.cost("MyD") == pytest.approx(1250.0)
    assert table.cost("BiD") == pytest.approx(1100.0, rel=1e-6)
    assert table.cost("StD") == pytest.approx(1100.0)
    with pytest.raises(KeyError):
        table.cost("BiD-q")
    assert table.chain_ok
    assert table.chain_violation == pytest.approx(0.0, abs=1e-6)


def test_compare_deterministic_scenarios_all_equal(t1_perfect):
    table = compare(t1_perfect, (0.0,))
    costs = [s for _, _, _, s in table.rows]
    assert max(costs) - min(costs) <= 1e-6 * max(1.0, max(costs))


def test_comparison_serialization(t1):
    table = compare(t1, (0.0,))
    text = table.to_csv()
    header = text.splitlines()[0]
    for column in ("policy", "f_DA_true[$]", "E[f_RT][$]", "S[$]"):
        assert column in header
    doc = json.loads(table.to_json())
    assert {r["policy"] for r in doc["rows"]} == {"MyD", "BiD", "StD"}
    assert doc["chain_ok"] is True


def test_random_bid_sets_are_feasible(sys3):
    rng = np.random.default_rng(7)
    for _ in range(20):
        for bid in random_bid_set(sys3, rng, seg_count=3):
            prices = [p for p, _ in bid.segments]
            assert prices == sorted(prices)
            assert all(q >= 0.0 for _, q in bid.segments)
            cap = sys3.vre(bid.owner).capacity
            assert bid.total_quantity <= cap + 1e-9
