"""Day-ahead clearing: schedules, LMPs, cost measures, and failure modes."""
import dataclasses

import numpy as np
import pytest

from market_coord import io as mio
from market_coord.dam import BidSetError, DamInfeasibleError, build_dam, clear_dam, dam_structure
from market_coord.dam import _check_bids
from market_coord.lp import LpStatus, solve
from market_coord.model import BidCurve, ScenarioSet
from market_coord.policies import evaluate_bids, myopic_bids
from conftest import random_bid_set, zero_bid


def myd_t1_bid():
    return [BidCurve(owner="w1", hour=0, segments=((0.0, 30.0),))]


def test_t1_expected_forecast_bid_schedule_and_lmp(t1):
    da, lmps = clear_dam(t1, myd_t1_bid())
    assert da.p_vre[("w1", 0, 0)] == pytest.approx(30.0)
    assert da.p_conventional[("g1", 0)] == pytest.approx(50.0)
    assert da.f_da_true == pytest.approx(1000.0)
    assert lmps[("b1", 0)] == pytest.approx(20.0)


def test_t1_zero_bid_conventional_serves_all(t1):
    da, _ = clear_dam(t1, zero_bid(t1))
    assert da.p_conventional[("g1", 0)] == pytest.approx(80.0)
    assert da.f_da_true == pytest.approx(1600.0)


def test_t1_out_of_merit_bid_not_dispatched(t1):
    da, _ = clear_dam(t1, [BidCurve("w1", 0, ((25.0, 30.0),))])
    assert da.p_vre[("w1", 0, 0)] == pytest.approx(0.0)
    assert da.p_conventional[("g1", 0)] == pytest.approx(80.0)


def test_t1_model_objective_matches_hand_lp(t1):
    model, _ = build_dam(t1, myd_t1_bid())
    sol = solve(model)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1000.0)


def test_single_bus_model_has_one_balance_row_per_hour(t1):
    model, _ = build_dam(t1, myd_t1_bid())
    balance = [n for n in model.con_names if n.startswith("da_bal")]
    assert len(balance) == 1


def test_zero_load_dispatches_nothing(t1):
    quiet = dataclasses.replace(
        t1,
        scenario_set=ScenarioSet(
            hours=(0,),
            da_load={("b1", 0): 0.0},
            scenarios=t1.scenario_set.scenarios,
        ),
    )
    da, _ = clear_dam(quiet, zero_bid(quiet))
    assert da.f_da_bid == pytest.approx(0.0)
    assert da.p_conventional[("g1", 0)] == pytest.approx(0.0)


def test_line_limit_makes_split_system_infeasible(two_bus):
    with pytest.raises(DamInfeasibleError) as err:
        clear_dam(two_bus, zero_bid(two_bus))
    # the elastic LP is degenerate: relaxing the balance row or the line row
    # by 60 MW is equally cheap, and HiGHS's vertex relaxes the balance row
    assert err.value.diagnostics == ["da_bal[b2,0] (violation 60)"]


def test_da_slack_sheds_what_the_line_cannot_carry(two_bus):
    da, _ = clear_dam(two_bus, zero_bid(two_bus), da_slack=True)
    assert da.shed[("b2", 0)] == pytest.approx(60.0)
    # 20 MW delivered at $20 plus 60 MW shed at VoLL
    assert da.f_da_bid == pytest.approx(20.0 * 20.0 + 1000.0 * 60.0)


def test_missing_bid_curve_rejected(t1):
    with pytest.raises(BidSetError):
        clear_dam(t1, [])


def test_segment_count_mismatch_rejected(sys3):
    bids = []
    for k in sys3.vre_units:
        for t in sys3.hours:
            segs = ((0.0, 5.0),) if t == 0 else ((0.0, 5.0), (1.0, 5.0))
            bids.append(BidCurve(owner=k.id, hour=t, segments=segs))
    with pytest.raises(BidSetError):
        clear_dam(sys3, bids)


def test_bid_cost_decomposition_identity(sys3):
    bids = [
        BidCurve(owner=k.id, hour=t, segments=((0.0, 10.0), (3.0, 20.0)))
        for k in sys3.vre_units
        for t in sys3.hours
    ]
    da, _ = clear_dam(sys3, bids)
    paid = sum(
        price * da.p_vre[(b.owner, b.hour, s)]
        for b in bids
        for s, (price, _q) in enumerate(b.segments)
    )
    assert da.f_da_bid - da.f_da_true == pytest.approx(paid, abs=1e-6)
    assert da.f_da_true <= da.f_da_bid + 1e-9


def test_merit_order_partial_dispatch(t1):
    # zero-price wind is taken up to the offer; the $20 unit covers the rest
    da, _ = clear_dam(t1, [BidCurve("w1", 0, ((0.0, 45.0),))])
    assert da.p_vre[("w1", 0, 0)] == pytest.approx(45.0)
    assert da.p_conventional[("g1", 0)] == pytest.approx(35.0)


def test_slow_start_unit_ramp_binds_on_sys5(sys5):
    da, _ = clear_dam(sys5, zero_bid(sys5))
    g1 = [da.p_conventional[("g1", t)] for t in sys5.hours]
    # hour-to-hour moves stay within the 40 MW/h ramp (p_init = 100)
    assert abs(g1[0] - 100.0) <= 40.0 + 1e-6
    for a, b in zip(g1, g1[1:]):
        assert abs(b - a) <= 40.0 + 1e-6


def test_multi_hour_lmp_at_marginal_unit(sys3):
    da, lmp = clear_dam(sys3, zero_bid(sys3))
    # with wind absent the $40 unit is marginal somewhere every hour
    for t in sys3.hours:
        lmps = [lmp[(n, t)] for n in sys3.network.buses]
        assert max(lmps) >= 15.0 - 1e-6


def _two_segment(instance, prices):
    """Myopic quantities split evenly over two segments at `prices`."""
    return [BidCurve(b.owner, b.hour, tuple((p, b.segments[0][1] / 2) for p in prices))
            for b in myopic_bids(instance)]


def test_cached_block_keeps_no_bid_prices():
    inst = mio.bundled_instance("sys3")
    a, b = _two_segment(inst, (0.0, 10.0)), _two_segment(inst, (25.0, 60.0))
    first = evaluate_bids(inst, a)
    block = dam_structure(inst, 2)
    other = evaluate_bids(inst, b)
    again = evaluate_bids(inst, a)
    assert dam_structure(inst, 2) is block
    assert not block.cost[block.pw_cols].any()
    assert other.da.f_da_bid != first.da.f_da_bid
    fresh = evaluate_bids(mio.bundled_instance("sys3"), a)
    for result in (again, fresh):
        assert result.s_total == first.s_total
        assert result.da == first.da  # every schedule field, both cost measures


@pytest.mark.parametrize("name", ["t1", "sys3", "sys5"])
@pytest.mark.parametrize("seg_count", [1, 2, 3])
def test_curves_round_trip_through_the_key_order(bundled, name, seg_count):
    inst, rng = bundled[name], np.random.default_rng(seg_count)
    for _ in range(5):
        bids = random_bid_set(inst, rng, seg_count=seg_count)
        block, prices, quantities = _check_bids(inst, bids)
        assert block is dam_structure(inst, seg_count)
        assert len(prices) == len(quantities) == len(block.keys)
        assert block.bid_curves(prices, quantities) == bids


def test_bid_curves_clip_and_scale_to_capacity(t1):
    block = dam_structure(t1, 2)
    cap = t1.vre("w1").capacity
    assert block.capacity.tolist() == [cap, cap]
    clipped, = block.bid_curves([0.0, 10.0], [-5.0, 2 * cap])
    assert clipped.segments == ((0.0, 0.0), (10.0, cap))
    scaled, = block.bid_curves([0.0, 10.0], [cap, cap])
    assert scaled.segments == ((0.0, cap / 2), (10.0, cap / 2))
