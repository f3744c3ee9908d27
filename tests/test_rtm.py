"""Real-time re-dispatch: scenario costs, coupling rules, and backstops."""
import dataclasses

import numpy as np
import pytest

from market_coord import dam, io as mio, lp, rtm
from market_coord.bilevel import _load_weighted_lmps, solve_bid, vre_profit
from market_coord.dam import clear_dam, dam_structure
from market_coord.lp import solve
from market_coord.model import BidCurve
from market_coord.policies import evaluate_bids, myopic, myopic_bids, stochastic
from market_coord.rtm import build_rtm, clear_rtm, expected_rt_cost
from conftest import matrix, single_scenario, zero_bid


@pytest.fixture()
def t1_myd_da(t1):
    da, _ = clear_dam(t1, myopic_bids(t1))
    return da


def test_shortfall_scenario_redispatches_up(t1, t1_myd_da):
    disp = clear_rtm(t1, t1_myd_da, "s2")
    assert disp.r_up[("g1", 0)] == pytest.approx(20.0)
    assert disp.f_rt == pytest.approx(800.0)


def test_surplus_scenario_redispatches_down(t1, t1_myd_da):
    disp = clear_rtm(t1, t1_myd_da, "s1")
    assert disp.r_down[("g1", 0)] == pytest.approx(20.0)
    assert disp.f_rt == pytest.approx(-300.0)


def test_expected_rt_cost_t1(t1, t1_myd_da):
    expected, dispatches = expected_rt_cost(t1, t1_myd_da)
    assert expected == pytest.approx(250.0)
    assert [d.scenario_id for d in dispatches] == ["s1", "s2"]


def test_perfect_forecast_needs_no_redispatch(t1_perfect):
    da, _ = clear_dam(t1_perfect, myopic_bids(t1_perfect))
    disp = clear_rtm(t1_perfect, da, "only")
    assert disp.f_rt == pytest.approx(0.0, abs=1e-6)
    assert max(disp.r_up.values()) == pytest.approx(0.0, abs=1e-6)
    assert max(disp.r_down.values()) == pytest.approx(0.0, abs=1e-6)


def test_down_redispatch_credit_preferred_over_curtailment(t1):
    # with wind bid out, the 50 MW surplus is absorbed by paid down-redispatch
    da, _ = clear_dam(t1, zero_bid(t1))
    disp = clear_rtm(t1, da, "s1")
    assert disp.r_down[("g1", 0)] == pytest.approx(50.0)
    assert disp.curtailment[("w1", 0)] == pytest.approx(0.0, abs=1e-9)
    assert disp.f_rt == pytest.approx(-750.0)


def test_load_spike_sheds_at_voll(t1):
    spike = single_scenario(t1, {("w1", 0): 10.0}, {("b1", 0): 200.0})
    da, _ = clear_dam(spike, myopic_bids(spike))
    disp = clear_rtm(spike, da, "only")
    assert disp.shed[("b1", 0)] == pytest.approx(110.0)
    assert disp.f_rt == pytest.approx(1000.0 * 110.0 + 40.0 * 10.0)


def test_raising_voll_never_cheapens_a_shedding_scenario(t1):
    spike = single_scenario(t1, {("w1", 0): 10.0}, {("b1", 0): 200.0})
    da, _ = clear_dam(spike, myopic_bids(spike))
    base = clear_rtm(spike, da, "only").f_rt
    pricier = dataclasses.replace(
        spike, system=dataclasses.replace(spike.system, voll=2000.0)
    )
    da2, _ = clear_dam(pricier, myopic_bids(pricier))
    assert clear_rtm(pricier, da2, "only").f_rt >= base - 1e-9


def test_slow_start_commitment_is_pinned_to_day_ahead(sys5):
    da, _ = clear_dam(sys5, zero_bid(sys5))
    for scen in sys5.scenario_set.scenarios:
        disp = clear_rtm(sys5, da, scen.id)
        for t in sys5.hours:
            assert disp.commitment[("g1", t)] == pytest.approx(
                da.commitment[("g1", t)], abs=1e-6
            )


def test_fast_start_commitment_may_only_increase(sys5):
    da, _ = clear_dam(sys5, zero_bid(sys5))
    for scen in sys5.scenario_set.scenarios:
        disp = clear_rtm(sys5, da, scen.id)
        for uid in ("g2", "g3"):
            for t in sys5.hours:
                assert disp.commitment[(uid, t)] >= da.commitment[(uid, t)] - 1e-6


def test_scenario_results_independent_of_siblings(t1, t1_myd_da):
    alone = dataclasses.replace(
        t1,
        scenario_set=dataclasses.replace(
            t1.scenario_set,
            scenarios=tuple(
                dataclasses.replace(s, probability=1.0)
                for s in t1.scenario_set.scenarios
                if s.id == "s2"
            ),
        ),
    )
    assert clear_rtm(alone, t1_myd_da, "s2").f_rt == pytest.approx(
        clear_rtm(t1, t1_myd_da, "s2").f_rt
    )


def test_unknown_scenario_id_raises(t1, t1_myd_da):
    with pytest.raises(KeyError):
        clear_rtm(t1, t1_myd_da, "s99")


def test_template_built_once_and_warm_scores_bitwise_equal():
    inst = mio.bundled_instance("sys5")
    bids = myopic_bids(inst)
    cold = evaluate_bids(inst, bids)
    template = rtm._template(inst)
    warm = evaluate_bids(inst, bids)
    assert rtm._template(inst) is template
    assert warm.s_total == cold.s_total
    assert warm.rt_dispatches == cold.rt_dispatches


def _with_scenarios(instance, order):
    ss = instance.scenario_set
    return dataclasses.replace(instance, scenario_set=dataclasses.replace(
        ss, scenarios=tuple(ss.scenarios[i] for i in order)))


@pytest.mark.parametrize("name", ["sys3", "sys5"])
def test_warm_scenarios_do_not_depend_on_solve_order(name):
    # every scenario but the first starts from the first one's basis, so a
    # dispatch is the same whichever scenarios were solved before it
    inst = mio.bundled_instance(name)
    da, _ = clear_dam(inst, myopic_bids(inst))
    n = len(inst.scenario_set.scenarios)
    forwards = expected_rt_cost(_with_scenarios(inst, range(n)), da)[1]
    backwards = expected_rt_cost(_with_scenarios(inst, [0, *range(n - 1, 0, -1)]), da)[1]
    by_id = {d.scenario_id: d for d in backwards}
    for d in forwards:
        assert d == by_id[d.scenario_id]
        assert d.f_rt.hex() == by_id[d.scenario_id].f_rt.hex()


@pytest.mark.parametrize("name", ["t1", "sys3", "sys5"])
def test_warm_scenarios_match_a_cold_clear_rtm(bundled, name):
    inst = bundled[name]
    da, _ = clear_dam(inst, myopic_bids(inst))
    total, warm = expected_rt_cost(inst, da)
    for d in warm:
        cold = clear_rtm(inst, da, d.scenario_id)
        assert d.f_rt == pytest.approx(cold.f_rt, rel=1e-9, abs=1e-9)
        assert d.lmp == pytest.approx(cold.lmp, rel=1e-9, abs=1e-9)
    assert total == pytest.approx(sum(s.probability * clear_rtm(inst, da, s.id).f_rt
                                      for s in inst.scenario_set.scenarios), rel=1e-9)


def _balance_slopes(model, row, step=1e-3):
    """The left and right slopes of `model`'s optimal cost in the rhs of
    `row`, from solves with that rhs moved by -step, 0 and +step."""
    base, cost = model.con_rhs[row], []
    for rhs in (base - step, base, base + step):
        model.con_rhs[row] = rhs
        cost.append(solve(model).objective)
    model.con_rhs[row] = base
    return (cost[1] - cost[0]) / step, (cost[2] - cost[1]) / step


@pytest.mark.parametrize("name", ["t1", "sys3", "sys5"])
def test_reported_lmps_lie_between_the_balance_slopes(bundled, name):
    # the cost is convex in a balance row's rhs, so every optimal dual of
    # that row, the reported LMP at a degenerate hour too, lies between its
    # left and right slopes; finite differences keep that order
    inst = bundled[name]
    result = myopic(inst)
    for d in result.rt_dispatches:
        model, tpl, _ = build_rtm(inst, result.da, d.scenario_id)
        for key, row in zip(tpl.bus_keys, tpl.bal_rows.tolist()):
            left, right = _balance_slopes(model, row)
            assert left - 1e-6 <= d.lmp[key] <= right + 1e-6, (d.scenario_id, key)


def test_scenario_with_non_unique_prices_is_solved_from_scratch(bundled, monkeypatch):
    # sys3's s2 has no redispatch at hour 1 under the myopic schedule, so
    # any price between the down- and up-redispatch costs is optimal there:
    # s2 is solved again from scratch, s3 keeps its warm start
    inst = bundled["sys3"]
    da, _ = clear_dam(inst, myopic_bids(inst))
    load, starts = lp._load, []

    def counted(highs_lp, basis=None):
        starts.append(basis is not None)
        return load(highs_lp, basis)

    monkeypatch.setattr(lp, "_load", counted)
    _, warm = expected_rt_cost(inst, da)
    assert starts == [False, True, False, True]
    monkeypatch.undo()
    assert warm[1] == clear_rtm(inst, da, "s2")


@pytest.mark.parametrize("first", [1, 2])
def test_reported_prices_do_not_depend_on_the_first_scenario(bundled, first):
    # the first scenario's basis starts every other one; with another
    # scenario first, the LMPs, the sweep's load-weighted real-time LMP and
    # the VRE profits of a bid set must stay as they are
    inst = bundled["sys3"]
    n = len(inst.scenario_set.scenarios)
    other = _with_scenarios(inst, [first, *(i for i in range(n) if i != first)])
    for bids in (myopic_bids(inst), solve_bid(inst, (0.0,)).policy_result.bids):
        res, res_other = evaluate_bids(inst, bids), evaluate_bids(other, bids)
        lmps = {d.scenario_id: d.lmp for d in res.rt_dispatches}
        for d in res_other.rt_dispatches:
            assert d.lmp == pytest.approx(lmps[d.scenario_id], rel=1e-9, abs=1e-9)
        assert (_load_weighted_lmps(other, res_other)
                == pytest.approx(_load_weighted_lmps(inst, res), rel=1e-9, abs=1e-9))
        assert (vre_profit(other, res_other)
                == pytest.approx(vre_profit(inst, res), rel=1e-9, abs=1e-9))


@pytest.mark.parametrize("name", ["t1", "sys3", "sys5"])
def test_stochastic_scenario_block_is_the_real_time_lp(bundled, name, monkeypatch):
    inst = bundled[name]
    models = []
    monkeypatch.setattr(dam, "solve", lambda model: models.append(model) or solve(model))
    stochastic(inst)
    (std,) = models
    da, _ = clear_dam(inst, myopic_bids(inst))
    row_at = {r: i for i, r in enumerate(std.con_names)}
    col_at = {v: j for j, v in enumerate(std.var_names)}
    A = matrix(std)

    # the day-ahead schedule at the stochastic LP's day-ahead columns, which
    # come first, as in the day-ahead block
    x = np.zeros(std.n_vars)
    for field in ("p_conventional", "commitment", "startup_cost"):
        keys, cols = dam_structure(inst, 1).outputs[field]
        x[cols] = [getattr(da, field)[key] for key in keys]

    for scen in inst.scenario_set.scenarios:
        rt, tpl, _ = build_rtm(inst, da, scen.id)
        rows = [row_at[f"{r}@{scen.id}"] for r in tpl.rows]
        cols = [col_at[f"{v}@{scen.id}"] for v in tpl.cols]
        d_cols = [col_at[v] for v in tpl.d_cols]
        block = A[rows]
        assert block.nnz == block[:, cols].nnz + block[:, d_cols].nnz
        assert [std.con_sense[i] for i in rows] == rt.con_sense
        assert (block[:, cols] != matrix(rt)).nnz == 0
        assert [std.lb[j] for j in cols] == rt.lb
        assert [std.ub[j] for j in cols] == rt.ub

        # fixing the day-ahead columns term by term, in the order the rows
        # hold them, turns the scenario's rhs b_s into b_s - D x exactly
        row, col, val = (np.array(a) for a in (std._row, std._col, std._val))
        on = np.isin(row, rows) & np.isin(col, d_cols)
        rhs = np.array(std.con_rhs)
        np.subtract.at(rhs, row[on], val[on] * x[col[on]])
        assert rhs[rows].tolist() == rt.con_rhs


def _spike(instance):
    return single_scenario(instance, {("w1", 0): 10.0}, {("b1", 0): 200.0})


def _pricier(instance):
    return dataclasses.replace(
        instance, system=dataclasses.replace(instance.system, voll=2000.0)
    )


def _heavier(instance):
    ss = instance.scenario_set
    return dataclasses.replace(instance, scenario_set=dataclasses.replace(
        ss, da_load={key: load + 5.0 for key, load in ss.da_load.items()}))


@pytest.mark.parametrize("prepare, change", [
    (lambda inst: inst, _spike),
    (_spike, _pricier),
    (lambda inst: inst, _heavier),
], ids=["scenarios", "voll", "da-load"])
def test_replaced_instance_scored_from_its_own_template(prepare, change):
    base = prepare(mio.bundled_instance("t1"))
    bids = myopic_bids(base)
    before = evaluate_bids(base, bids)
    changed = change(base)
    scored = evaluate_bids(changed, bids)
    assert rtm._template(changed) is not rtm._template(base)
    assert dam_structure(changed, 1) is not dam_structure(base, 1)
    assert scored.s_total != before.s_total
    fresh = change(prepare(mio.bundled_instance("t1")))
    assert scored.s_total == evaluate_bids(fresh, bids).s_total
