"""Bid-quantity optimization: relaxation structure, extraction, verifiers."""
import dataclasses
import re

import numpy as np
import pytest

from market_coord.bilevel import (
    THEOREM_TOL,
    build_relaxed_bid,
    collapse_to_single_segment,
    oracle_grid_search,
    price_sweep,
    solve_bid,
    solve_bid_q,
    verify_theorem1,
    vre_profit,
)
from market_coord import bilevel, dam
from market_coord.dam import BidSetError, DaSchedule, build_dam, check_prices
from market_coord.lp import LpStatus, solve
from market_coord.model import BidCurve
from market_coord.policies import evaluate_bids, myopic, myopic_bids, stochastic
from conftest import matrix

SIX_SEGMENT = (0.0, 2.0, 22.0, 30.0, 32.0, 350.0)


def test_price_config_rejects_bad_vectors(t1):
    with pytest.raises(ValueError):
        check_prices(t1, (5.0, 2.0))
    with pytest.raises(ValueError):
        check_prices(t1, (-1.0, 2.0))
    with pytest.raises(BidSetError, match="at least one price required"):
        check_prices(t1, ())
    assert len(check_prices(t1, (0.0, 2.0))) == 2


@pytest.mark.parametrize("prices", [(float("nan"),), (0.0, float("nan")), (0.0, float("inf"))])
def test_price_config_rejects_non_finite_prices(t1, prices):
    # a NaN passes both ordering checks, since every comparison with it is false
    with pytest.raises(ValueError, match="finite"):
        check_prices(t1, prices)


@pytest.mark.parametrize("call, message", [
    (lambda inst: bilevel.solve_bid(inst, (0.0, 15.0, 1500.0)), "bid price cap 1000"),
    (lambda inst: bilevel.oracle_grid_search(inst, (1500.0,), 10.0), "bid price cap 1000"),
    (lambda inst: bilevel.verify_theorem1(inst, (0.0, 15.0, 1500.0)), "bid price cap 1000"),
    (lambda inst: bilevel.price_sweep(inst, (0.0, 1500.0)), "bid price cap 1000"),
    (lambda inst: bilevel.solve_bid(inst, ()), "at least one price"),
    (lambda inst: bilevel.oracle_grid_search(inst, (), 1.0), "at least one price"),
    (lambda inst: bilevel.verify_theorem1(inst, ()), "at least one price"),
], ids=["solve_bid", "oracle_grid_search", "verify_theorem1", "price_sweep",
        "solve_bid-empty", "oracle_grid_search-empty", "verify_theorem1-empty"])
def test_price_above_the_cap_rejected_before_any_lp(t1, monkeypatch, call, message):
    # t1's bid price cap is its VoLL, 1000 $/MWh; an empty price vector
    # breaks the same rules
    solves = []

    def counted(model, *args, **kwargs):
        solves.append(model.name)
        return solve(model, *args, **kwargs)

    monkeypatch.setattr(dam, "solve", counted)  # every market LP is solved there
    with pytest.raises(BidSetError, match=message):
        call(t1)
    assert solves == []


def test_relaxed_model_structure_t1(t1):
    model, ctx = build_relaxed_bid(t1, (0.0,))
    aux = [v for v in model.var_names if v.startswith("v[")]
    assert len(aux) == 1  # one (unit, hour, segment) product on T1
    assert "strong_duality" in model.con_names
    assert "w_total[w1,0]" in model.con_names
    # the McCormick box on the cap-row dual is [-VoLL, 0]
    y = ctx.duals[ctx.structure.cap_rows]
    assert [(model.lb[j], model.ub[j]) for j in y] == [(-t1.system.voll, 0.0)]


@pytest.mark.parametrize("name", ["t1", "sys3", "sys5"])
def test_relaxed_lower_level_is_the_day_ahead_block(bundled, name):
    inst = bundled[name]
    prices = (0.0, 20.0)
    bids = [BidCurve(b.owner, b.hour, ((prices[0], b.segments[0][1] / 3),
                                       (prices[1], b.segments[0][1] / 2)))
            for b in myopic_bids(inst)]
    dam, block = build_dam(inst, bids)
    relaxed, ctx = build_relaxed_bid(inst, prices)
    assert ctx.structure is block
    row_at = {r: i for i, r in enumerate(relaxed.con_names)}
    col_at = {v: j for j, v in enumerate(relaxed.var_names)}
    A = matrix(relaxed)
    cols = [col_at[v] for v in block.cols]
    w_cols = [col_at[v] for v in block.d_cols]
    y_cols = [col_at[f"y[{r}]"] for r in block.rows]

    # the lower level with W fixed at the bid quantities is the day-ahead LP
    rows = [row_at[r] for r in block.rows]
    lower = A[rows]
    assert lower.nnz == lower[:, cols].nnz + lower[:, w_cols].nnz
    assert [relaxed.con_sense[i] for i in rows] == dam.con_sense
    assert (lower[:, cols] != matrix(dam)).nnz == 0
    q = np.array([seg[1] for b in bids for seg in b.segments])
    fixed = np.array(relaxed.con_rhs)[rows] - lower[:, w_cols] @ q
    assert fixed.tolist() == dam.con_rhs.tolist()
    assert [relaxed.lb[j] for j in cols] == dam.lb.tolist()
    assert [relaxed.ub[j] for j in cols] == dam.ub.tolist()

    # one bound dual per finite column bound of the day-ahead LP: z_l >= 0
    # at a lower bound, z_u <= 0 at an upper one
    at_lb = [v for v, lo in zip(dam.var_names, dam.lb) if np.isfinite(lo)]
    at_ub = [v for v, hi in zip(dam.var_names, dam.ub) if np.isfinite(hi)]
    z_cols = [col_at[f"zl[{v}]"] for v in at_lb] + [col_at[f"zu[{v}]"] for v in at_ub]
    assert sum(v.startswith(("zl[", "zu[")) for v in relaxed.var_names) == len(z_cols)
    assert [(relaxed.lb[j], relaxed.ub[j]) for j in z_cols] == \
        [(0.0, np.inf)] * len(at_lb) + [(-np.inf, 0.0)] * len(at_ub)

    # dual feasibility reads A^T y + z = c, c the day-ahead LP's bid cost
    dual_rows = [row_at[f"dual[{v}]"] for v in block.cols]
    dual = A[dual_rows]
    assert dual.nnz == dual[:, y_cols].nnz + dual[:, z_cols].nnz
    assert (dual[:, y_cols] != matrix(dam).T).nnz == 0
    bounded = [block.cols.index(v) for v in at_lb + at_ub]
    assert (dual[:, z_cols].toarray() == np.eye(len(block.cols))[:, bounded]).all()
    assert [relaxed.con_sense[i] for i in dual_rows] == ["="] * len(block.cols)
    assert [relaxed.con_rhs[i] for i in dual_rows] == dam.obj.tolist()

    def row(name):
        """Row `name` of the relaxed LP as (terms by column name, sense, rhs)."""
        i = row_at[name]
        lo, hi = A.indptr[i], A.indptr[i + 1]
        terms = {relaxed.var_names[j]: c
                 for j, c in zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist())}
        return terms, relaxed.con_sense[i], relaxed.con_rhs[i]

    # strong duality: c x = b y + lb z_l + ub z_u + the McCormick products
    terms, sense, rhs = row("strong_duality")
    bound = [lo for lo in dam.lb if np.isfinite(lo)] + [hi for hi in dam.ub if np.isfinite(hi)]
    expect = {relaxed.var_names[j]: -b for j, b in zip(z_cols, bound) if b != 0.0}
    assert {v: c for v, c in terms.items() if v.startswith(("zl[", "zu["))} == expect
    assert (sense, rhs) == ("=", 0.0)

    # upper level: W in [0, capacity], and one w_total row per (unit, hour)
    lam = inst.system.voll
    for k in inst.vre_units:
        for t in inst.hours:
            w = [f"W[{k.id},{t},{s}]" for s in range(len(prices))]
            assert [(relaxed.lb[col_at[v]], relaxed.ub[col_at[v]]) for v in w] == \
                [(0.0, k.capacity)] * len(prices)
            assert row(f"w_total[{k.id},{t}]") == (dict.fromkeys(w, 1.0), "<=", k.capacity)
    assert sum(r.startswith("w_total[") for r in relaxed.con_names) == \
        len(inst.vre_units) * len(inst.hours)

    # the four McCormick envelope rows of each key's product v = y * w
    for (k, t, s), r in zip(block.keys, block.cap_rows.tolist()):
        tag, cap = f"{k},{t},{s}", inst.vre(k).capacity
        v, w, y = f"v[{tag}]", f"W[{tag}]", f"y[{block.rows[r]}]"
        assert row(f"mc1[{tag}]") == ({v: 1.0, w: lam}, ">=", 0.0)
        assert row(f"mc2[{tag}]") == ({v: 1.0, y: -cap}, ">=", 0.0)
        assert row(f"mc3[{tag}]") == ({v: 1.0, w: lam, y: -cap}, "<=", lam * cap)
        assert row(f"mc4[{tag}]") == ({v: 1.0}, "<=", 0.0)
        assert row_at[f"mc4[{tag}]"] - row_at[f"mc1[{tag}]"] == 3


def test_relaxed_objective_lower_bounds_the_oracle_optimum(t1):
    model, _ = build_relaxed_bid(t1, (0.0,))
    sol = solve(model)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective <= 1100.0 + 1e-6


def test_solve_bid_t1_matches_oracle(t1):
    sol = solve_bid(t1, (0.0,))
    assert sol.s_bid == pytest.approx(1100.0, rel=1e-6)
    assert sol.mccormick_gap == pytest.approx(sol.s_bid - sol.relaxed_objective)
    assert sol.s_bid >= sol.relaxed_objective - 1e-6


def test_solve_bid_out_of_merit_price_is_harmless(t1):
    sol = solve_bid(t1, (350.0,))
    no_vre = evaluate_bids(t1, [BidCurve("w1", 0, ((0.0, 0.0),))])
    assert sol.s_bid == pytest.approx(no_vre.s_total, rel=1e-6)
    assert sol.policy_result.da.vre_total("w1", 0) == pytest.approx(0.0, abs=1e-6)


def test_solve_bid_deterministic_scenario_recovers_realization(t1_perfect):
    sol = solve_bid_q(t1_perfect)
    assert sol.quantities[("w1", 0, 0)] == pytest.approx(30.0, abs=1e-2)
    assert sol.s_bid == pytest.approx(stochastic(t1_perfect).s_total, rel=1e-6)


def test_solve_bid_q_t1(t1):
    sol = solve_bid_q(t1)
    assert sol.prices == (0.0,)
    assert sol.s_bid == pytest.approx(1100.0, rel=1e-6)


def test_complementarity_residual_within_envelope_bound(t1):
    sol = solve_bid(t1, SIX_SEGMENT)
    envelope = 1000.0 * sum(
        k.capacity * len(SIX_SEGMENT) for k in t1.vre_units
    ) * len(t1.hours)
    assert 0.0 <= sol.complementarity_residual <= envelope


def test_theorem_equality_with_zero_segment(t1):
    report = verify_theorem1(t1, (0.0, 5.0))
    assert report.has_zero_segment
    assert report.passed
    assert report.relative_gap <= THEOREM_TOL


def test_theorem_informational_without_zero_segment(t1):
    report = verify_theorem1(t1, (10.0, 20.0))
    assert not report.has_zero_segment
    assert report.passed is None


def test_collapse_sums_dispatched_segments():
    da = DaSchedule(
        p_conventional={}, commitment={}, startup_cost={},
        p_vre={("w1", 0, 0): 10.0, ("w1", 0, 1): 5.0, ("w1", 0, 2): 0.0},
        angle={}, f_da_bid=0.0, f_da_true=0.0,
    )
    curves = collapse_to_single_segment(da)
    assert curves == [BidCurve(owner="w1", hour=0, segments=((0.0, 15.0),))]
    empty = DaSchedule(
        p_conventional={}, commitment={}, startup_cost={},
        p_vre={("w1", 0, 0): 0.0}, angle={}, f_da_bid=0.0, f_da_true=0.0,
    )
    assert collapse_to_single_segment(empty)[0].total_quantity == 0.0


def test_collapse_preserves_t1_cost(t1):
    sol = solve_bid(t1, (0.0, 5.0))
    collapsed = collapse_to_single_segment(sol.policy_result.da)
    score = evaluate_bids(t1, collapsed)
    assert score.s_total == pytest.approx(sol.s_bid, rel=0.005)


def test_oracle_t1_finds_1100(t1):
    # with two segments of up to 50 MW each, the points whose sum passes
    # w1's 50 MW are skipped, not scored
    cap = t1.vre_units[0].capacity
    for prices, step in (((0.0,), 1.0), ((0.0, 10.0), 5.0)):
        bids, best = oracle_grid_search(t1, prices, step)
        assert best == pytest.approx(1100.0)
        assert evaluate_bids(t1, bids).s_total == pytest.approx(best)
        assert all(b.total_quantity <= cap + 1e-9 for b in bids)


def test_oracle_endpoints_only_when_step_exceeds_capacity(t1):
    _, best = oracle_grid_search(t1, (0.0,), 100.0)
    lo = evaluate_bids(t1, [BidCurve("w1", 0, ((0.0, 0.0),))]).s_total
    hi = evaluate_bids(t1, [BidCurve("w1", 0, ((0.0, 50.0),))]).s_total
    assert best == pytest.approx(min(lo, hi))


def test_oracle_deterministic_scenario_minimizer_at_realization(t1_perfect):
    bids, best = oracle_grid_search(t1_perfect, (0.0,), 5.0)
    assert bids[0].segments[0][1] == pytest.approx(30.0)
    assert best == pytest.approx(1000.0)


def test_oracle_dimension_guard(sys5):
    with pytest.raises(ValueError):
        oracle_grid_search(sys5, (0.0, 5.0), 10.0)


@pytest.mark.parametrize("step, count", [
    (1e-320, "inf"), (1e-9, "50,000,000,001"), (5e-5, "1,000,001")])
def test_oracle_point_guard(t1, step, count):
    # counted before any point is made; t1's one axis of 50 MW holds
    # 50 / step + 1 points: at 5e-5 MW one more than the limit
    message = f"gives {count} grid points, above the limit of 1,000,000"
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_grid_search(t1, (0.0,), step)


def test_vre_profit_t1_expected_forecast(t1):
    profits = vre_profit(t1, myopic(t1))
    # DA: 20 $/MWh on 30 MW; RT deviations settle at 15 (surplus) / 40 (deficit)
    assert profits["w1"] == pytest.approx(350.0)
    assert profits["aggregate"] == pytest.approx(350.0)


def test_vre_profit_zero_deviation_is_da_revenue_only(t1_perfect):
    profits = vre_profit(t1_perfect, myopic(t1_perfect))
    assert profits["w1"] == pytest.approx(20.0 * 30.0)


def test_vre_profit_requires_duals(t1):
    with pytest.raises(ValueError):
        vre_profit(t1, stochastic(t1))


def test_sweep_price_zero_matches_quantity_only(t1):
    s_bid_q = solve_bid_q(t1).s_bid
    for points in ([0.0], [0]):  # an integer point is swept, and written, as a float
        table = price_sweep(t1, points)
        assert table.rows[0]["s_bid_usd"] == pytest.approx(s_bid_q, rel=1e-6)
        assert table.to_csv().splitlines()[1].startswith("0.000000,")


def test_sweep_high_price_removes_wind_for_both_policies(t1):
    table = price_sweep(t1, [1000.0])
    row = table.rows[0]
    assert row["da_wind_bid_mw"] == pytest.approx(0.0, abs=1e-6)
    assert row["da_wind_myd_mw"] == pytest.approx(0.0, abs=1e-6)
    assert row["s_bid_usd"] == pytest.approx(row["s_myd_usd"], rel=1e-6)


def test_sweep_table_headers_carry_units(sys3):
    table = price_sweep(sys3, [0.0, 40.0])
    header = table.to_csv().splitlines()[0]
    assert "usd" in header and "mw" in header
    assert price_sweep(sys3, []).to_csv() == ""  # no rows, no header


@pytest.mark.parametrize("prices", [(0.0,), (0.0, 15.0, 35.0)])
def test_solve_bid_ignores_scenario_order(sys3, prices):
    ss = sys3.scenario_set
    reversed_ = dataclasses.replace(
        sys3, scenario_set=dataclasses.replace(ss, scenarios=ss.scenarios[::-1]))
    assert solve_bid(reversed_, prices).quantities == solve_bid(sys3, prices).quantities
