"""Bid-quantity optimization via the single-level LP relaxation.

With fixed segment prices, the bid problem is bilevel: the upper level picks
bid quantities and all per-scenario re-dispatch, the lower level clears the
day-ahead market. Lower-level optimality is imposed through dual feasibility
plus one strong-duality equality; the bilinear dual-times-quantity products
in the dual objective are replaced by auxiliary variables boxed with
McCormick envelopes, leaving one LP. Its parts (the quantities W, the
lower-level primal and duals, the auxiliaries and each scenario's
re-dispatch) are joined by the column indices `LpModel.add_vars` returns.

Reported costs always come from re-running the sequential markets on the
extracted quantities, never from the relaxed objective.

Segment prices, one tuple shared by every curve, pass `dam.check_prices`
before any LP is built. The bid layout, and the maps between curves and
key-ordered prices and quantities, are the day-ahead block's.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dam import DamStructure, DaSchedule, check_prices, dam_structure, solved
from .lp import GE, LE, EQ, LpModel
from .model import BidCurve, Instance
from .policies import PolicyResult, csv_text, evaluate_bids, myopic_bids
from .rtm import append_scenarios

__all__ = [
    "BilevelSolution",
    "TheoremReport",
    "SweepTable",
    "build_relaxed_bid",
    "solve_bid",
    "solve_bid_q",
    "verify_theorem1",
    "collapse_to_single_segment",
    "oracle_grid_search",
    "price_sweep",
    "vre_profit",
]

THEOREM_TOL = 0.005  # relative; mirrors the reported multi- vs single-segment gap
ORACLE_MAX_DIMS = 4  # (unit, hour, segment) dimensions the grid oracle enumerates at most
ORACLE_MAX_POINTS = 10**6  # grid points it scores at most, one evaluate_bids each


def build_relaxed_bid(instance: Instance, prices) -> tuple[LpModel, "RelaxedContext"]:
    """The relaxed bid LP at fixed segment prices, and the map of its columns.

    The McCormick box on each cap-row dual is [-VoLL, 0]: VoLL is the
    largest marginal price the model can produce.
    """
    prices = check_prices(instance, prices)
    lam_bar = instance.system.voll
    block = dam_structure(instance, len(prices))
    key_prices = block.key_prices(prices)
    bid_cost = block.priced(key_prices)
    model = LpModel(name="relaxed-bid")
    n_keys, curves = len(block.keys), block.curves
    w_bar = block.capacity

    # upper level: bid quantities, per segment and per curve within capacity
    w = model.add_vars(block.d_cols, 0.0, 0.0, w_bar)
    model.add_rows([f"w_total[{k},{t}]" for k, t in curves], [LE] * len(curves),
                   block.curve_capacity, [(block.curve_of, w, 1.0)])

    # lower-level primal (objective carries the true, zero-VRE-cost measure)
    primal = block.append_to(model, coupled=w)

    # lower-level duals, one per row and one per finite column bound, which
    # acts as a row: >= 0 on ">=" rows and lower bounds, <= 0 on "<=" rows
    # and upper bounds, free on "=" rows; cap-row duals get the McCormick box
    at_lb, at_ub = (np.flatnonzero(np.isfinite(b)) for b in (block.lb, block.ub))
    bounded = np.concatenate([at_lb, at_ub])
    sense = np.array(block.sense + [GE] * at_lb.size + [LE] * at_ub.size)
    dual_rhs = np.concatenate([block.rhs, block.lb[at_lb], block.ub[at_ub]])
    lb = np.where(sense == GE, 0.0, -math.inf)
    lb[block.cap_rows] = -lam_bar
    names = ([f"y[{r}]" for r in block.rows] + [f"zl[{block.cols[j]}]" for j in at_lb]
             + [f"zu[{block.cols[j]}]" for j in at_ub])
    duals = model.add_vars(names, 0.0, lb, np.where(sense == LE, 0.0, math.inf))

    # dual feasibility: A^T y + z = c, one row per lower-level primal variable
    row, col, a = block.terms
    model.add_rows([f"dual[{v}]" for v in block.cols], [EQ] * len(block.cols), bid_cost,
                   [(col, duals[row], a), (bounded, duals[len(block.rows):], 1.0)])

    # auxiliaries v for the dual-objective products y * w, with their
    # envelopes v + lam_bar w >= 0, v - w_bar y >= 0,
    # v + lam_bar w - w_bar y <= lam_bar w_bar and v <= 0, key by key
    tags = [f"{k},{t},{s}" for k, t, s in block.keys]
    aux = model.add_vars([f"v[{tag}]" for tag in tags], 0.0)
    y, mc = duals[block.cap_rows], 4 * np.arange(n_keys)
    model.add_rows([f"mc{i}[{tag}]" for tag in tags for i in range(1, 5)],
                   [GE, GE, LE, LE] * n_keys, np.outer(w_bar, [0.0, 0.0, lam_bar, 0.0]).ravel(),
                   [(mc, aux, 1.0), (mc, w, lam_bar),
                    (mc + 1, aux, 1.0), (mc + 1, y, -w_bar),
                    (mc + 2, aux, 1.0), (mc + 2, w, lam_bar), (mc + 2, y, -w_bar),
                    (mc + 3, aux, 1.0)])

    # strong duality: lower primal objective equals the dual objective,
    # with each product replaced by its auxiliary
    model.add_rows(["strong_duality"], [EQ], [0.0],
                   [(0, primal, bid_cost), (0, duals, -dual_rhs), (0, aux, -1.0)])

    # re-dispatch blocks, coupled to the shared day-ahead schedule
    append_scenarios(instance, model, primal[0])

    ctx = RelaxedContext(
        prices=prices,
        key_prices=key_prices,
        structure=block,
        bid_cost=bid_cost,
        dual_rhs=dual_rhs,
        quantities=w,
        primal=primal,
        duals=duals,
    )
    return model, ctx


@dataclass
class RelaxedContext:
    prices: tuple[float, ...]  # the segment prices, checked
    key_prices: np.ndarray  # the price of each structure key
    structure: DamStructure
    bid_cost: np.ndarray  # lower-level cost of each structure column
    dual_rhs: np.ndarray  # each dual's coefficient in the dual objective, W at zero
    # columns of the relaxed LP: W in structure.keys order, the lower-level
    # primal in structure.cols order, and the duals: one per structure row,
    # then one per finite column bound
    quantities: np.ndarray
    primal: np.ndarray
    duals: np.ndarray


@dataclass
class BilevelSolution:
    quantities: dict[tuple[str, int, int], float]
    prices: tuple[float, ...]
    relaxed_objective: float
    s_bid: float  # sequential re-evaluation of the extracted quantities
    policy_result: PolicyResult
    complementarity_residual: float
    mccormick_gap: float
    bids: tuple[BidCurve, ...] = ()


def solve_bid(instance: Instance, prices) -> BilevelSolution:
    """Optimize bid quantities for fixed prices and score them sequentially."""
    model, ctx = build_relaxed_bid(instance, prices)
    # The relaxed optimum is often flat in the bid quantities: envelope slack
    # lets the lower level claim dispatch of out-of-merit segments. Among the
    # optimal points (the LP's optimal face, exactly), prefer quantities in
    # cheap segments and the least total quantity; that vertex needs the
    # least envelope slack.
    structure = ctx.structure
    tie_break = np.zeros(model.n_vars)
    tie_break[ctx.quantities] = (ctx.key_prices + 1e-3
                                 + 1e-6 * np.array([s for *_, s in structure.keys]))
    sol = solved(model, "relaxed bid LP", then=tie_break)

    relaxed_objective = sol.objective
    z = sol.primal
    w, y = z[ctx.quantities], z[ctx.duals]
    bids = structure.bid_curves(ctx.key_prices, w)
    result = evaluate_bids(instance, bids, policy="BiD")

    # lower-level strong-duality residual with the true bilinear products
    primal_obj = ctx.bid_cost @ z[ctx.primal]
    dual_obj = ctx.dual_rhs @ y + y[structure.cap_rows] @ w
    residual = float(abs(primal_obj - dual_obj))

    return BilevelSolution(
        quantities=dict(zip(structure.keys, w.tolist())),
        prices=ctx.prices,
        relaxed_objective=relaxed_objective,
        s_bid=result.s_total,
        policy_result=result,
        complementarity_residual=residual,
        mccormick_gap=result.s_total - relaxed_objective,
        bids=tuple(bids),
    )


def solve_bid_q(instance: Instance) -> BilevelSolution:
    """Quantity-only variant: one segment at zero price."""
    sol = solve_bid(instance, (0.0,))
    sol.policy_result.policy = "BiD-q"
    return sol


@dataclass
class TheoremReport:
    """Multi-segment vs quantity-only cost comparison.

    Equality, within `THEOREM_TOL`, is asserted only when the price vector
    contains a zero-price segment; otherwise the report is informational.
    """

    s_bid: float
    s_bid_q: float
    relative_gap: float
    has_zero_segment: bool  # whether equality is asserted
    passed: bool | None  # None when equality is not asserted


def verify_theorem1(instance: Instance, prices) -> TheoremReport:
    multi = solve_bid(instance, prices)  # checks the prices before any LP
    single = solve_bid_q(instance)
    scale = max(1.0, abs(single.s_bid))
    gap = abs(multi.s_bid - single.s_bid) / scale
    has_zero = any(abs(p) < 1e-12 for p in multi.prices)
    return TheoremReport(
        s_bid=multi.s_bid,
        s_bid_q=single.s_bid,
        relative_gap=gap,
        has_zero_segment=has_zero,
        passed=(gap <= THEOREM_TOL) if has_zero else None,
    )


def collapse_to_single_segment(da: DaSchedule) -> list[BidCurve]:
    """Fold a multi-segment solution into zero-price single-segment curves.

    The collapsed quantity per (unit, hour) is the total dispatched segment
    quantity from the day-ahead clearing under the multi-segment bids.
    """
    totals: dict[tuple[str, int], float] = {}
    for (k, t, _s), p in da.p_vre.items():
        totals[(k, t)] = totals.get((k, t), 0.0) + max(0.0, p)
    return [
        BidCurve(owner=k, hour=t, segments=((0.0, q),))
        for (k, t), q in sorted(totals.items())
    ]


def oracle_grid_search(
    instance: Instance,
    prices,
    grid_step: float,
) -> tuple[list[BidCurve], float]:
    """Exhaustive quantity search; the independent ground truth for solve_bid.

    Enumerates every grid point of [0, capacity] per (unit, hour, segment)
    dimension, scoring each with the sequential pipeline. Intended for tiny
    instances only; guarded by `ORACLE_MAX_DIMS` and `ORACLE_MAX_POINTS`.
    """
    prices = check_prices(instance, prices)
    block = dam_structure(instance, len(prices))
    if len(block.keys) > ORACLE_MAX_DIMS:
        raise ValueError(
            f"grid search over {len(block.keys)} dimensions exceeds the guard of {ORACLE_MAX_DIMS}"
        )
    if not grid_step > 0:  # NaN too
        raise ValueError("grid step must be > 0")
    # an axis is 0, step, 2 step, ... up to its capacity, and the capacity if
    # off the grid: counted first, in floats, as a subnormal step makes it inf
    caps = block.capacity.tolist()
    whole = [float(np.floor(cap / grid_step + 1e-9)) for cap in caps]
    off_grid = [n * grid_step < cap - 1e-9 for n, cap in zip(whole, caps)]
    count = math.prod(n + 1 + off for n, off in zip(whole, off_grid))
    if count > ORACLE_MAX_POINTS:
        raise ValueError(f"a grid step of {grid_step} MW gives {count:,.0f} grid points, "
                         f"above the limit of {ORACLE_MAX_POINTS:,}")
    axes = [[i * grid_step for i in range(int(n) + 1)] + [cap] * off
            for n, cap, off in zip(whole, caps, off_grid)]

    key_prices = block.key_prices(prices)
    curve_cap = block.curve_capacity
    best_s, best_q = math.inf, None
    for point in itertools.product(*axes):
        if np.any(np.bincount(block.curve_of, point, curve_cap.size) > curve_cap + 1e-9):
            continue  # a curve above its unit's capacity
        s_val = evaluate_bids(instance, block.bid_curves(key_prices, point)).s_total
        if s_val < best_s - 1e-12:
            best_s, best_q = s_val, point
    assert best_q is not None
    return block.bid_curves(key_prices, best_q), best_s


def vre_profit(instance: Instance, result: PolicyResult) -> dict[str, float]:
    """Two-settlement producer profit per VRE unit, plus the aggregate.

    Day-ahead energy settles at the day-ahead LMP; the realized deviation
    (available output minus curtailment minus day-ahead schedule) settles at
    the scenario real-time LMP. Production cost is zero.
    """
    if result.da_duals is None or not result.rt_dispatches:
        raise ValueError("profit needs day-ahead duals and per-scenario dispatches")
    profits: dict[str, float] = {}
    scen_by_id = {s.id: s for s in instance.scenario_set.scenarios}
    for k in instance.vre_units:
        total = 0.0
        for t in instance.hours:
            sched = result.da.vre_total(k.id, t)
            total += result.da_duals[(k.bus, t)] * sched
            for disp in result.rt_dispatches:
                scen = scen_by_id[disp.scenario_id]
                realized = scen.vre_real.get((k.id, t), 0.0) - disp.curtailment[(k.id, t)]
                total += scen.probability * disp.lmp[(k.bus, t)] * (realized - sched)
        profits[k.id] = total
    profits["aggregate"] = sum(v for kk, v in profits.items() if kk != "aggregate")
    return profits


@dataclass
class SweepTable:
    """Single-segment price sweep: BiD-at-price vs MyD-at-price outcomes."""

    rows: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        if not self.rows:
            return ""  # no rows, no header
        return csv_text(list(self.rows[0]), [row.values() for row in self.rows])


def _load_weighted_lmps(instance: Instance, result: PolicyResult) -> tuple[float, float]:
    ss = instance.scenario_set
    da_num = sum(result.da_duals[(n, t)] * ss.da_load.get((n, t), 0.0)
                 for n in instance.network.buses for t in instance.hours)
    da_den = sum(ss.da_load.values()) or 1.0
    rt_num = rt_den = 0.0
    scen_by_id = {s.id: s for s in ss.scenarios}
    for disp in result.rt_dispatches:
        scen = scen_by_id[disp.scenario_id]
        for n in instance.network.buses:
            for t in instance.hours:
                load = scen.rt_load.get((n, t), 0.0)
                rt_num += scen.probability * disp.lmp[(n, t)] * load
                rt_den += scen.probability * load
    return da_num / da_den, rt_num / (rt_den or 1.0)


def price_sweep(instance: Instance, price_points) -> SweepTable:
    """Score MyD-at-price and BiD-at-price over single-segment price points."""
    # every point, before the first LP
    price_points = [check_prices(instance, (price,))[0] for price in price_points]
    table = SweepTable()
    for price in price_points:
        bid_sol = solve_bid(instance, (price,))
        myd_bids = [
            BidCurve(owner=b.owner, hour=b.hour,
                     segments=((price, b.segments[0][1]),))
            for b in myopic_bids(instance)
        ]
        myd = evaluate_bids(instance, myd_bids, policy="MyD")
        bid_res = bid_sol.policy_result
        da_lmp_b, rt_lmp_b = _load_weighted_lmps(instance, bid_res)
        da_lmp_m, rt_lmp_m = _load_weighted_lmps(instance, myd)
        wind = lambda r: sum(r.da.p_vre.values())
        table.rows.append({
            "price_usd_per_mwh": price,
            "s_bid_usd": bid_sol.s_bid,
            "s_myd_usd": myd.s_total,
            "da_wind_bid_mw": wind(bid_res),
            "da_wind_myd_mw": wind(myd),
            "lmp_da_bid_usd_per_mwh": da_lmp_b,
            "lmp_rt_bid_usd_per_mwh": rt_lmp_b,
            "lmp_da_myd_usd_per_mwh": da_lmp_m,
            "lmp_rt_myd_usd_per_mwh": rt_lmp_m,
            "profit_bid_usd": vre_profit(instance, bid_res)["aggregate"],
            "profit_myd_usd": vre_profit(instance, myd)["aggregate"],
        })
    return table
