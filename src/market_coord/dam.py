"""Day-ahead market clearing.

The DAM is a single LP over conventional dispatch, relaxed unit commitment,
VRE bid-segment dispatch, and DC power flow. Bid quantities enter it only
through the rhs of the segment cap rows, and bid prices only through the
cost of the segment dispatch variables. Each instance therefore carries one
sparse block per segment count, built on first use: the matrix over the
market's own variables, the coupling to the quantities `W[k,t,s]`, the true
(zero-VRE-cost) costs, the row senses and the rhs. `build_dam` fixes the
quantities as `rhs - W @ q` and writes the prices into a copy of the costs;
the bilevel module keeps the quantities as decision variables.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .lp import EQ, GE, LE, LpModel, LpStatus, Row, ToleranceConfig, DEFAULT_TOL
from .lp import diagnose_infeasibility, solve
from .lp import split_rows, substitute
from .model import BidCurve, Instance, cached, validate_bid_curve

__all__ = [
    "DamStructure",
    "DaSchedule",
    "DaDuals",
    "DamInfeasibleError",
    "BidSetError",
    "dam_structure",
    "build_dam",
    "clear_dam",
    "wname",
]


class DamInfeasibleError(RuntimeError):
    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class BidSetError(ValueError):
    """Malformed bid set: a curve that breaks its invariants, an unknown owner
    or hour, a missing curve, or inconsistent segment counts."""


# variable-name helpers shared with the RTM and bilevel builders
def wname(k: str, t: int, s: int) -> str:
    return f"W[{k},{t},{s}]"


def _pc(i: str, t: int) -> str:
    return f"pC[{i},{t}]"


def _u(i: str, t: int) -> str:
    return f"uDA[{i},{t}]"


def _c(i: str, t: int) -> str:
    return f"cDA[{i},{t}]"


def _pw(k: str, t: int, s: int) -> str:
    return f"pW[{k},{t},{s}]"


def _th(n: str, t: int) -> str:
    return f"thDA[{n},{t}]"


@dataclass(frozen=True)
class DamStructure:
    """Bid-independent sparse form of the day-ahead LP for one segment count."""

    cols: list[str]  # the market's own variables
    cost: np.ndarray  # true cost of each column: zero on the pW columns
    keys: list[tuple[str, int, int]]  # (k, t, s) of each bid segment
    pw_cols: np.ndarray  # column of pW at each key, where the bid price goes
    w_cols: list[str]  # W[k,t,s] at each key
    rows: list[str]
    sense: list[str]
    rhs: np.ndarray  # with every quantity at zero
    A: sparse.coo_matrix  # rows x cols
    W: sparse.coo_matrix  # rows x w_cols, entries in row order
    coupled: sparse.coo_matrix  # [A | W]
    cap_rows: np.ndarray  # cap row of each key
    bus_keys: list[tuple[str, int]]
    bal_rows: np.ndarray  # balance row of each bus_keys entry


def dam_structure(instance: Instance, seg_count: int) -> DamStructure:
    """The instance's day-ahead block for `seg_count` segments per curve.

    Built on first use and stored on the instance; it holds no bid prices.
    """
    return cached(instance, f"_dam_block[{seg_count}]", lambda: _build_block(instance, seg_count))


def _build_block(instance: Instance, seg_count: int) -> DamStructure:
    net = instance.network
    hours = instance.hours
    ss = instance.scenario_set

    cost: dict[str, float] = {}
    rows: list[Row] = []
    keys = [(k.id, t, s) for k in instance.vre_units for t in hours for s in range(seg_count)]

    for g in instance.units:
        for t in hours:
            cost[_pc(g.id, t)] = g.variable_cost
            cost[_u(g.id, t)] = g.no_load_cost
            cost[_c(g.id, t)] = 1.0
    for key in keys:
        cost[_pw(*key)] = 0.0
    for n in net.buses:
        for t in hours:
            cost[_th(n, t)] = 0.0

    for t in hours:
        for n in net.buses:
            coeffs: dict[str, float] = {}
            for g in instance.units:
                if g.bus == n:
                    coeffs[_pc(g.id, t)] = 1.0
            for k in instance.vre_units:
                if k.bus == n:
                    for s in range(seg_count):
                        coeffs[_pw(k.id, t, s)] = 1.0
            for _, ln, sign in net.incident_lines(n):
                b = 1.0 / ln.reactance
                # flow (from -> to) leaves the sending end
                coeffs[_th(ln.from_bus, t)] = coeffs.get(_th(ln.from_bus, t), 0.0) - sign * b
                coeffs[_th(ln.to_bus, t)] = coeffs.get(_th(ln.to_bus, t), 0.0) + sign * b
            rows.append(Row(f"da_bal[{n},{t}]", coeffs, EQ, ss.da_load.get((n, t), 0.0)))
        rows.append(Row(f"da_ref[{t}]", {_th(net.slack_bus, t): 1.0}, EQ, 0.0))
        for ln in net.lines:
            b = 1.0 / ln.reactance
            flow = {_th(ln.from_bus, t): b, _th(ln.to_bus, t): -b}
            rows.append(Row(f"da_flow_ub[{ln.from_bus},{ln.to_bus},{t}]", dict(flow), LE, ln.capacity))
            rows.append(Row(f"da_flow_lb[{ln.from_bus},{ln.to_bus},{t}]", dict(flow), GE, -ln.capacity))

    cap_rows = []
    for k, t, s in keys:
        rows.append(Row(f"da_pw_lb[{k},{t},{s}]", {_pw(k, t, s): 1.0}, GE, 0.0))
        cap_rows.append(len(rows))
        rows.append(Row(f"da_pw_cap[{k},{t},{s}]",
                        {_pw(k, t, s): 1.0, wname(k, t, s): -1.0}, LE, 0.0))

    for g in instance.units:
        for idx, t in enumerate(hours):
            prev = hours[idx - 1] if idx > 0 else None
            rows.append(Row(f"da_pc_ub[{g.id},{t}]",
                            {_pc(g.id, t): 1.0, _u(g.id, t): -g.p_max}, LE, 0.0))
            rows.append(Row(f"da_pc_lb[{g.id},{t}]",
                            {_pc(g.id, t): 1.0, _u(g.id, t): -g.p_min}, GE, 0.0))
            rows.append(Row(f"da_u_lb[{g.id},{t}]", {_u(g.id, t): 1.0}, GE, 0.0))
            rows.append(Row(f"da_u_ub[{g.id},{t}]", {_u(g.id, t): 1.0}, LE, 1.0))
            su = {_c(g.id, t): 1.0, _u(g.id, t): -g.startup_cost}
            if prev is None:
                rows.append(Row(f"da_su[{g.id},{t}]", su, GE, -g.startup_cost * g.u_init))
            else:
                su[_u(g.id, prev)] = g.startup_cost
                rows.append(Row(f"da_su[{g.id},{t}]", su, GE, 0.0))
            rows.append(Row(f"da_c_lb[{g.id},{t}]", {_c(g.id, t): 1.0}, GE, 0.0))
            if prev is None:
                rows.append(Row(f"da_ramp_dn[{g.id},{t}]", {_pc(g.id, t): 1.0},
                                GE, g.p_init - g.ramp_down * g.u_init))
                rows.append(Row(f"da_ramp_up[{g.id},{t}]",
                                {_pc(g.id, t): 1.0, _u(g.id, t): -g.ramp_up},
                                LE, g.p_init))
            else:
                rows.append(Row(f"da_ramp_dn[{g.id},{t}]",
                                {_pc(g.id, t): 1.0, _pc(g.id, prev): -1.0,
                                 _u(g.id, prev): g.ramp_down}, GE, 0.0))
                rows.append(Row(f"da_ramp_up[{g.id},{t}]",
                                {_pc(g.id, t): 1.0, _pc(g.id, prev): -1.0,
                                 _u(g.id, t): -g.ramp_up}, LE, 0.0))

    w_cols = [wname(*key) for key in keys]
    A, W = split_rows(rows, list(cost), w_cols)
    col = {v: j for j, v in enumerate(cost)}
    row_of = {row.name: r for r, row in enumerate(rows)}
    bus_keys = [(n, t) for n in net.buses for t in hours]
    return DamStructure(
        cols=list(cost),
        cost=np.array(list(cost.values()), dtype=float),
        keys=keys,
        pw_cols=np.array([col[_pw(*key)] for key in keys], dtype=np.int64),
        w_cols=w_cols,
        rows=[row.name for row in rows],
        sense=[row.sense for row in rows],
        rhs=np.array([row.rhs for row in rows], dtype=float),
        A=A,
        W=W,
        coupled=sparse.hstack([A, W], format="coo"),
        cap_rows=np.array(cap_rows, dtype=np.int64),
        bus_keys=bus_keys,
        bal_rows=np.array([row_of[f"da_bal[{n},{t}]"] for n, t in bus_keys], dtype=np.int64),
    )


@dataclass
class DaSchedule:
    """Optimal day-ahead primal schedule plus both cost measures."""

    p_conventional: dict[tuple[str, int], float]
    commitment: dict[tuple[str, int], float]
    startup_cost: dict[tuple[str, int], float]
    p_vre: dict[tuple[str, int, int], float]  # (k, t, segment) -> MW
    angle: dict[tuple[str, int], float]
    f_da_bid: float
    f_da_true: float
    var_values: dict[str, float] = field(default_factory=dict, repr=False)
    shed: dict[tuple[str, int], float] = field(default_factory=dict)

    def vre_total(self, k: str, t: int) -> float:
        return sum(v for (kk, tt, _), v in self.p_vre.items() if kk == k and tt == t)


@dataclass
class DaDuals:
    balance: dict[tuple[str, int], float]  # the LMP


def _check_bids(instance: Instance, bids) -> tuple[int, np.ndarray, np.ndarray]:
    """Valid curves, exactly one per (VRE, hour), uniform segment count;
    returns (S, prices, quantities), both in (unit, hour, segment) order."""
    hours = set(instance.hours)
    table: dict[tuple[str, int], BidCurve] = {}
    errors = []
    for bid in bids:
        errors += validate_bid_curve(bid, instance)
        if bid.hour not in hours:
            errors.append(f"bid ({bid.owner},{bid.hour}): unknown hour {bid.hour}")
        if (bid.owner, bid.hour) in table:
            errors.append(f"bid ({bid.owner},{bid.hour}): duplicate curve")
        table[(bid.owner, bid.hour)] = bid
    if errors:
        raise BidSetError("malformed bid set: " + "; ".join(errors))
    seg_counts = {len(b.segments) for b in table.values()}
    if len(seg_counts) > 1:
        raise BidSetError(f"inconsistent segment counts: {sorted(seg_counts)}")
    seg_count = seg_counts.pop() if seg_counts else 1
    segments: list[tuple[float, float]] = []
    for k in instance.vre_units:
        for t in instance.hours:
            bid = table.get((k.id, t))
            if bid is None:
                raise BidSetError(f"missing bid curve for ({k.id}, {t})")
            segments += bid.segments
    prices, qtys = np.array(segments, dtype=float).reshape(-1, 2).T
    return seg_count, prices, qtys


def build_dam(
    instance: Instance, bids, da_slack: bool = False
) -> tuple[LpModel, DamStructure]:
    """Instantiate the day-ahead LP for a concrete set of bid curves.

    `da_slack` adds a VoLL-priced shedding variable per bus/hour for
    exploratory runs; the market formulation itself has none.
    """
    seg_count, prices, qtys = _check_bids(instance, bids)
    block = dam_structure(instance, seg_count)
    cost = block.cost.copy()
    cost[block.pw_cols] = prices
    model = LpModel(name="dam")
    model.add_vars(block.cols, cost)
    A, cols = block.A, block.cols
    if da_slack:
        # one shedding column per loaded bus and hour, in its balance row
        load = np.array([instance.scenario_set.da_load.get(key, 0.0) for key in block.bus_keys])
        loaded = np.flatnonzero(load > 0)
        shed = [f"lshDA[{n},{t}]" for n, t in (block.bus_keys[i] for i in loaded)]
        for v, ub in zip(shed, load[loaded].tolist()):
            model.add_var(v, lb=0.0, ub=ub, obj=instance.system.voll)
        in_balance = sparse.coo_matrix(
            (np.ones(len(shed)), (block.bal_rows[loaded], np.arange(len(shed)))),
            shape=(len(block.rows), len(shed)),
        )
        A, cols = sparse.hstack([A, in_balance], format="coo"), cols + shed
    model.add_rows(block.rows, A, block.sense, substitute(block.rhs, block.W, qtys), cols)
    return model, block


def _schedule_from(instance: Instance, structure: DamStructure,
                   primal: dict[str, float], objective: float) -> DaSchedule:
    hours = instance.hours
    x = np.fromiter(primal.values(), dtype=float, count=len(structure.cols))
    f_true = sum((structure.cost * x).tolist())
    shed = {}
    for v, val in primal.items():
        if v.startswith("lshDA["):
            n, t = v[6:-1].rsplit(",", 1)
            shed[(n, int(t))] = val
            f_true += instance.system.voll * val
    return DaSchedule(
        p_conventional={(g.id, t): primal[_pc(g.id, t)] for g in instance.units for t in hours},
        commitment={(g.id, t): primal[_u(g.id, t)] for g in instance.units for t in hours},
        startup_cost={(g.id, t): primal[_c(g.id, t)] for g in instance.units for t in hours},
        p_vre={key: primal[_pw(*key)] for key in structure.keys},
        angle={(n, t): primal[_th(n, t)] for n in instance.network.buses for t in hours},
        f_da_bid=objective,
        f_da_true=f_true,
        var_values=dict(primal),
        shed=shed,
    )


def clear_dam(
    instance: Instance,
    bids,
    tol: ToleranceConfig = DEFAULT_TOL,
    da_slack: bool = False,
) -> tuple[DaSchedule, DaDuals]:
    """Solve the day-ahead market and return the schedule with its duals."""
    model, structure = build_dam(instance, bids, da_slack=da_slack)
    sol = solve(model, tol)
    if sol.status is LpStatus.INFEASIBLE:
        diags = diagnose_infeasibility(model)
        raise DamInfeasibleError(
            "day-ahead market is infeasible; most violated rows: " + "; ".join(diags),
            diagnostics=diags,
        )
    if sol.status is not LpStatus.OPTIMAL:
        raise DamInfeasibleError(f"day-ahead market solve ended {sol.status.value}")
    schedule = _schedule_from(instance, structure, sol.primal, sol.objective)
    y = np.fromiter(sol.duals.values(), dtype=float, count=model.n_cons)
    return schedule, DaDuals(balance=dict(zip(structure.bus_keys, y[structure.bal_rows].tolist())))
