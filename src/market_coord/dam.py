"""Day-ahead market clearing.

The DAM is a single LP over conventional dispatch, relaxed unit commitment,
VRE bid-segment dispatch, and DC power flow. Bid quantities enter it only
through the rhs of the segment cap rows, and bid prices only through the
cost of the segment dispatch variables. Each instance therefore carries one
`lp.Block` per segment count, built on first use: the matrix over the
market's own variables, the coupling `D` to the quantities `W[k,t,s]`, the
true (zero-VRE-cost) costs, the row senses and the rhs. `build_dam` appends
it with the quantities fixed (`rhs - D @ q`) and the prices written into a
copy of the costs; the bilevel module appends it with the quantities kept as
decision variables. Each column carries its bounds, declared with its cost,
so no row bounds a single variable. Its network rows come from
`network_rows` and its unit rows from `unit_rows`, which the real-time
market shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

from .lp import EQ, GE, LE, Block, LpModel, LpStatus, Row
from .lp import diagnose_infeasibility, solve
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
    "network_rows",
    "unit_rows",
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


def _pw(k: str, t: int, s: int) -> str:
    return f"pW[{k},{t},{s}]"


def hourly(var: str) -> Callable[[str, int], str]:
    """The name of variable `var` at a (unit or bus, hour) key."""
    return lambda i, t: f"{var}[{i},{t}]"


_pc, _u, _c, _th = map(hourly, ("pC", "uDA", "cDA", "thDA"))
FREE, NONNEG = (-math.inf, math.inf), (0.0, math.inf)


def angle_bounds(instance: Instance, bus: str) -> tuple[float, float]:
    """Free, but the slack bus's angle, the reference, is fixed at 0."""
    return (0.0, 0.0) if bus == instance.network.slack_bus else FREE


def network_rows(instance: Instance, market: str, angle: Callable[[str, int], str],
                 injection: Callable) -> tuple[list[Row], dict[tuple[str, int], int]]:
    """The DC network rows of one market, hour by hour.

    Each hour has one balance row per bus (the coefficients and rhs that
    `injection(bus, hour)` returns, less the net outflow through the B-theta
    terms on the `angle` variables) and both limits of every line. Returns
    the rows and the balance row of each (bus, hour), bus by bus.
    """
    net = instance.network
    rows: list[Row] = []
    at: dict[tuple[str, int], int] = {}
    for t in instance.hours:
        for n in net.buses:
            coeffs, rhs = injection(n, t)
            for _, ln, sign in net.incident_lines(n):
                b = 1.0 / ln.reactance
                fr, to = angle(ln.from_bus, t), angle(ln.to_bus, t)
                # flow (from -> to) leaves the sending end
                coeffs[fr] = coeffs.get(fr, 0.0) - sign * b
                coeffs[to] = coeffs.get(to, 0.0) + sign * b
            at[(n, t)] = len(rows)
            rows.append(Row(f"{market}_bal[{n},{t}]", coeffs, EQ, rhs))
        for ln in net.lines:
            b = 1.0 / ln.reactance
            flow = {angle(ln.from_bus, t): b, angle(ln.to_bus, t): -b}
            line = f"{ln.from_bus},{ln.to_bus},{t}"
            rows.append(Row(f"{market}_flow_ub[{line}]", dict(flow), LE, ln.capacity))
            rows.append(Row(f"{market}_flow_lb[{line}]", dict(flow), GE, -ln.capacity))
    return rows, {(n, t): at[(n, t)] for n in net.buses for t in instance.hours}


def unit_rows(instance: Instance, market: str, output: Callable, commit: Callable,
              startup: Callable) -> list[Row]:
    """Each conventional unit's p_max/p_min, start-up and ramp rows in one
    market, hour by hour, the first hour's from `p_init` and `u_init`.

    `output(unit, hour)` and `startup(unit, hour)` return the coefficients
    of the unit's output and start-up cost, and `commit` names its
    commitment column.
    """
    rows: list[Row] = []
    for g in instance.units:
        prev = None
        for t in instance.hours:
            out, u, at = output(g.id, t), commit(g.id, t), f"[{g.id},{t}]"
            su = {**startup(g.id, t), u: -g.startup_cost}
            rows.append(Row(f"{market}_p_ub{at}", {**out, u: -g.p_max}, LE, 0.0))
            rows.append(Row(f"{market}_p_lb{at}", {**out, u: -g.p_min}, GE, 0.0))
            if prev is None:
                rows.append(Row(f"{market}_su{at}", su, GE, -g.startup_cost * g.u_init))
                rows.append(Row(f"{market}_ramp_up{at}", {**out, u: -g.ramp_up}, LE, g.p_init))
                rows.append(Row(f"{market}_ramp_dn{at}", out, GE,
                                g.p_init - g.ramp_down * g.u_init))
            else:
                u_prev = commit(g.id, prev)
                delta = {**out, **{v: -c for v, c in output(g.id, prev).items()}}
                rows.append(Row(f"{market}_su{at}", {**su, u_prev: g.startup_cost}, GE, 0.0))
                rows.append(Row(f"{market}_ramp_up{at}", {**delta, u: -g.ramp_up}, LE, 0.0))
                rows.append(Row(f"{market}_ramp_dn{at}", {**delta, u_prev: g.ramp_down}, GE, 0.0))
            prev = t
    return rows


@dataclass(frozen=True)
class DamStructure(Block):
    """Bid-independent block of the day-ahead LP for one segment count.

    Its coupled columns are the bid quantities `W[k,t,s]`, one per key.
    """

    keys: list[tuple[str, int, int]]  # (k, t, s) of each bid segment
    cap_rows: np.ndarray  # cap row of each key

    @property
    def pw_cols(self) -> np.ndarray:
        """Column of pW at each key, where the bid price goes."""
        return self.outputs["p_vre"][1]


def dam_structure(instance: Instance, seg_count: int) -> DamStructure:
    """The instance's day-ahead block for `seg_count` segments per curve.

    Built on first use and stored on the instance; it holds no bid prices.
    """
    return cached(instance, f"_dam_block[{seg_count}]", lambda: _build_block(instance, seg_count))


def _build_block(instance: Instance, seg_count: int) -> DamStructure:
    hours = instance.hours
    ss = instance.scenario_set

    columns: dict[str, tuple[float, float, float]] = {}
    keys = [(k.id, t, s) for k in instance.vre_units for t in hours for s in range(seg_count)]

    for g in instance.units:
        for t in hours:
            columns[_pc(g.id, t)] = (g.variable_cost, *FREE)
            columns[_u(g.id, t)] = (g.no_load_cost, 0.0, 1.0)
            columns[_c(g.id, t)] = (1.0, *NONNEG)
    for key in keys:
        columns[_pw(*key)] = (0.0, *NONNEG)
    for n in instance.network.buses:
        for t in hours:
            columns[_th(n, t)] = (0.0, *angle_bounds(instance, n))

    def injection(n, t):
        coeffs = {_pc(g.id, t): 1.0 for g in instance.units if g.bus == n}
        coeffs.update((_pw(k.id, t, s), 1.0) for k in instance.vre_units if k.bus == n
                      for s in range(seg_count))
        return coeffs, ss.da_load.get((n, t), 0.0)

    rows, balance = network_rows(instance, "da", _th, injection)
    cap_rows = np.arange(len(rows), len(rows) + len(keys))
    rows += [Row(f"da_pw_cap[{k},{t},{s}]", {_pw(k, t, s): 1.0, wname(k, t, s): -1.0}, LE, 0.0)
             for k, t, s in keys]
    rows += unit_rows(instance, "da", lambda g, t: {_pc(g, t): 1.0}, _u,
                      lambda g, t: {_c(g, t): 1.0})

    unit_keys = [(g.id, t) for g in instance.units for t in hours]
    return DamStructure.from_rows(
        rows, columns, {wname(*key): 0.0 for key in keys}, balance,
        {
            "p_conventional": (unit_keys, _pc),
            "commitment": (unit_keys, _u),
            "startup_cost": (unit_keys, _c),
            "p_vre": (keys, _pw),
            "angle": (list(balance), _th),
        },
        keys=keys,
        cap_rows=cap_rows,
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


def _loaded(instance: Instance, block: DamStructure) -> tuple[np.ndarray, np.ndarray]:
    """The bus_keys entries with day-ahead load, and that load."""
    load = np.array([instance.scenario_set.da_load.get(key, 0.0) for key in block.bus_keys])
    loaded = np.flatnonzero(load > 0)
    return loaded, load[loaded]


def build_dam(
    instance: Instance, bids, da_slack: bool = False
) -> tuple[LpModel, DamStructure]:
    """Instantiate the day-ahead LP for a concrete set of bid curves.

    `da_slack` adds a VoLL-priced shedding variable per loaded bus/hour, in
    its balance row, for exploratory runs; the market formulation itself has
    none.
    """
    seg_count, prices, qtys = _check_bids(instance, bids)
    block = dam_structure(instance, seg_count)
    cost = block.cost.copy()
    cost[block.pw_cols] = prices
    model = LpModel(name="dam")
    block.append_to(model, qtys, cost=cost)
    if da_slack:
        loaded, load = _loaded(instance, block)
        shed = [f"lshDA[{n},{t}]" for n, t in (block.bus_keys[i] for i in loaded)]
        model.add_vars(shed, np.full(len(shed), instance.system.voll), 0.0, load)
        model.add_coeffs(sparse.coo_matrix(
            (np.ones(len(shed)), (block.bal_rows[loaded], np.arange(len(shed)))),
            shape=(model.n_cons, len(shed)),
        ), shed)
    return model, block


def clear_dam(
    instance: Instance,
    bids,
    da_slack: bool = False,
) -> tuple[DaSchedule, DaDuals]:
    """Solve the day-ahead market and return the schedule with its duals."""
    model, block = build_dam(instance, bids, da_slack=da_slack)
    sol = solve(model)
    if sol.status is LpStatus.INFEASIBLE:
        diags = diagnose_infeasibility(model)
        raise DamInfeasibleError(
            "day-ahead market is infeasible; most violated rows: " + "; ".join(diags),
            diagnostics=diags,
        )
    if sol.status is not LpStatus.OPTIMAL:
        raise DamInfeasibleError(f"day-ahead market solve ended {sol.status.value}")
    x = sol.primal
    n = len(block.cols)
    f_true = sum((block.cost * x[:n]).tolist())
    shed = {}
    if da_slack:  # the shedding columns follow the block's
        shed = dict(zip([block.bus_keys[i] for i in _loaded(instance, block)[0]], x[n:].tolist()))
        for val in shed.values():
            f_true += instance.system.voll * val
    schedule = DaSchedule(**block.read(x), f_da_bid=sol.objective, f_da_true=f_true, shed=shed)
    return schedule, DaDuals(balance=block.balance_duals(sol.duals))
