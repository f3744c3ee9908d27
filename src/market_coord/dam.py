"""Day-ahead market clearing.

The DAM is a single LP over conventional dispatch, relaxed unit commitment,
VRE bid-segment dispatch, and DC power flow. The builder produces a symbolic
structure in which VRE bid quantities appear as named coupling coefficients;
`build_dam` substitutes concrete bid curves, while the bilevel module keeps
the quantities as decision variables of the single-level reformulation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .lp import EQ, GE, LE, LpModel, LpStatus, Row, ToleranceConfig, DEFAULT_TOL
from .lp import diagnose_infeasibility, solve
from .model import BidCurve, Instance, validate_bid_curve

__all__ = [
    "DamStructure",
    "DaSchedule",
    "DaDuals",
    "DamInfeasibleError",
    "BidSetError",
    "dam_structure",
    "bids_by_key",
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


@dataclass
class DamStructure:
    """Symbolic day-ahead LP: rows may reference bid-quantity names W[k,t,s]."""

    var_obj: dict[str, float]  # objective with bid costs
    true_obj: dict[str, float]  # objective with zero VRE cost
    rows: list[Row]
    cap_rows: dict[str, tuple[str, int, int]]  # row name -> (k, t, s)
    seg_count: int


def dam_structure(
    instance: Instance, seg_count: int, prices: dict[tuple[str, int, int], float]
) -> DamStructure:
    net = instance.network
    hours = instance.hours
    ss = instance.scenario_set

    var_obj: dict[str, float] = {}
    true_obj: dict[str, float] = {}
    rows: list[Row] = []
    cap_rows: dict[str, tuple[str, int, int]] = {}

    for g in instance.units:
        for t in hours:
            var_obj[_pc(g.id, t)] = g.variable_cost
            var_obj[_u(g.id, t)] = g.no_load_cost
            var_obj[_c(g.id, t)] = 1.0
    for k in instance.vre_units:
        for t in hours:
            for s in range(seg_count):
                var_obj[_pw(k.id, t, s)] = prices[(k.id, t, s)]
    for n in net.buses:
        for t in hours:
            var_obj[_th(n, t)] = 0.0
    true_obj = {v: c for v, c in var_obj.items()}
    for k in instance.vre_units:
        for t in hours:
            for s in range(seg_count):
                true_obj[_pw(k.id, t, s)] = 0.0

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

    for k in instance.vre_units:
        for t in hours:
            for s in range(seg_count):
                rows.append(Row(f"da_pw_lb[{k.id},{t},{s}]", {_pw(k.id, t, s): 1.0}, GE, 0.0))
                name = f"da_pw_cap[{k.id},{t},{s}]"
                rows.append(Row(name, {_pw(k.id, t, s): 1.0, wname(k.id, t, s): -1.0}, LE, 0.0))
                cap_rows[name] = (k.id, t, s)

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

    return DamStructure(var_obj, true_obj, rows, cap_rows, seg_count)


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


def bids_by_key(bids) -> dict[tuple[str, int], BidCurve]:
    return {(b.owner, b.hour): b for b in bids}


def _check_bids(instance: Instance, bids) -> tuple[int, dict, dict]:
    """Valid curves, one per (VRE, hour), uniform segment count; returns
    (S, prices, qtys)."""
    table = bids_by_key(bids)
    hours = set(instance.hours)
    errors = []
    for bid in table.values():
        errors += validate_bid_curve(bid, instance)
        if bid.hour not in hours:
            errors.append(f"bid ({bid.owner},{bid.hour}): unknown hour {bid.hour}")
    if errors:
        raise BidSetError("malformed bid set: " + "; ".join(errors))
    seg_counts = {len(b.segments) for b in table.values()}
    if len(seg_counts) > 1:
        raise BidSetError(f"inconsistent segment counts: {sorted(seg_counts)}")
    seg_count = seg_counts.pop() if seg_counts else 1
    prices: dict[tuple[str, int, int], float] = {}
    qtys: dict[tuple[str, int, int], float] = {}
    for k in instance.vre_units:
        for t in instance.hours:
            bid = table.get((k.id, t))
            if bid is None:
                raise BidSetError(f"missing bid curve for ({k.id}, {t})")
            for s, (price, qty) in enumerate(bid.segments):
                prices[(k.id, t, s)] = price
                qtys[(k.id, t, s)] = qty
    return seg_count, prices, qtys


def build_dam(
    instance: Instance, bids, da_slack: bool = False
) -> tuple[LpModel, DamStructure]:
    """Instantiate the day-ahead LP for a concrete set of bid curves.

    `da_slack` adds a VoLL-priced shedding variable per bus/hour for
    exploratory runs; the market formulation itself has none.
    """
    seg_count, prices, qtys = _check_bids(instance, bids)
    structure = dam_structure(instance, seg_count, prices)
    model = LpModel(name="dam")
    for v, obj in structure.var_obj.items():
        model.add_var(v, obj=obj)
    shed_vars: dict[str, dict[str, float]] = {}
    if da_slack:
        for n in instance.network.buses:
            for t in instance.hours:
                load = instance.scenario_set.da_load.get((n, t), 0.0)
                if load > 0:
                    v = model.add_var(f"lshDA[{n},{t}]", lb=0.0, ub=load,
                                      obj=instance.system.voll)
                    shed_vars[f"da_bal[{n},{t}]"] = {v: 1.0}
    for row in structure.rows:
        coeffs = {}
        rhs = row.rhs
        for var, c in row.coeffs.items():
            if var.startswith("W["):
                key = structure.cap_rows.get(row.name)
                rhs -= c * qtys[key]
            else:
                coeffs[var] = c
        coeffs.update(shed_vars.get(row.name, {}))
        model.add_constr(row.name, coeffs, row.sense, rhs)
    return model, structure


def _schedule_from(instance: Instance, structure: DamStructure,
                   primal: dict[str, float], objective: float) -> DaSchedule:
    hours = instance.hours
    f_true = sum(c * primal[v] for v, c in structure.true_obj.items())
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
        p_vre={(k.id, t, s): primal[_pw(k.id, t, s)]
               for k in instance.vre_units for t in hours
               for s in range(structure.seg_count)},
        angle={(n, t): primal[_th(n, t)] for n in instance.network.buses for t in hours},
        f_da_bid=objective,
        f_da_true=f_true,
        var_values=dict(primal),
        shed=shed,
    )


def _duals_from(instance: Instance, duals: dict[str, float]) -> DaDuals:
    return DaDuals(
        balance={(n, t): duals[f"da_bal[{n},{t}]"]
                 for n in instance.network.buses for t in instance.hours},
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
    return schedule, _duals_from(instance, sol.duals)
