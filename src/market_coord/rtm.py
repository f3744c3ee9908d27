"""Real-time re-dispatch, one LP per scenario.

A scenario enters its real-time LP only through the right-hand side (its
real-time load and realized VRE output), and so does the day-ahead schedule.
Each instance therefore carries one sparse template, built on first use: the
matrix over the real-time variables, the coupling matrix `D` over the
day-ahead `pC`/`uDA`/`cDA` variables, the costs and the row senses.
`rtm_structure` pairs it with one scenario's rhs. `clear_rtm` substitutes a
fixed schedule as `rhs - D @ x_DA`; the stochastic and bilevel modules append
the block with `D` kept, so the day-ahead variables are shared decisions.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .dam import DaSchedule
from .lp import EQ, GE, LE, LpModel, LpStatus, Row, ToleranceConfig, DEFAULT_TOL, solve
from .lp import split_rows, substitute
from .model import Instance, Scenario, cached

__all__ = [
    "RtDispatch",
    "RtmError",
    "rtm_structure",
    "build_rtm",
    "clear_rtm",
    "expected_rt_cost",
    "thread_count",
]


class RtmError(RuntimeError):
    """RT infeasibility; should not occur given shedding and curtailment backstops."""


def _ru(i, t):
    return f"rU[{i},{t}]"


def _rd(i, t):
    return f"rD[{i},{t}]"


def _urt(i, t):
    return f"uRT[{i},{t}]"


def _crt(i, t):
    return f"cRT[{i},{t}]"


def _cr(k, t):
    return f"pCr[{k},{t}]"


def _sh(n, t):
    return f"lsh[{n},{t}]"


def _th(n, t):
    return f"thRT[{n},{t}]"


def _pc(i, t):
    return f"pC[{i},{t}]"


def _uda(i, t):
    return f"uDA[{i},{t}]"


def _cda(i, t):
    return f"cDA[{i},{t}]"


@dataclass(frozen=True)
class _Template:
    """Scenario-independent sparse form of an instance's real-time LP."""

    cols: list[str]  # real-time variables
    cost: np.ndarray  # re-dispatch cost of each real-time variable
    rows: list[str]
    sense: list[str]
    A: sparse.coo_matrix  # rows x real-time variables
    da_cols: list[str]  # day-ahead variables the rows couple to
    D: sparse.coo_matrix  # rows x day-ahead variables, entries in row order
    coupled: sparse.coo_matrix  # [A | D]
    da_obj: np.ndarray  # coefficient of each day-ahead variable in f_RT
    rhs: np.ndarray  # the scenario-independent part of the rhs
    load_rows: np.ndarray  # rows whose rhs is the real-time load at load_keys
    load_keys: list[tuple[str, int]]
    vre_rows: np.ndarray  # rows whose rhs gains vre_sign * output at vre_keys
    vre_keys: list[tuple[str, int]]
    vre_sign: np.ndarray
    # RtDispatch field -> (keys, column of each key)
    outputs: dict[str, tuple[list, np.ndarray]]
    bus_keys: list[tuple[str, int]]
    bal_rows: np.ndarray  # balance row of each bus_keys entry

    def scenario_rhs(self, scenario: Scenario) -> np.ndarray:
        rhs = self.rhs.copy()
        rhs[self.load_rows] += [scenario.rt_load.get(key, 0.0) for key in self.load_keys]
        vre = [scenario.vre_real.get(key, 0.0) for key in self.vre_keys]
        # np.add.at: a balance row recurs once per VRE unit at its bus
        np.add.at(rhs, self.vre_rows, self.vre_sign * vre)
        return rhs


def _build_template(instance: Instance) -> _Template:
    net = instance.network
    hours = instance.hours
    voll = instance.system.voll

    cost: dict[str, float] = {}
    da_obj: dict[str, float] = {}
    rows: list[Row] = []
    load_at: list[tuple[int, tuple[str, int]]] = []
    vre_at: list[tuple[int, tuple[str, int], float]] = []

    for g in instance.units:
        for t in hours:
            cost[_ru(g.id, t)] = g.up_redispatch_cost
            cost[_rd(g.id, t)] = -g.down_redispatch_cost
            cost[_urt(g.id, t)] = g.no_load_cost
            cost[_crt(g.id, t)] = 1.0
            da_obj[_pc(g.id, t)] = 0.0
            da_obj[_uda(g.id, t)] = -g.no_load_cost
            da_obj[_cda(g.id, t)] = 0.0
    for k in instance.vre_units:
        for t in hours:
            cost[_cr(k.id, t)] = 0.0
    for n in net.buses:
        for t in hours:
            cost[_sh(n, t)] = voll
            cost[_th(n, t)] = 0.0

    for t in hours:
        for n in net.buses:
            coeffs: dict[str, float] = {}
            load_at.append((len(rows), (n, t)))
            for g in instance.units:
                if g.bus == n:
                    coeffs[_ru(g.id, t)] = 1.0
                    coeffs[_rd(g.id, t)] = -1.0
                    coeffs[_pc(g.id, t)] = 1.0  # DA coupling
            for k in instance.vre_units:
                if k.bus == n:
                    coeffs[_cr(k.id, t)] = -1.0
                    vre_at.append((len(rows), (k.id, t), -1.0))
            coeffs[_sh(n, t)] = 1.0
            for _, ln, sign in net.incident_lines(n):
                b = 1.0 / ln.reactance
                fr, to = _th(ln.from_bus, t), _th(ln.to_bus, t)
                coeffs[fr] = coeffs.get(fr, 0.0) - sign * b
                coeffs[to] = coeffs.get(to, 0.0) + sign * b
            rows.append(Row(f"rt_bal[{n},{t}]", coeffs, EQ, 0.0))
        rows.append(Row(f"rt_ref[{t}]", {_th(net.slack_bus, t): 1.0}, EQ, 0.0))
        for ln in net.lines:
            b = 1.0 / ln.reactance
            flow = {_th(ln.from_bus, t): b, _th(ln.to_bus, t): -b}
            rows.append(Row(f"rt_flow_ub[{ln.from_bus},{ln.to_bus},{t}]", dict(flow), LE, ln.capacity))
            rows.append(Row(f"rt_flow_lb[{ln.from_bus},{ln.to_bus},{t}]", dict(flow), GE, -ln.capacity))

    for g in instance.units:
        for idx, t in enumerate(hours):
            prev = hours[idx - 1] if idx > 0 else None
            u = _urt(g.id, t)
            if g.start_class == "slow":
                rows.append(Row(f"rt_u_fix[{g.id},{t}]", {u: 1.0, _uda(g.id, t): -1.0}, EQ, 0.0))
            else:
                rows.append(Row(f"rt_u_min[{g.id},{t}]", {u: 1.0, _uda(g.id, t): -1.0}, GE, 0.0))
            rows.append(Row(f"rt_u_ub[{g.id},{t}]", {u: 1.0}, LE, 1.0))

            net_out = {_ru(g.id, t): 1.0, _rd(g.id, t): -1.0, _pc(g.id, t): 1.0}
            rows.append(Row(f"rt_p_ub[{g.id},{t}]", {**net_out, u: -g.p_max}, LE, 0.0))
            rows.append(Row(f"rt_p_lb[{g.id},{t}]", {**net_out, u: -g.p_min}, GE, 0.0))

            su = {_crt(g.id, t): 1.0, _cda(g.id, t): 1.0, u: -g.startup_cost}
            if prev is None:
                rows.append(Row(f"rt_su[{g.id},{t}]", su, GE, -g.startup_cost * g.u_init))
            else:
                su[_urt(g.id, prev)] = g.startup_cost
                rows.append(Row(f"rt_su[{g.id},{t}]", su, GE, 0.0))

            if prev is None:
                rows.append(Row(f"rt_ramp_up[{g.id},{t}]",
                                {**net_out, u: -g.ramp_up}, LE, g.p_init))
                rows.append(Row(f"rt_ramp_dn[{g.id},{t}]", dict(net_out),
                                GE, g.p_init - g.ramp_down * g.u_init))
            else:
                delta = {
                    _ru(g.id, t): 1.0, _rd(g.id, t): -1.0, _pc(g.id, t): 1.0,
                    _ru(g.id, prev): -1.0, _rd(g.id, prev): 1.0, _pc(g.id, prev): -1.0,
                }
                rows.append(Row(f"rt_ramp_up[{g.id},{t}]", {**delta, u: -g.ramp_up}, LE, 0.0))
                rows.append(Row(f"rt_ramp_dn[{g.id},{t}]",
                                {**delta, _urt(g.id, prev): g.ramp_down}, GE, 0.0))

            rows.append(Row(f"rt_c_lb[{g.id},{t}]", {_crt(g.id, t): 1.0}, GE, 0.0))
            rows.append(Row(f"rt_ru_lb[{g.id},{t}]", {_ru(g.id, t): 1.0}, GE, 0.0))
            rows.append(Row(f"rt_rd_lb[{g.id},{t}]", {_rd(g.id, t): 1.0}, GE, 0.0))

    for k in instance.vre_units:
        for t in hours:
            rows.append(Row(f"rt_cr_lb[{k.id},{t}]", {_cr(k.id, t): 1.0}, GE, 0.0))
            vre_at.append((len(rows), (k.id, t), 1.0))
            rows.append(Row(f"rt_cr_ub[{k.id},{t}]", {_cr(k.id, t): 1.0}, LE, 0.0))
    for n in net.buses:
        for t in hours:
            rows.append(Row(f"rt_sh_lb[{n},{t}]", {_sh(n, t): 1.0}, GE, 0.0))
            load_at.append((len(rows), (n, t)))
            rows.append(Row(f"rt_sh_ub[{n},{t}]", {_sh(n, t): 1.0}, LE, 0.0))

    A, D = split_rows(rows, list(cost), list(da_obj))
    col = {v: j for j, v in enumerate(cost)}

    def columns(name, keys):
        return np.array([col[name(*key)] for key in keys], dtype=np.int64)

    unit_keys = [(g.id, t) for g in instance.units for t in hours]
    vre_keys = [(k.id, t) for k in instance.vre_units for t in hours]
    bus_keys = [(n, t) for n in net.buses for t in hours]
    row_of = {row.name: r for r, row in enumerate(rows)}
    return _Template(
        cols=list(cost),
        cost=np.array(list(cost.values())),
        rows=[row.name for row in rows],
        sense=[row.sense for row in rows],
        A=A,
        da_cols=list(da_obj),
        D=D,
        coupled=sparse.hstack([A, D], format="coo"),
        da_obj=np.array(list(da_obj.values())),
        rhs=np.array([row.rhs for row in rows]),
        load_rows=np.array([r for r, _ in load_at], dtype=np.int64),
        load_keys=[key for _, key in load_at],
        vre_rows=np.array([r for r, _, _ in vre_at], dtype=np.int64),
        vre_keys=[key for _, key, _ in vre_at],
        vre_sign=np.array([sign for _, _, sign in vre_at]),
        outputs={
            "r_up": (unit_keys, columns(_ru, unit_keys)),
            "r_down": (unit_keys, columns(_rd, unit_keys)),
            "commitment": (unit_keys, columns(_urt, unit_keys)),
            "startup_cost": (unit_keys, columns(_crt, unit_keys)),
            "curtailment": (vre_keys, columns(_cr, vre_keys)),
            "shed": (bus_keys, columns(_sh, bus_keys)),
            "angle": (bus_keys, columns(_th, bus_keys)),
        },
        bus_keys=bus_keys,
        bal_rows=np.array([row_of[f"rt_bal[{n},{t}]"] for n, t in bus_keys], dtype=np.int64),
    )


def _template(instance: Instance) -> _Template:
    """The instance's real-time template, built on first use."""
    return cached(instance, "_rtm_template", lambda: _build_template(instance))


@dataclass(frozen=True)
class RtBlock:
    """One scenario's real-time LP: the instance's template and this rhs."""

    template: _Template
    rhs: np.ndarray
    suffix: str

    def append_to(self, model: LpModel, weight: float) -> None:
        """Append the block, coupled to the day-ahead variables `model` holds.

        Variable and row names carry the block's suffix; costs, including the
        day-ahead terms of f_RT, are scaled by `weight`.
        """
        tpl = self.template
        cols = [v + self.suffix for v in tpl.cols]
        model.add_vars(cols, weight * tpl.cost)
        for v, c in zip(tpl.da_cols, tpl.da_obj.tolist()):
            model.add_obj(v, weight * c)
        model.add_rows([r + self.suffix for r in tpl.rows], tpl.coupled, tpl.sense,
                       self.rhs, cols + tpl.da_cols)


def rtm_structure(instance: Instance, scenario: Scenario, suffix: str = "") -> RtBlock:
    """The real-time block of one scenario; names get `suffix` when appended."""
    tpl = _template(instance)
    return RtBlock(tpl, tpl.scenario_rhs(scenario), suffix)


@dataclass
class RtDispatch:
    """Optimal per-scenario re-dispatch against a fixed day-ahead schedule."""

    scenario_id: str
    r_up: dict[tuple[str, int], float]
    r_down: dict[tuple[str, int], float]
    commitment: dict[tuple[str, int], float]
    startup_cost: dict[tuple[str, int], float]
    curtailment: dict[tuple[str, int], float]
    shed: dict[tuple[str, int], float]
    angle: dict[tuple[str, int], float]
    f_rt: float  # may be negative: down-redispatch credits
    lmp: dict[tuple[str, int], float] = field(default_factory=dict)


def build_rtm(instance: Instance, da: DaSchedule, scenario_id: str) -> tuple[LpModel, RtBlock, float]:
    """RT LP for one scenario with the DA schedule substituted into the rhs.

    Returns (model, block, objective offset); f_RT equals the LP objective
    plus the offset, which carries the constant -C0 * uDA terms.
    """
    block = rtm_structure(instance, _find_scenario(instance, scenario_id))
    tpl = block.template
    x = np.array([da.var_values[v] for v in tpl.da_cols])
    model = LpModel(name=f"rtm[{scenario_id}]")
    model.add_vars(tpl.cols, tpl.cost)
    model.add_rows(tpl.rows, tpl.A, tpl.sense, substitute(block.rhs, tpl.D, x), tpl.cols)
    return model, block, sum((tpl.da_obj * x).tolist())


def _find_scenario(instance: Instance, scenario_id: str) -> Scenario:
    for s in instance.scenario_set.scenarios:
        if s.id == scenario_id:
            return s
    raise KeyError(f"unknown scenario {scenario_id!r}")


def clear_rtm(
    instance: Instance,
    da: DaSchedule,
    scenario_id: str,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RtDispatch:
    """Solve one scenario's re-dispatch; pure function of its inputs."""
    model, block, offset = build_rtm(instance, da, scenario_id)
    sol = solve(model, tol)
    if sol.status is not LpStatus.OPTIMAL:
        raise RtmError(
            f"real-time dispatch for scenario {scenario_id!r} ended "
            f"{sol.status.value}; shedding/curtailment backstops should prevent this"
        )
    tpl = block.template
    x = np.fromiter(sol.primal.values(), dtype=float, count=model.n_vars)
    y = np.fromiter(sol.duals.values(), dtype=float, count=model.n_cons)
    return RtDispatch(
        scenario_id=scenario_id,
        **{name: dict(zip(keys, x[cols].tolist())) for name, (keys, cols) in tpl.outputs.items()},
        f_rt=sol.objective + offset,
        lmp=dict(zip(tpl.bus_keys, y[tpl.bal_rows].tolist())),
    )


def thread_count(requested: int | None = None) -> int:
    """Scenario fan-out width; MARKET_COORD_THREADS overrides the default of 1."""
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("MARKET_COORD_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"MARKET_COORD_THREADS must be an integer, got {env!r}") from None


def expected_rt_cost(
    instance: Instance,
    da: DaSchedule,
    tol: ToleranceConfig = DEFAULT_TOL,
    threads: int | None = None,
) -> tuple[float, list[RtDispatch]]:
    """Probability-weighted re-dispatch cost over all scenarios.

    Scenario solves are independent; reduction runs in scenario order for
    reproducible floating-point totals regardless of the fan-out width.
    """
    scenarios = instance.scenario_set.scenarios
    workers = thread_count(threads)
    _template(instance)  # built here, so threads never race to build it
    if workers > 1 and len(scenarios) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            dispatches = list(
                pool.map(lambda s: clear_rtm(instance, da, s.id, tol), scenarios)
            )
    else:
        dispatches = [clear_rtm(instance, da, s.id, tol) for s in scenarios]
    total = sum(s.probability * d.f_rt for s, d in zip(scenarios, dispatches))
    return total, dispatches
