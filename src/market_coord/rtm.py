"""Real-time re-dispatch, one LP per scenario.

A scenario enters its real-time LP only through the right-hand side (its
real-time load and realized VRE output), and so does the day-ahead schedule.
Each instance therefore carries one `lp.Block`, its template, built on first
use: the matrix over the real-time variables, the coupling `D` to the
day-ahead `pC`/`uDA`/`cDA` variables, the costs and the row senses. Its
network rows come from `dam.network_rows`, as the day-ahead block's do.
`rtm_structure` pairs the template with one scenario's rhs. `build_rtm`
appends it with the day-ahead schedule fixed (`rhs - D @ x_DA`); the
stochastic and bilevel modules append every scenario's block with `D` kept
(`append_scenarios`), so the day-ahead variables are shared decisions.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dam import DaSchedule, hourly, network_rows
from .lp import EQ, GE, LE, Block, LpModel, LpStatus, Row, solve
from .model import Instance, Scenario, cached

__all__ = [
    "RtDispatch",
    "RtmError",
    "rtm_structure",
    "build_rtm",
    "clear_rtm",
    "append_scenarios",
    "expected_rt_cost",
    "thread_count",
]


class RtmError(RuntimeError):
    """RT infeasibility; should not occur given shedding and curtailment backstops."""


_ru, _rd, _urt, _crt, _cr, _sh, _th = map(hourly, ("rU", "rD", "uRT", "cRT", "pCr", "lsh", "thRT"))
_pc, _uda, _cda = map(hourly, ("pC", "uDA", "cDA"))  # the day-ahead columns


@dataclass(frozen=True)
class _Template(Block):
    """Scenario-independent block of an instance's real-time LP.

    Its coupled columns are the day-ahead `pC`/`uDA`/`cDA` variables, and
    `d_cost` their coefficients in f_RT.
    """

    load_rows: np.ndarray  # rows whose rhs is the real-time load at load_keys
    load_keys: list[tuple[str, int]]
    vre_rows: np.ndarray  # rows whose rhs gains vre_sign * output at vre_keys
    vre_keys: list[tuple[str, int]]
    vre_sign: np.ndarray
    # DaSchedule field -> (keys, position of each key in d_cols)
    schedule: dict[str, tuple[list, np.ndarray]]

    def scenario_rhs(self, scenario: Scenario) -> np.ndarray:
        rhs = self.rhs.copy()
        rhs[self.load_rows] += [scenario.rt_load.get(key, 0.0) for key in self.load_keys]
        vre = [scenario.vre_real.get(key, 0.0) for key in self.vre_keys]
        # np.add.at: a balance row recurs once per VRE unit at its bus
        np.add.at(rhs, self.vre_rows, self.vre_sign * vre)
        return rhs

    def day_ahead(self, da: DaSchedule) -> np.ndarray:
        """The coupled columns' values in the schedule `da`."""
        x = np.empty(len(self.d_cols))
        for name, (keys, at) in self.schedule.items():
            values = getattr(da, name)
            x[at] = [values[key] for key in keys]
        return x


def _build_template(instance: Instance) -> _Template:
    hours = instance.hours
    voll = instance.system.voll

    cost: dict[str, float] = {}
    da_obj: dict[str, float] = {}

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
    for n in instance.network.buses:
        for t in hours:
            cost[_sh(n, t)] = voll
            cost[_th(n, t)] = 0.0

    def injection(n, t):
        coeffs: dict[str, float] = {}
        for g in instance.units:
            if g.bus == n:
                coeffs[_ru(g.id, t)] = 1.0
                coeffs[_rd(g.id, t)] = -1.0
                coeffs[_pc(g.id, t)] = 1.0  # DA coupling
        for k in instance.vre_units:
            if k.bus == n:
                coeffs[_cr(k.id, t)] = -1.0
        coeffs[_sh(n, t)] = 1.0
        return coeffs, 0.0

    rows, balance = network_rows(instance, "rt", _th, injection)
    # a balance row's rhs is the load less the VRE output at its bus
    load_at = [(r, key) for key, r in balance.items()]
    vre_at = [(r, (k.id, t), -1.0) for (n, t), r in balance.items()
              for k in instance.vre_units if k.bus == n]

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
    for n in instance.network.buses:
        for t in hours:
            rows.append(Row(f"rt_sh_lb[{n},{t}]", {_sh(n, t): 1.0}, GE, 0.0))
            load_at.append((len(rows), (n, t)))
            rows.append(Row(f"rt_sh_ub[{n},{t}]", {_sh(n, t): 1.0}, LE, 0.0))

    unit_keys = [(g.id, t) for g in instance.units for t in hours]
    vre_keys = [(k.id, t) for k in instance.vre_units for t in hours]
    bus_keys = list(balance)
    d_at = {v: j for j, v in enumerate(da_obj)}
    return _Template.from_rows(
        rows, cost, da_obj, balance,
        {
            "r_up": (unit_keys, _ru),
            "r_down": (unit_keys, _rd),
            "commitment": (unit_keys, _urt),
            "startup_cost": (unit_keys, _crt),
            "curtailment": (vre_keys, _cr),
            "shed": (bus_keys, _sh),
            "angle": (bus_keys, _th),
        },
        load_rows=np.array([r for r, _ in load_at], dtype=np.int64),
        load_keys=[key for _, key in load_at],
        vre_rows=np.array([r for r, _, _ in vre_at], dtype=np.int64),
        vre_keys=[key for _, key, _ in vre_at],
        vre_sign=np.array([sign for _, _, sign in vre_at]),
        schedule={
            name: (unit_keys, np.array([d_at[col(*key)] for key in unit_keys], dtype=np.int64))
            for name, col in (("p_conventional", _pc), ("commitment", _uda), ("startup_cost", _cda))
        },
    )


def _template(instance: Instance) -> _Template:
    """The instance's real-time template, built on first use."""
    return cached(instance, "_rtm_template", lambda: _build_template(instance))


def rtm_structure(instance: Instance, scenario: Scenario) -> tuple[_Template, np.ndarray]:
    """The real-time block of one scenario: the instance's template and its rhs."""
    tpl = _template(instance)
    return tpl, tpl.scenario_rhs(scenario)


def append_scenarios(instance: Instance, model: LpModel) -> None:
    """Append every scenario's real-time block to `model`, which holds the
    day-ahead variables they share; names carry `@<scenario id>` and costs,
    including the day-ahead terms of f_RT, are weighted by probability."""
    for scen in instance.scenario_set.scenarios:
        tpl, rhs = rtm_structure(instance, scen)
        tpl.append_to(model, rhs=rhs, suffix=f"@{scen.id}", weight=scen.probability)


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


def build_rtm(instance: Instance, da: DaSchedule, scenario_id: str) -> tuple[LpModel, _Template, float]:
    """RT LP for one scenario with the DA schedule substituted into the rhs.

    Returns (model, template, objective offset); f_RT equals the LP
    objective plus the offset, which carries the constant -C0 * uDA terms.
    """
    tpl, rhs = rtm_structure(instance, _find_scenario(instance, scenario_id))
    model = LpModel(name=f"rtm[{scenario_id}]")
    offset = tpl.append_to(model, tpl.day_ahead(da), rhs=rhs)
    return model, tpl, offset


def _find_scenario(instance: Instance, scenario_id: str) -> Scenario:
    for s in instance.scenario_set.scenarios:
        if s.id == scenario_id:
            return s
    raise KeyError(f"unknown scenario {scenario_id!r}")


def clear_rtm(
    instance: Instance,
    da: DaSchedule,
    scenario_id: str,
) -> RtDispatch:
    """Solve one scenario's re-dispatch; pure function of its inputs."""
    model, tpl, offset = build_rtm(instance, da, scenario_id)
    sol = solve(model)
    if sol.status is not LpStatus.OPTIMAL:
        raise RtmError(
            f"real-time dispatch for scenario {scenario_id!r} ended "
            f"{sol.status.value}; shedding/curtailment backstops should prevent this"
        )
    return RtDispatch(
        scenario_id=scenario_id,
        **tpl.read(sol.primal),
        f_rt=sol.objective + offset,
        lmp=tpl.balance_duals(sol.duals),
    )


def thread_count(requested: int | None = None) -> int:
    """Scenario fan-out width; MARKET_COORD_THREADS overrides the default of 1.

    Raises ValueError, naming where the width came from, unless it is an
    integer of at least 1.
    """
    if requested is not None:
        source, value = "threads", requested
    else:
        env = os.environ.get("MARKET_COORD_THREADS")
        if not env:
            return 1
        try:
            source, value = "MARKET_COORD_THREADS", int(env)
        except ValueError:
            raise ValueError(f"MARKET_COORD_THREADS must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be at least 1, got {value}")
    return value


def expected_rt_cost(
    instance: Instance,
    da: DaSchedule,
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
                pool.map(lambda s: clear_rtm(instance, da, s.id), scenarios)
            )
    else:
        dispatches = [clear_rtm(instance, da, s.id) for s in scenarios]
    total = sum(s.probability * d.f_rt for s, d in zip(scenarios, dispatches))
    return total, dispatches
