"""Real-time re-dispatch, one LP per scenario.

A scenario enters its real-time LP only through the balance rhs (its
real-time load less its realized VRE output) and the upper bounds of its
shedding and curtailment columns (that load and that output), and the
day-ahead schedule only through the rhs. Each instance therefore carries one
`lp.Block`, its template, built on first use: the matrix over the real-time
variables, the coupling `D` to the day-ahead `pC`/`uDA`/`cDA` variables,
the costs, the column bounds and the row senses. Its network and unit rows
come from `dam.network_rows` and `dam.unit_rows`, as the day-ahead block's
do. `rtm_structure` pairs the template with one scenario's rhs and upper
bounds. `build_rtm` appends it with the day-ahead schedule fixed
(`rhs - D @ x_DA`); the stochastic and bilevel modules append every
scenario's block with `D` kept (`append_scenarios`), so the day-ahead
variables are shared decisions.

Since scenarios differ only in the rhs and in finite column bounds, the
optimal basis of one scenario's LP stays dual feasible for every other.
`expected_rt_cost` therefore solves the first scenario from scratch and
re-optimizes each other one from that basis (`lp.solve(model, basis=,
prices=)`), on a fresh HiGHS object each. Such a result is kept only where
the scenario's LMPs are its LP's only optimal duals; where a bus and hour
may price anywhere between two redispatch costs, the scenario is solved
again from scratch. Every scenario's LMPs, f_RT and dispatch are thus a
standalone `clear_rtm`'s (which always solves from scratch), up to rounding,
whichever scenario comes first; a dispatch may differ only where the LP has
more than one optimal primal, at equal f_RT.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dam import NONNEG, DaSchedule, angle_bounds, hourly, network_rows, unit_rows
from .lp import EQ, GE, Block, LpModel, LpStatus, Row, solve
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

    vre_rows: np.ndarray  # balance row of each curtailment key
    # DaSchedule field -> (keys, position of each key in d_cols)
    schedule: dict[str, tuple[list, np.ndarray]]

    def of_scenario(self, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
        """The rhs and the column upper bounds of `scenario`'s LP."""
        bus_keys, shed = self.outputs["shed"]
        vre_keys, curtailment = self.outputs["curtailment"]
        load = [scenario.rt_load.get(key, 0.0) for key in bus_keys]
        vre = [scenario.vre_real.get(key, 0.0) for key in vre_keys]
        rhs, ub = self.rhs.copy(), self.ub.copy()
        rhs[self.bal_rows] += load
        # np.subtract.at: a balance row recurs once per VRE unit at its bus
        np.subtract.at(rhs, self.vre_rows, vre)
        ub[shed], ub[curtailment] = load, vre
        return rhs, ub

    def day_ahead(self, da: DaSchedule) -> np.ndarray:
        """The coupled columns' values in the schedule `da`."""
        x = np.empty(len(self.d_cols))
        for name, (keys, at) in self.schedule.items():
            values = getattr(da, name)
            x[at] = [values[key] for key in keys]
        return x


def _build_template(instance: Instance) -> _Template:
    hours = instance.hours

    columns: dict[str, tuple[float, float, float]] = {}
    da_obj: dict[str, float] = {}

    for g in instance.units:
        for t in hours:
            columns[_ru(g.id, t)] = (g.up_redispatch_cost, *NONNEG)
            columns[_rd(g.id, t)] = (-g.down_redispatch_cost, *NONNEG)
            columns[_urt(g.id, t)] = (g.no_load_cost, -np.inf, 1.0)
            columns[_crt(g.id, t)] = (1.0, *NONNEG)
            da_obj[_pc(g.id, t)] = 0.0
            da_obj[_uda(g.id, t)] = -g.no_load_cost
            da_obj[_cda(g.id, t)] = 0.0
    # curtailment and shedding: upper bounds are each scenario's
    for k in instance.vre_units:
        for t in hours:
            columns[_cr(k.id, t)] = (0.0, 0.0, 0.0)
    for n in instance.network.buses:
        for t in hours:
            columns[_sh(n, t)] = (instance.system.voll, 0.0, 0.0)
            columns[_th(n, t)] = (0.0, *angle_bounds(instance, n))

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
    # a unit's real-time output is its day-ahead output plus its redispatch
    rows += unit_rows(instance, "rt",
                      lambda g, t: {_ru(g, t): 1.0, _rd(g, t): -1.0, _pc(g, t): 1.0}, _urt,
                      lambda g, t: {_crt(g, t): 1.0, _cda(g, t): 1.0})
    # a slow unit keeps its day-ahead commitment, a fast one may only add to it
    for g in instance.units:
        fix, sense = ("fix", EQ) if g.start_class == "slow" else ("min", GE)
        rows += [Row(f"rt_u_{fix}[{g.id},{t}]", {_urt(g.id, t): 1.0, _uda(g.id, t): -1.0},
                     sense, 0.0) for t in hours]

    unit_keys = [(g.id, t) for g in instance.units for t in hours]
    vre_keys = [(k.id, t) for k in instance.vre_units for t in hours]
    bus_keys = list(balance)
    d_at = {v: j for j, v in enumerate(da_obj)}
    return _Template.from_rows(
        rows, columns, da_obj, balance,
        {
            "r_up": (unit_keys, _ru),
            "r_down": (unit_keys, _rd),
            "commitment": (unit_keys, _urt),
            "startup_cost": (unit_keys, _crt),
            "curtailment": (vre_keys, _cr),
            "shed": (bus_keys, _sh),
            "angle": (bus_keys, _th),
        },
        vre_rows=np.array([balance[(instance.vre(k).bus, t)] for k, t in vre_keys],
                          dtype=np.int64),
        schedule={
            name: (unit_keys, np.array([d_at[col(*key)] for key in unit_keys], dtype=np.int64))
            for name, col in (("p_conventional", _pc), ("commitment", _uda), ("startup_cost", _cda))
        },
    )


def _template(instance: Instance) -> _Template:
    """The instance's real-time template, built on first use."""
    return cached(instance, "_rtm_template", lambda: _build_template(instance))


def rtm_structure(instance: Instance,
                  scenario: Scenario) -> tuple[_Template, np.ndarray, np.ndarray]:
    """The real-time block of one scenario: the instance's template, and the
    scenario's rhs and column upper bounds."""
    tpl = _template(instance)
    return (tpl, *tpl.of_scenario(scenario))


def append_scenarios(instance: Instance, model: LpModel) -> None:
    """Append every scenario's real-time block to `model`, which holds the
    day-ahead variables they share; names carry `@<scenario id>` and costs,
    including the day-ahead terms of f_RT, are weighted by probability."""
    for scen in instance.scenario_set.scenarios:
        tpl, rhs, ub = rtm_structure(instance, scen)
        tpl.append_to(model, rhs=rhs, ub=ub, suffix=f"@{scen.id}", weight=scen.probability)


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
    tpl, rhs, ub = rtm_structure(instance, _find_scenario(instance, scenario_id))
    model = LpModel(name=f"rtm[{scenario_id}]")
    offset = tpl.append_to(model, tpl.day_ahead(da), rhs=rhs, ub=ub)
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
    return _redispatch(instance, da, scenario_id)[0]


def _redispatch(instance: Instance, da: DaSchedule, scenario_id: str,
                basis=None) -> tuple[RtDispatch, object]:
    """One scenario's re-dispatch and its optimal basis, solved from `basis`
    if given (the basis of another scenario's LP) where that leaves its
    LMPs unique, and from scratch if not."""
    model, tpl, offset = build_rtm(instance, da, scenario_id)
    sol = solve(model, basis=basis, prices=tpl.bal_rows)
    if sol.status is not LpStatus.OPTIMAL:
        raise RtmError(
            f"real-time dispatch for scenario {scenario_id!r} ended "
            f"{sol.status.value}; shedding/curtailment backstops should prevent this"
        )
    dispatch = RtDispatch(
        scenario_id=scenario_id,
        **tpl.read(sol.primal),
        f_rt=sol.objective + offset,
        lmp=tpl.balance_duals(sol.duals),
    )
    return dispatch, sol.basis


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

    The first scenario is solved from scratch and every other one from its
    optimal basis, which stays dual feasible since the scenarios' LPs differ
    only in their rhs and column bounds; a scenario whose LMPs that start
    leaves non-unique is solved from scratch. Each scenario's result is
    therefore a function of the schedule, the first scenario and its own
    data alone, and the reduction runs in scenario order, so totals do not
    depend on the fan-out width.
    """
    scenarios = instance.scenario_set.scenarios
    workers = thread_count(threads)
    # solved before any thread starts, so that threads never race to build
    # the template
    first, basis = _redispatch(instance, da, scenarios[0].id)

    def warm(scenario: Scenario) -> RtDispatch:
        return _redispatch(instance, da, scenario.id, basis)[0]

    if workers > 1 and len(scenarios) > 2:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rest = list(pool.map(warm, scenarios[1:]))
    else:
        rest = [warm(s) for s in scenarios[1:]]
    dispatches = [first, *rest]
    total = sum(s.probability * d.f_rt for s, d in zip(scenarios, dispatches))
    return total, dispatches
