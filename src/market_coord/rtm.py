"""Real-time re-dispatch, one LP per scenario.

A scenario enters its real-time LP only through the balance rhs (its
real-time load less its realized VRE output) and the upper bounds of its
shedding and curtailment columns (that load and that output), and the
day-ahead schedule only through the rhs. Each instance therefore carries one
`lp.Block`, its template, built on first use: the terms over the real-time
variables, the coupling terms `D` to the day-ahead `pC`/`uDA`/`cDA` variables,
the costs, the column bounds and the row senses. It is built from index
arrays, as the day-ahead block is, and its network and unit rows come from
the same builders (`dam.network_rows`, `dam.unit_rows`). It couples to the
day-ahead columns by position: they are laid out as the day-ahead block's
first columns. `rtm_structure` pairs the template with one scenario's rhs
and upper bounds. `build_rtm` appends it with the day-ahead schedule fixed
(`rhs - D @ x_DA`, `Block.fixed_rhs`); the stochastic and bilevel modules
append every scenario's block with `D` kept on the first columns of their
day-ahead block (`append_scenarios`), so the day-ahead variables are shared
decisions.

Since scenarios differ only in the rhs and in finite column bounds, the
optimal basis of one scenario's LP stays dual feasible for every other.
`expected_rt_cost` therefore builds the first scenario's LP, solves it from
scratch, and re-optimizes each other scenario from that basis on the same
model and HiGHS object, with only the scenario's rhs and upper bounds put in
(`lp.solve(model, basis=, prices=)`). The object takes each scenario's LP
anew, which clears its solver, and restarts from the first scenario's basis,
so each result is, bit for bit, what a fresh object loaded with that
scenario's LP gives. Such a result is kept only where the scenario's LMPs
are its LP's only optimal duals; where a bus and hour may price anywhere
between two redispatch costs, the scenario is solved again from scratch, on
a fresh object. Every scenario's LMPs, f_RT and dispatch are thus a
standalone `clear_rtm`'s (which always solves from scratch), up to rounding,
whichever scenario comes first; a dispatch may differ only where the LP has
more than one optimal primal, at equal f_RT.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dam import UNIT_VARS, DaSchedule, angle_bounds, attrs, bus_index, grid, grid_names
from .dam import network_rows, per_hour, solved, unit_rows
from .lp import EQ, GE, Block, LpModel
from .model import Instance, Scenario, cached, validated

__all__ = [
    "RtDispatch",
    "rtm_structure",
    "build_rtm",
    "clear_rtm",
    "append_scenarios",
    "expected_rt_cost",
]


@dataclass(frozen=True)
class _Template(Block):
    """Scenario-independent block of an instance's real-time LP.

    Its coupled columns are the day-ahead `pC`/`uDA`/`cDA` variables, and
    `d_cost` their coefficients in f_RT.
    """

    vre_rows: np.ndarray  # balance row of each curtailment key

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
        """The coupled columns' values in the schedule `da`: each unit's
        output, commitment and start-up cost at each hour, in `d_cols` order."""
        unit_keys, _ = self.outputs["commitment"]
        schedule = (da.p_conventional, da.commitment, da.startup_cost)
        return np.array([values[key] for key in unit_keys for values in schedule])


def _build_template(instance: Instance) -> _Template:
    validated(instance)
    units, vres, buses, hours = (instance.units, instance.vre_units, instance.network.buses,
                                 instance.hours)
    n_unit, n_vre, n_bus, n_hour = len(units), len(vres), len(buses), len(hours)
    r_up, r_dn, u, c = grid(0, n_unit, n_hour, 4)
    (curtail,) = grid(4 * u.size, n_vre, n_hour)
    shed, theta = grid(4 * u.size + curtail.size, n_bus, n_hour, 2)
    # the day-ahead unit columns, laid out as the day-ahead block's first
    d_first = 4 * u.size + curtail.size + 2 * shed.size
    pc_da, u_da, c_da = grid(d_first, n_unit, n_hour, len(UNIT_VARS))

    unit_bus = bus_index(instance, units)
    injection = [(unit_bus, r_up, 1.0), (unit_bus, r_dn, -1.0),
                 (unit_bus, pc_da, 1.0),  # DA coupling
                 (bus_index(instance, vres), curtail, -1.0),
                 (np.arange(n_bus), shed, 1.0)]
    network, bal = network_rows(instance, "rt", theta, injection, np.zeros((n_bus, n_hour)))
    # a unit's real-time output is its day-ahead output plus its redispatch
    per_unit = unit_rows(instance, "rt", [(r_up, 1.0), (r_dn, -1.0), (pc_da, 1.0)], u,
                         [(c, 1.0), (c_da, 1.0)])
    # a slow unit keeps its day-ahead commitment, a fast one may only add to it
    slow = [g.start_class == "slow" for g in units]
    row = np.arange(u.size).reshape(u.shape)
    commitment = ([f"rt_u_{'fix' if s else 'min'}[{g.id},{t}]"
                   for g, s in zip(units, slow) for t in hours],
                  [EQ if s else GE for s in slow for _t in hours], 0.0,
                  [(row, u, 1.0), (row, u_da, -1.0)])

    unit_keys = [(g.id, t) for g in units for t in hours]
    vre_keys = [(k.id, t) for k in vres for t in hours]
    bus_keys = [(n, t) for n in buses for t in hours]
    return _Template.of(
        columns=[
            (grid_names(("rU", "rD", "uRT", "cRT"), [g.id for g in units], hours),
             per_hour(n_unit, n_hour, attrs(units, "up_redispatch_cost"),
                      -attrs(units, "down_redispatch_cost"), attrs(units, "no_load_cost"), 1.0),
             per_hour(n_unit, n_hour, 0.0, 0.0, -np.inf, 0.0),
             per_hour(n_unit, n_hour, np.inf, np.inf, 1.0, np.inf)),
            # curtailment and shedding: upper bounds are each scenario's
            (grid_names(("pCr",), [k.id for k in vres], hours), 0.0, 0.0, 0.0),
            (grid_names(("lsh", "thRT"), buses, hours),
             per_hour(n_bus, n_hour, instance.system.voll, 0.0),
             *(per_hour(n_bus, n_hour, 0.0, bound) for bound in angle_bounds(instance))),
        ],
        d_cols=grid_names(UNIT_VARS, [g.id for g in units], hours),
        d_cost=per_hour(n_unit, n_hour, 0.0, -attrs(units, "no_load_cost"), 0.0),
        sections=[network, per_unit, commitment],
        bus_keys=bus_keys, bal_rows=bal.ravel(),
        outputs={
            "r_up": (unit_keys, r_up.ravel()),
            "r_down": (unit_keys, r_dn.ravel()),
            "commitment": (unit_keys, u.ravel()),
            "startup_cost": (unit_keys, c.ravel()),
            "curtailment": (vre_keys, curtail.ravel()),
            "shed": (bus_keys, shed.ravel()),
            "angle": (bus_keys, theta.ravel()),
        },
        vre_rows=bal[bus_index(instance, vres)].ravel(),
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


def append_scenarios(instance: Instance, model: LpModel, first: int) -> None:
    """Append every scenario's real-time block to `model`, coupled to the
    first columns of its day-ahead block, which starts at column `first`;
    names carry `@<scenario id>` and costs, including the day-ahead terms of
    f_RT, are weighted by probability."""
    for scen in instance.scenario_set.scenarios:
        tpl, rhs, ub = rtm_structure(instance, scen)
        tpl.append_to(model, rhs=rhs, ub=ub, suffix=f"@{scen.id}", weight=scen.probability,
                      coupled=first + np.arange(len(tpl.d_cols)))


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
    x_da = tpl.day_ahead(da)
    tpl.append_to(model, x_da, rhs=rhs, ub=ub)
    return model, tpl, sum((tpl.d_cost * x_da).tolist())


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
    return _redispatch(*build_rtm(instance, da, scenario_id), scenario_id)[0]


def _redispatch(model: LpModel, tpl: _Template, offset: float, scenario_id: str,
                basis=None) -> tuple[RtDispatch, object]:
    """The re-dispatch of `build_rtm`'s `(model, tpl, offset)` for one
    scenario and its start (`LpSolution.basis`), solved from `basis` if
    given (the start of another scenario's LP) where that leaves its LMPs
    unique, and from scratch if not."""
    sol = solved(model, f"real-time dispatch for scenario {scenario_id!r}",
                 basis=basis, prices=tpl.bal_rows)
    dispatch = RtDispatch(
        scenario_id=scenario_id,
        **tpl.read(sol.primal),
        f_rt=sol.objective + offset,
        lmp=tpl.balance_duals(sol.duals),
    )
    return dispatch, sol.basis


def expected_rt_cost(instance: Instance, da: DaSchedule) -> tuple[float, list[RtDispatch]]:
    """Probability-weighted re-dispatch cost over all scenarios.

    The first scenario is solved from scratch and every later one, in
    scenario order, from its optimal basis, which stays dual feasible since
    the scenarios' LPs differ only in their rhs and column bounds; a
    scenario whose LMPs that start leaves non-unique is solved from scratch.
    The later scenarios reuse the first one's model and HiGHS object, with
    their own rhs and upper bounds; each result is what its own LP, built
    afresh and started from the first scenario's basis, gives, bit for bit.
    Each scenario's result is therefore a function of the schedule, the
    first scenario and its own data alone. Nothing of the reused model or
    object is kept once this returns.
    """
    scenarios = instance.scenario_set.scenarios
    model, tpl, offset = build_rtm(instance, da, scenarios[0].id)
    first, start = _redispatch(model, tpl, offset, scenarios[0].id)
    dispatches = [first]
    x_da = tpl.day_ahead(da)
    for scen in scenarios[1:]:
        _, rhs, ub = rtm_structure(instance, scen)
        model.name = f"rtm[{scen.id}]"
        model.con_rhs, model.ub = tpl.fixed_rhs(rhs, x_da), ub
        dispatches.append(_redispatch(model, tpl, offset, scen.id, start)[0])
    total = sum(s.probability * d.f_rt for s, d in zip(scenarios, dispatches))
    return total, dispatches
