"""Seeded generator of two-settlement market instances for the benchmark.

The generated system is a ring DC network with chord lines, conventional
units on a cost ladder (the cheap third slow-start and committed at t=0, the
rest fast-start), VRE units spread over the ring, a 24 h load shape, and S
Dirichlet-weighted scenarios with VRE and load noise. The grid is drawn from
`grid_seed` and the scenarios from `scenario_seed`.

Every bus hosts at least one conventional unit whose capacity covers the
bus's own day-ahead peak load, so the day-ahead market is feasible for any
well-formed bid set (no flows are needed to serve load); lines are sized
below the typical exchange so that congestion does bind.
"""
from __future__ import annotations

import math

import numpy as np

from market_coord.model import (
    ConventionalUnit,
    Instance,
    Line,
    Network,
    Scenario,
    ScenarioSet,
    SystemParams,
    VreUnit,
)

HOURS = 24
VOLL = 1000.0  # $/MWh
COST_LADDER = (10.0, 70.0)  # $/MWh, cheapest and dearest unit


def _load_shape() -> np.ndarray:
    """Daily shape in (0, 1]: night trough, morning ramp, evening peak."""
    t = np.arange(HOURS)
    shape = (0.72 + 0.18 * np.sin(2 * math.pi * (t - 9) / 24)
             + 0.06 * np.sin(4 * math.pi * (t - 3) / 24))
    return shape / shape.max()


def _vre_profile(phase: float) -> np.ndarray:
    """Mean availability factor per hour for one VRE unit."""
    t = np.arange(HOURS)
    return np.clip(0.45 + 0.25 * np.sin(2 * math.pi * (t - phase) / 24), 0.05, 0.95)


def _ring_with_chords(n: int) -> list[tuple[int, int]]:
    """Bus pairs: the ring, plus chords across it from every other bus of its first half."""
    return ([(i, (i + 1) % n) for i in range(n)]
            + [(i, i + n // 2) for i in range(0, n // 2, 2)])


def generate(
    grid_seed: int,
    scenario_seed: int,
    n_buses: int,
    n_units: int,
    n_vre: int,
    n_scenarios: int,
) -> Instance:
    """Build one instance; the same arguments always give the same instance."""
    if n_buses < 4 or n_units < n_buses:
        raise ValueError("need at least 4 buses and one conventional unit per bus")
    rng = np.random.default_rng(grid_seed)
    buses = tuple(f"b{i}" for i in range(n_buses))
    hour_ids = tuple(range(HOURS))

    peak = rng.uniform(40.0, 120.0, size=n_buses)
    shape = _load_shape()
    da = peak[:, None] * shape[None, :] * rng.uniform(0.97, 1.03, size=(n_buses, HOURS))
    da_load = {
        (buses[n], t): float(da[n, t]) for n in range(n_buses) for t in hour_ids
    }

    exchange = float(peak.mean())
    lines = tuple(
        Line(buses[a], buses[b], reactance=float(rng.uniform(0.05, 0.25)),
             capacity=float(rng.uniform(0.3, 0.7) * exchange))
        for a, b in _ring_with_chords(n_buses)
    )
    network = Network(buses=buses, lines=lines, slack_bus=buses[0])

    # unit i sits at bus i mod n_buses; each bus's first unit covers its peak
    lo, hi = COST_LADDER
    costs = np.linspace(lo, hi, n_units) + rng.uniform(-1.5, 1.5, size=n_units)
    order = rng.permutation(n_units)  # which bus gets which rung of the ladder
    units = []
    for i in range(n_units):
        bus = i % n_buses
        cost = float(costs[order[i]])
        p_max = float(peak[bus] * rng.uniform(1.15, 1.5) if i < n_buses
                      else rng.uniform(30.0, 90.0))
        slow = order[i] < n_units // 3
        units.append(ConventionalUnit(
            id=f"g{i}",
            bus=buses[bus],
            variable_cost=cost,
            no_load_cost=float(rng.uniform(50.0, 200.0)) if slow else 0.0,
            startup_cost=float(rng.uniform(500.0, 2000.0)) if slow else 0.0,
            up_redispatch_cost=cost * 1.4 + 5.0,
            down_redispatch_cost=cost * 0.5,
            p_max=p_max,
            p_min=0.3 * p_max if slow else 0.0,
            ramp_up=(0.5 if slow else 1.0) * p_max,
            ramp_down=(0.5 if slow else 1.0) * p_max,
            start_class="slow" if slow else "fast",
            u_init=1.0 if slow else 0.0,
            p_init=0.5 * p_max if slow else 0.0,
        ))

    total_peak = float(peak.sum())
    vre_units = tuple(
        VreUnit(id=f"w{j}", bus=buses[(j * n_buses) // n_vre + n_buses // (2 * n_vre)],
                capacity=float(rng.uniform(0.3, 0.5) * total_peak / n_vre))
        for j in range(n_vre)
    )
    profiles = [_vre_profile(phase=float(rng.uniform(0.0, 24.0))) for _ in vre_units]

    rng = np.random.default_rng(scenario_seed)
    probs = rng.dirichlet(np.full(n_scenarios, 8.0))
    scenarios = []
    for s in range(n_scenarios):
        vre_real = {}
        for v, prof in zip(vre_units, profiles):
            factor = prof + rng.normal(0.0, 0.15) + rng.normal(0.0, 0.05, size=HOURS)
            out = np.clip(factor, 0.0, 1.0) * v.capacity
            vre_real.update({(v.id, t): float(out[t]) for t in hour_ids})
        level = rng.normal(0.0, 0.03)
        rt = da * (1.0 + level + rng.normal(0.0, 0.01, size=da.shape))
        rt_load = {
            (buses[n], t): float(max(rt[n, t], 0.0))
            for n in range(n_buses) for t in hour_ids
        }
        scenarios.append(Scenario(id=f"s{s}", probability=float(probs[s]),
                                  vre_real=vre_real, rt_load=rt_load))

    return Instance(
        network=network,
        units=tuple(units),
        vre_units=vre_units,
        scenario_set=ScenarioSet(hours=hour_ids, da_load=da_load,
                                 scenarios=tuple(scenarios)),
        system=SystemParams(voll=VOLL),
    )
