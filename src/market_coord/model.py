"""Core domain types for the two-settlement market model.

Units follow standard power-system conventions: power in MW, prices and
costs in $/MWh (variable) or $ (fixed), reactances in p.u., angles in rad.
All containers are immutable after construction and safe to share between
concurrent solves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

__all__ = [
    "Line",
    "Network",
    "ConventionalUnit",
    "VreUnit",
    "Scenario",
    "ScenarioSet",
    "BidCurve",
    "SystemParams",
    "Instance",
    "ValidationReport",
    "validate",
    "validated",
    "expected_vre",
]

PROB_TOL = 1e-9


@dataclass(frozen=True)
class Line:
    """Transmission line between two buses (DC model)."""

    from_bus: str
    to_bus: str
    reactance: float  # p.u., > 0
    capacity: float  # MW flow limit, >= 0


@dataclass(frozen=True)
class Network:
    buses: tuple[str, ...]
    lines: tuple[Line, ...]
    slack_bus: str

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each line's from-bus and to-bus, as indices into `buses`, and its
        susceptance 1/reactance; built on first use."""
        at = {bus: i for i, bus in enumerate(self.buses)}
        return (np.array([at[ln.from_bus] for ln in self.lines], dtype=np.int64),
                np.array([at[ln.to_bus] for ln in self.lines], dtype=np.int64),
                1.0 / np.array([ln.reactance for ln in self.lines], dtype=float))


@dataclass(frozen=True)
class ConventionalUnit:
    """Dispatchable unit with linear costs and a relaxed-UC commitment model.

    `start_class` distinguishes units that may change commitment between the
    day-ahead and real-time stages ("fast") from those that may not ("slow").
    """

    id: str
    bus: str
    variable_cost: float  # $/MWh
    no_load_cost: float = 0.0  # $/h
    startup_cost: float = 0.0  # $
    up_redispatch_cost: float = 0.0  # $/MWh
    down_redispatch_cost: float = 0.0  # $/MWh
    p_max: float = 0.0  # MW
    p_min: float = 0.0  # MW
    ramp_up: float = 0.0  # MW/h
    ramp_down: float = 0.0  # MW/h
    start_class: str = "fast"  # "fast" | "slow"
    u_init: float = 0.0  # commitment at t=0, in [0, 1]
    p_init: float = 0.0  # output at t=0, MW


@dataclass(frozen=True)
class VreUnit:
    id: str
    bus: str
    capacity: float  # installed capacity, MW


@dataclass(frozen=True)
class Scenario:
    """One realization of real-time VRE output and load, with probability."""

    id: str
    probability: float
    vre_real: Mapping[tuple[str, int], float]  # (vre id, hour) -> MW
    rt_load: Mapping[tuple[str, int], float]  # (bus, hour) -> MW


@dataclass(frozen=True)
class ScenarioSet:
    hours: tuple[int, ...]
    da_load: Mapping[tuple[str, int], float]  # (bus, hour) -> MW
    scenarios: tuple[Scenario, ...]


@dataclass(frozen=True)
class BidCurve:
    """Per (VRE unit, hour) supply curve: ordered (price, quantity) segments.

    Prices must be nondecreasing; quantities are per-segment MW offers.
    """

    owner: str
    hour: int
    segments: tuple[tuple[float, float], ...]

    @property
    def total_quantity(self) -> float:
        return sum(q for _, q in self.segments)


@dataclass(frozen=True)
class SystemParams:
    voll: float  # value of lost load, $/MWh
    price_cap: float | None = None  # bid price cap; defaults to VoLL

    @property
    def bid_price_cap(self) -> float:
        return self.voll if self.price_cap is None else self.price_cap


@dataclass(frozen=True)
class Instance:
    network: Network
    units: tuple[ConventionalUnit, ...]
    vre_units: tuple[VreUnit, ...]
    scenario_set: ScenarioSet
    system: SystemParams

    def unit(self, uid: str) -> ConventionalUnit:
        for u in self.units:
            if u.id == uid:
                return u
        raise KeyError(uid)

    def vre(self, vid: str) -> VreUnit:
        for v in self.vre_units:
            if v.id == vid:
                return v
        raise KeyError(vid)

    @property
    def hours(self) -> tuple[int, ...]:
        return self.scenario_set.hours


T = TypeVar("T")


def cached(instance: Instance, key: str, build: Callable[[], T]) -> T:
    """The value stored on `instance` under `key`, made by `build()` on first use.

    It is kept in the instance's own __dict__, as functools.cached_property
    does, so it lives exactly as long as the instance; an instance made by
    dataclasses.replace starts without it and builds its own.
    """
    value = instance.__dict__.get(key)
    if value is None:
        value = instance.__dict__[key] = build()
    return value


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_finite(where: str, record, report: ValidationReport) -> None:
    """Report each number field of dataclass `record` that is not finite."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            report.violations.append(f"{where}: {f.name} {value} is not finite")


def _check_network(net: Network, report: ValidationReport) -> None:
    buses = set(net.buses)
    if len(buses) != len(net.buses):
        report.violations.append("duplicate bus ids")
    if net.slack_bus not in buses:
        report.violations.append(f"slack bus {net.slack_bus!r} is not a declared bus")
    for ln in net.lines:
        _check_finite(f"line ({ln.from_bus},{ln.to_bus})", ln, report)
        if ln.from_bus not in buses or ln.to_bus not in buses:
            report.violations.append(
                f"line ({ln.from_bus},{ln.to_bus}) references an undeclared bus"
            )
        if ln.from_bus == ln.to_bus:
            report.violations.append(f"self-loop line at bus {ln.from_bus!r}")
        if ln.reactance <= 0:
            report.violations.append(
                f"line ({ln.from_bus},{ln.to_bus}) reactance must be > 0"
            )
        if ln.capacity < 0:
            report.violations.append(
                f"line ({ln.from_bus},{ln.to_bus}) capacity must be >= 0"
            )
    # connectivity check via traversal
    if buses:
        adj: dict[str, set[str]] = {b: set() for b in buses}
        for ln in net.lines:
            if ln.from_bus in adj and ln.to_bus in adj:
                adj[ln.from_bus].add(ln.to_bus)
                adj[ln.to_bus].add(ln.from_bus)
        seen = {next(iter(buses))}
        stack = list(seen)
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != buses:
            report.violations.append("network graph is not connected")


def _check_unit(u: ConventionalUnit, buses: set[str], report: ValidationReport) -> None:
    _check_finite(f"unit {u.id}", u, report)
    if u.bus not in buses:
        report.violations.append(f"unit {u.id}: bus {u.bus!r} not declared")
    if not (0 <= u.p_min <= u.p_max):
        report.violations.append(f"unit {u.id}: requires 0 <= p_min <= p_max")
    if u.ramp_up < 0 or u.ramp_down < 0:
        report.violations.append(f"unit {u.id}: ramp rates must be >= 0")
    if u.start_class not in ("fast", "slow"):
        report.violations.append(f"unit {u.id}: unknown start class {u.start_class!r}")
    if not (0 <= u.u_init <= 1):
        report.violations.append(f"unit {u.id}: u_init must lie in [0, 1]")
    lo, hi = u.u_init * u.p_min, u.u_init * u.p_max
    if not (lo - 1e-9 <= u.p_init <= hi + 1e-9):
        report.violations.append(
            f"unit {u.id}: p_init {u.p_init} outside [{lo}, {hi}]"
        )
    # cost ordering is conventional but not mandatory
    if not (u.up_redispatch_cost >= u.variable_cost >= u.down_redispatch_cost >= 0):
        report.warnings.append(
            f"unit {u.id}: cost ordering C_up >= C >= C_down >= 0 does not hold"
        )


def validate(instance: Instance) -> ValidationReport:
    """Check every model invariant; returns a report, never raises.

    The report is empty iff the instance is well-formed. Soft conventions
    (re-dispatch cost ordering) are reported as warnings only.
    """
    report = ValidationReport()
    net = instance.network
    _check_network(net, report)
    buses = set(net.buses)

    unit_ids = [u.id for u in instance.units]
    if len(set(unit_ids)) != len(unit_ids):
        report.violations.append("duplicate conventional unit ids")
    for u in instance.units:
        _check_unit(u, buses, report)

    vre_ids = [v.id for v in instance.vre_units]
    if len(set(vre_ids)) != len(vre_ids):
        report.violations.append("duplicate VRE unit ids")
    for v in instance.vre_units:
        _check_finite(f"VRE {v.id}", v, report)
        if v.bus not in buses:
            report.violations.append(f"VRE {v.id}: bus {v.bus!r} not declared")
        if v.capacity <= 0:
            report.violations.append(f"VRE {v.id}: capacity must be > 0")

    ss = instance.scenario_set
    hours = set(ss.hours)
    if len(hours) != len(ss.hours):
        report.violations.append("duplicate hours in horizon")
    elif any(b <= a for a, b in zip(ss.hours, ss.hours[1:])):
        # ramps, start-ups and u_init/p_init follow the horizon's order
        report.violations.append("hours in horizon must strictly increase")
    for (n, t), val in ss.da_load.items():
        if n not in buses:
            report.violations.append(f"day-ahead load references unknown bus {n!r}")
        if t not in hours:
            report.violations.append(f"day-ahead load references unknown hour {t}")
        if not math.isfinite(val):
            report.violations.append(f"day-ahead load at ({n},{t}) is not finite")
        elif val < 0:
            report.violations.append(f"day-ahead load at ({n},{t}) is negative")

    total_p = sum(s.probability for s in ss.scenarios)
    if not ss.scenarios:
        report.violations.append("no scenarios")
    elif abs(total_p - 1.0) > PROB_TOL:
        report.violations.append(f"probabilities sum to {total_p:g} != 1")
    vre_set = set(vre_ids)
    for s in ss.scenarios:
        if not math.isfinite(s.probability):
            report.violations.append(f"scenario {s.id}: probability {s.probability} is not finite")
        elif s.probability <= 0:
            report.violations.append(f"scenario {s.id}: probability must be > 0")
        for (k, t), w in s.vre_real.items():
            if k not in vre_set:
                report.violations.append(f"scenario {s.id}: unknown VRE id {k!r}")
                continue
            if t not in hours:
                report.violations.append(f"scenario {s.id}: unknown hour {t}")
            cap = instance.vre(k).capacity
            if not (0 <= w <= cap + 1e-9):
                report.violations.append(
                    f"scenario {s.id}: VRE {k} output {w} outside [0, {cap}]"
                )
        missing = [(k, t) for k in vre_ids for t in ss.hours if (k, t) not in s.vre_real]
        if missing:
            report.violations.append(f"scenario {s.id}: no output for VRE (unit, hour) {missing}")
        for (n, t), val in s.rt_load.items():
            if n not in buses:
                report.violations.append(f"scenario {s.id}: unknown bus {n!r}")
            if t not in hours:
                report.violations.append(f"scenario {s.id}: unknown hour {t}")
            if not math.isfinite(val):
                report.violations.append(f"scenario {s.id}: load at ({n},{t}) is not finite")
            elif val < 0:
                report.violations.append(f"scenario {s.id}: load at ({n},{t}) negative")

    _check_finite("system", instance.system, report)
    if instance.system.voll <= 0:
        report.violations.append("VoLL must be > 0")
    return report


def validated(instance: Instance) -> Instance:
    """`instance`, once `validate` finds it well-formed; ValueError naming
    every violation otherwise. A well-formed instance is validated once."""
    def check() -> bool:
        report = validate(instance)
        if not report.ok:
            raise ValueError("instance validation failed: " + "; ".join(report.violations))
        return True

    cached(instance, "_validated", check)
    return instance


def price_errors(prices: Sequence[float], cap: float) -> list[str]:
    """The bid price rules, for a curve's prices and a price vector alike: at
    least one, finite, nondecreasing, and within [0, cap]; returns what they break."""
    if not prices:
        return ["at least one price required"]
    if not all(math.isfinite(p) for p in prices):
        return ["prices must be finite"]
    broken = {
        "nondecreasing": any(b < a - 1e-12 for a, b in zip(prices, prices[1:])),
        "nonnegative": any(p < 0 for p in prices),
        f"at most the bid price cap {cap:g}": any(p > cap + 1e-9 for p in prices),
    }
    return [f"prices must be {rule}" for rule, bad in broken.items() if bad]


def validate_bid_curve(bid: BidCurve, instance: Instance) -> list[str]:
    """Invariant check for a single bid curve against its owner's capacity."""
    try:
        cap = instance.vre(bid.owner).capacity
    except KeyError:
        return [f"bid references unknown VRE unit {bid.owner!r}"]
    where = f"bid ({bid.owner},{bid.hour})"
    if not all(math.isfinite(v) for segment in bid.segments for v in segment):
        return [f"{where}: non-finite price or quantity"]
    prices = [price for price, _ in bid.segments]
    errors = [f"{where}: {e}" for e in price_errors(prices, instance.system.bid_price_cap)]
    errors += [f"{where}: negative quantity {qty}" for _, qty in bid.segments if qty < 0]
    if bid.total_quantity > cap + 1e-6:
        errors.append(
            f"{where}: total quantity {bid.total_quantity:g} exceeds capacity {cap:g}"
        )
    return errors


def expected_vre(scenario_set: ScenarioSet, k: str, t: int) -> float:
    """Probability-weighted mean real-time output of VRE unit `k` at hour `t`."""
    if t not in scenario_set.hours:
        raise KeyError(f"unknown hour {t}")
    total = 0.0
    found = False
    for s in scenario_set.scenarios:
        if (k, t) in s.vre_real:
            found = True
            total += s.probability * s.vre_real[(k, t)]
    if not found:
        raise KeyError(f"no scenario defines VRE unit {k!r} at hour {t}")
    return total
