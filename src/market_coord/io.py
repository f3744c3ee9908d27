"""Instance ingestion and serialization.

Network, units, and system parameters live in one JSON document; scenarios
are columnar CSV (scenario_id, probability, hour, entity_id, value_mw) where
the entity id resolves to either a VRE unit (output realization) or a bus
(real-time load). Bid curves are CSV with one row per segment.
"""
from __future__ import annotations

import csv
import json
from importlib import resources
from pathlib import Path

from .model import (
    BidCurve,
    ConventionalUnit,
    Instance,
    Line,
    Network,
    ScenarioSet,
    Scenario,
    SystemParams,
    VreUnit,
    validate,
)

__all__ = [
    "ParseError",
    "load_instance",
    "save_instance",
    "load_bids",
    "save_bids",
    "bundled_instance",
    "BUNDLED",
]

BUNDLED = ("t1", "sys3", "sys5")


class ParseError(ValueError):
    """Malformed input file; message names the file and offending field."""


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f"{where}: missing field {key!r}")
    return mapping[key]


def _number(mapping: dict, key: str, where: str, default=None, kind=float):
    """Field `key` of `mapping` as a `kind`; `default`, if given, where it is missing."""
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: field {key!r} is not a number: {value!r}") from None


def _load_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _parse_units(doc: dict, where: str) -> tuple[ConventionalUnit, ...]:
    units = []
    for entry in doc.get("conventional_units", []):
        units.append(
            ConventionalUnit(
                id=_require(entry, "id", where),
                bus=_require(entry, "bus", where),
                variable_cost=_number(entry, "variable_cost_usd_per_mwh", where),
                no_load_cost=_number(entry, "no_load_cost_usd_per_h", where, 0.0),
                startup_cost=_number(entry, "startup_cost_usd", where, 0.0),
                up_redispatch_cost=_number(entry, "up_redispatch_cost_usd_per_mwh", where, 0.0),
                down_redispatch_cost=_number(entry, "down_redispatch_cost_usd_per_mwh", where, 0.0),
                p_max=_number(entry, "p_max_mw", where),
                p_min=_number(entry, "p_min_mw", where, 0.0),
                ramp_up=_number(entry, "ramp_up_mw_per_h", where, 0.0),
                ramp_down=_number(entry, "ramp_down_mw_per_h", where, 0.0),
                start_class=entry.get("start_class", "fast"),
                u_init=_number(entry, "u_init", where, 0.0),
                p_init=_number(entry, "p_init_mw", where, 0.0),
            )
        )
    return tuple(units)


def _parse_scenarios_csv(path: str | Path, vre_ids: set[str], buses: set[str]):
    probs: dict[str, float] = {}
    vre: dict[str, dict] = {}
    load: dict[str, dict] = {}
    hours: set[int] = set()
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"scenario_id", "probability", "hour", "entity_id", "value_mw"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ParseError(f"{path}: expected columns {sorted(needed)}")
        for lineno, row in enumerate(reader, start=2):
            sid = row["scenario_id"]
            try:
                prob = float(row["probability"])
                hour = int(row["hour"])
                value = float(row["value_mw"])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if sid not in probs:
                probs[sid] = prob
                order.append(sid)
                vre[sid] = {}
                load[sid] = {}
            elif abs(probs[sid] - prob) > 1e-12:
                raise ParseError(
                    f"{path}:{lineno}: scenario {sid!r} probability changed"
                )
            hours.add(hour)
            ent = row["entity_id"]
            if ent in vre_ids:
                vre[sid][(ent, hour)] = value
            elif ent in buses:
                load[sid][(ent, hour)] = value
            else:
                raise ParseError(
                    f"{path}:{lineno}: entity {ent!r} is neither a VRE unit nor a bus"
                )
    if not order:
        raise ParseError(f"{path}: no scenarios")
    scenarios = tuple(
        Scenario(id=sid, probability=probs[sid], vre_real=vre[sid], rt_load=load[sid])
        for sid in order
    )
    return scenarios, hours


def load_instance(network_path: str | Path, scenarios_path: str | Path) -> Instance:
    """Parse and validate an instance; fails fast on any violation.

    `network_path` holds network, units, system parameters, and day-ahead
    load in one JSON document.
    """
    doc = _load_json(network_path)
    where = str(network_path)
    net_doc = _require(doc, "network", where)
    lines = tuple(
        Line(
            from_bus=_require(entry, "from", where),
            to_bus=_require(entry, "to", where),
            reactance=_number(entry, "reactance", where),
            capacity=_number(entry, "capacity_mw", where),
        )
        for entry in net_doc.get("lines", [])
    )
    network = Network(
        buses=tuple(_require(net_doc, "buses", where)),
        lines=lines,
        slack_bus=_require(net_doc, "slack_bus", where),
    )
    units = _parse_units(doc, where)
    vre_units = tuple(
        VreUnit(
            id=_require(entry, "id", where),
            bus=_require(entry, "bus", where),
            capacity=_number(entry, "capacity_mw", where),
        )
        for entry in doc.get("vre_units", [])
    )
    sys_doc = _require(doc, "system", where)
    system = SystemParams(
        voll=_number(sys_doc, "voll_usd_per_mwh", where),
        price_cap=(
            None
            if sys_doc.get("price_cap_usd_per_mwh") is None
            else _number(sys_doc, "price_cap_usd_per_mwh", where)
        ),
    )
    da_load = {
        (_require(entry, "bus", where), _number(entry, "hour", where, kind=int)):
            _number(entry, "load_mw", where)
        for entry in doc.get("da_load", [])
    }
    scenarios, csv_hours = _parse_scenarios_csv(
        scenarios_path, {v.id for v in vre_units}, set(network.buses)
    )
    hours = tuple(sorted(set(doc.get("hours", [])) | csv_hours))
    instance = Instance(
        network=network,
        units=units,
        vre_units=vre_units,
        scenario_set=ScenarioSet(hours=hours, da_load=da_load, scenarios=scenarios),
        system=system,
    )
    report = validate(instance)
    if not report.ok:
        raise ParseError(
            "instance validation failed: " + "; ".join(report.violations)
        )
    return instance


def save_instance(instance: Instance, json_path: str | Path, csv_path: str | Path) -> None:
    """Write an instance back to its two-file form (round-trip inverse)."""
    doc = {
        "network": {
            "buses": list(instance.network.buses),
            "lines": [
                {"from": l.from_bus, "to": l.to_bus, "reactance": l.reactance,
                 "capacity_mw": l.capacity}
                for l in instance.network.lines
            ],
            "slack_bus": instance.network.slack_bus,
        },
        "conventional_units": [
            {
                "id": u.id, "bus": u.bus,
                "variable_cost_usd_per_mwh": u.variable_cost,
                "no_load_cost_usd_per_h": u.no_load_cost,
                "startup_cost_usd": u.startup_cost,
                "up_redispatch_cost_usd_per_mwh": u.up_redispatch_cost,
                "down_redispatch_cost_usd_per_mwh": u.down_redispatch_cost,
                "p_max_mw": u.p_max, "p_min_mw": u.p_min,
                "ramp_up_mw_per_h": u.ramp_up, "ramp_down_mw_per_h": u.ramp_down,
                "start_class": u.start_class,
                "u_init": u.u_init, "p_init_mw": u.p_init,
            }
            for u in instance.units
        ],
        "vre_units": [
            {"id": v.id, "bus": v.bus, "capacity_mw": v.capacity}
            for v in instance.vre_units
        ],
        "system": {
            "voll_usd_per_mwh": instance.system.voll,
            "price_cap_usd_per_mwh": instance.system.price_cap,
        },
        "hours": list(instance.hours),
        "da_load": [
            {"bus": n, "hour": t, "load_mw": v}
            for (n, t), v in sorted(instance.scenario_set.da_load.items())
        ],
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "probability", "hour", "entity_id", "value_mw"])
        for s in instance.scenario_set.scenarios:
            for (k, t), v in sorted(s.vre_real.items()):
                writer.writerow([s.id, s.probability, t, k, v])
            for (n, t), v in sorted(s.rt_load.items()):
                writer.writerow([s.id, s.probability, t, n, v])


def load_bids(path: str | Path) -> list[BidCurve]:
    """Read bid curves from CSV (vre_id, hour, segment, price, quantity)."""
    rows: dict[tuple[str, int], list[tuple[int, float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"vre_id", "hour", "segment", "price_usd_per_mwh", "quantity_mw"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ParseError(f"{path}: expected columns {sorted(needed)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                key = (row["vre_id"], int(row["hour"]))
                rows.setdefault(key, []).append(
                    (int(row["segment"]), float(row["price_usd_per_mwh"]),
                     float(row["quantity_mw"]))
                )
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    bids = []
    for (k, t), segs in sorted(rows.items()):
        segs.sort()
        bids.append(BidCurve(owner=k, hour=t,
                             segments=tuple((p, q) for _, p, q in segs)))
    return bids


def save_bids(bids, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vre_id", "hour", "segment", "price_usd_per_mwh", "quantity_mw"])
        for b in sorted(bids, key=lambda b: (b.owner, b.hour)):
            for s, (price, qty) in enumerate(b.segments):
                writer.writerow([b.owner, b.hour, s, price, qty])


def bundled_instance(name: str) -> Instance:
    """Load one of the packaged example systems: t1, sys3, or sys5."""
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled instance {name!r}; have {BUNDLED}")
    data = resources.files("market_coord") / "data"
    return load_instance(data / f"{name}.json", data / f"{name}_scenarios.csv")
