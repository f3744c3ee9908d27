"""Instance ingestion and serialization.

Network, units, and system parameters live in one JSON document; scenarios
are columnar CSV (`SCENARIO_COLUMNS`) where the entity id resolves to either
a VRE unit (output realization) or a bus (real-time load). Bid curves are
CSV (`BID_COLUMNS`) with one row per segment. Each JSON record is one table
in `RECORDS`, which `load_instance` reads by and `save_instance` writes by.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .model import BidCurve, ConventionalUnit, Instance, Line, Network, Scenario, ScenarioSet
from .model import SystemParams, VreUnit, validated

__all__ = [
    "ParseError",
    "load_instance",
    "save_instance",
    "load_bids",
    "save_bids",
    "write_csv",
    "bundled_instance",
    "BUNDLED",
]

BUNDLED = ("t1", "sys3", "sys5")


class ParseError(ValueError):
    """Malformed input file; message names the file and offending field."""


@dataclass(frozen=True)
class DaLoad:
    """One day-ahead load entry: `load` MW at `bus` in `hour`."""

    bus: str
    hour: int
    load: float


REQUIRED = object()  # the default of a field that must be given

# Each JSON record's fields, in file order: (JSON key, attribute, kind,
# default). A field whose default is None may also be null.
RECORDS: dict[type, tuple[tuple[str, str, type, object], ...]] = {
    Line: (
        ("from", "from_bus", str, REQUIRED), ("to", "to_bus", str, REQUIRED),
        ("reactance", "reactance", float, REQUIRED),
        ("capacity_mw", "capacity", float, REQUIRED),
    ),
    ConventionalUnit: (
        ("id", "id", str, REQUIRED), ("bus", "bus", str, REQUIRED),
        ("variable_cost_usd_per_mwh", "variable_cost", float, REQUIRED),
        ("no_load_cost_usd_per_h", "no_load_cost", float, 0.0),
        ("startup_cost_usd", "startup_cost", float, 0.0),
        ("up_redispatch_cost_usd_per_mwh", "up_redispatch_cost", float, 0.0),
        ("down_redispatch_cost_usd_per_mwh", "down_redispatch_cost", float, 0.0),
        ("p_max_mw", "p_max", float, REQUIRED), ("p_min_mw", "p_min", float, 0.0),
        ("ramp_up_mw_per_h", "ramp_up", float, 0.0),
        ("ramp_down_mw_per_h", "ramp_down", float, 0.0),
        ("start_class", "start_class", str, "fast"),
        ("u_init", "u_init", float, 0.0), ("p_init_mw", "p_init", float, 0.0),
    ),
    VreUnit: (
        ("id", "id", str, REQUIRED), ("bus", "bus", str, REQUIRED),
        ("capacity_mw", "capacity", float, REQUIRED),
    ),
    SystemParams: (
        ("voll_usd_per_mwh", "voll", float, REQUIRED),
        ("price_cap_usd_per_mwh", "price_cap", float, None),
    ),
    DaLoad: (
        ("bus", "bus", str, REQUIRED), ("hour", "hour", int, REQUIRED),
        ("load_mw", "load", float, REQUIRED),
    ),
}

# Each CSV format's columns, in file order: (header, kind)
SCENARIO_COLUMNS = (("scenario_id", str), ("probability", float), ("hour", int),
                    ("entity_id", str), ("value_mw", float))
BID_COLUMNS = (("vre_id", str), ("hour", int), ("segment", int),
               ("price_usd_per_mwh", float), ("quantity_mw", float))


# Each kind of JSON value: its name in messages, and the values it accepts
# (by `type`, not `isinstance`, so that true and false are not numbers)
_KINDS = {
    str: ("str", lambda v: isinstance(v, str)),
    float: ("finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    int: ("whole number", lambda v: type(v) is int or type(v) is float and v.is_integer()),
    dict: ("dict", lambda v: isinstance(v, dict)),
    list: ("list", lambda v: isinstance(v, list)),
}


def _field(mapping: dict, key: str, where: str, kind: type, default=REQUIRED):
    """Field `key` of `mapping` as a `kind`; `default` where it is missing
    (unless REQUIRED) and, for a default of None, where it is null."""
    if key not in mapping:
        if default is REQUIRED:
            raise ParseError(f"{where}: missing field {key!r}")
        return default
    value = mapping[key]
    if value is None and default is None:
        return None
    name, accepts = _KINDS[kind]
    try:
        if accepts(value):
            return kind(value)
    except OverflowError:  # a JSON integer beyond any float
        pass
    raise ParseError(f"{where}: field {key!r} is not a {name}: {value!r}")


def _section(mapping: dict, key: str, where: str, item: type = dict, required=False) -> list:
    """Field `key` of `mapping`, a list of `item`s; [] where missing unless `required`."""
    value = _field(mapping, key, where, list, REQUIRED if required else [])
    if not all(_KINDS[item][1](v) for v in value):
        raise ParseError(f"{where}: field {key!r} is not a list of {item.__name__}: {value!r}")
    return [item(v) for v in value]


def _read(cls: type, entry: dict, where: str):
    """The `cls` record that JSON object `entry` holds, read by its table."""
    return cls(**{attr: _field(entry, key, where, kind, default)
                  for key, attr, kind, default in RECORDS[cls]})


def _records(mapping: dict, key: str, where: str, cls: type) -> tuple:
    """The `cls` records in section `key` of `mapping`, each `key[i]` in messages."""
    return tuple(_read(cls, entry, f"{where}: {key}[{i}]")
                 for i, entry in enumerate(_section(mapping, key, where)))


def _written(record) -> dict:
    """`record` as its JSON object, written by its table."""
    return {key: getattr(record, attr) for key, attr, _, _ in RECORDS[type(record)]}


def _csv_rows(path: str | Path, columns: tuple):
    """Each nonblank data row of the CSV file at `path`: its line number and
    the values of `columns`, each read as its kind, every float finite."""
    with open(path, newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, [])
            names = [name for name, _ in columns]
            if not set(names).issubset(header):
                raise ParseError(f"{path}: expected columns {sorted(names)}")
            at = [(header.index(name), kind) for name, kind in columns]
            for row in filter(None, reader):
                if len(row) < len(header):
                    raise ParseError(f"{path}:{reader.line_num}: row has {len(row)} of "
                                     f"{len(header)} columns")
                try:
                    values = [kind(row[i]) for i, kind in at]
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
                for (name, kind), value in zip(columns, values):
                    if kind is float and not math.isfinite(value):
                        raise ParseError(f"{path}:{reader.line_num}: {name} {value} is not finite")
                yield reader.line_num, values
        except UnicodeDecodeError as exc:  # a file that is not text
            raise ParseError(f"{path}: {exc}") from None


def write_csv(path: str | Path, header, rows) -> None:
    """A CSV file at `path`: the column names `header`, then `rows`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_scenarios_csv(path: str | Path, vre_ids: set[str], buses: set[str]):
    probs: dict[str, float] = {}
    realized: dict[str, tuple[dict, dict]] = {}  # scenario: (VRE output, load)
    hours: set[int] = set()
    for lineno, (sid, prob, hour, ent, value) in _csv_rows(path, SCENARIO_COLUMNS):
        if abs(probs.setdefault(sid, prob) - prob) > 1e-12:
            raise ParseError(f"{path}:{lineno}: scenario {sid!r} probability changed")
        if ent not in vre_ids and ent not in buses:
            raise ParseError(f"{path}:{lineno}: entity {ent!r} is neither a VRE unit nor a bus")
        hours.add(hour)
        realized.setdefault(sid, ({}, {}))[ent not in vre_ids][(ent, hour)] = value
    if not probs:
        raise ParseError(f"{path}: no scenarios")
    return tuple(Scenario(sid, prob, *realized[sid]) for sid, prob in probs.items()), hours


def load_instance(network_path: str | Path, scenarios_path: str | Path) -> Instance:
    """Parse and validate an instance; fails fast on any violation.

    `network_path` holds network, units, system parameters, and day-ahead
    load in one JSON document. A non-finite number fails where it is read, by
    its JSON key or CSV line; `validated`'s other violations name both files.
    """
    where = str(network_path)
    try:
        with open(network_path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not text, a number too long, nesting too deep
        raise ParseError(f"{where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: the document is not a JSON object: {doc!r:.40}")
    net_doc = _field(doc, "network", where, dict)
    network = Network(tuple(_section(net_doc, "buses", where, str, required=True)),
                      _records(net_doc, "lines", where, Line),
                      _field(net_doc, "slack_bus", where, str))
    units = _records(doc, "conventional_units", where, ConventionalUnit)
    vre_units = _records(doc, "vre_units", where, VreUnit)
    system = _read(SystemParams, _field(doc, "system", where, dict), f"{where}: system")
    da_load = {(d.bus, d.hour): d.load for d in _records(doc, "da_load", where, DaLoad)}
    scenarios, csv_hours = _parse_scenarios_csv(
        scenarios_path, {v.id for v in vre_units}, set(network.buses)
    )
    hours = tuple(sorted(set(_section(doc, "hours", where, int)) | csv_hours))
    instance = Instance(network, units, vre_units, ScenarioSet(hours, da_load, scenarios),
                        system)
    try:
        return validated(instance)
    except ValueError as exc:
        raise ParseError(f"{network_path} and {scenarios_path}: {exc}") from None


def save_instance(instance: Instance, json_path: str | Path, csv_path: str | Path) -> None:
    """Write an instance back to its two-file form (round-trip inverse)."""
    network = instance.network
    doc = {
        "network": {
            "buses": list(network.buses),
            "lines": [_written(line) for line in network.lines],
            "slack_bus": network.slack_bus,
        },
        "conventional_units": [_written(u) for u in instance.units],
        "vre_units": [_written(v) for v in instance.vre_units],
        "system": _written(instance.system),
        "hours": list(instance.hours),
        "da_load": [_written(DaLoad(n, t, v))
                    for (n, t), v in sorted(instance.scenario_set.da_load.items())],
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    write_csv(csv_path, [name for name, _ in SCENARIO_COLUMNS], (
        [s.id, s.probability, t, entity, v]
        for s in instance.scenario_set.scenarios
        for realized in (s.vre_real, s.rt_load)
        for (entity, t), v in sorted(realized.items())
    ))


def load_bids(path: str | Path) -> list[BidCurve]:
    """Read bid curves from CSV (`BID_COLUMNS`); each curve's `segment`
    column must read 0..n-1, once each."""
    rows: dict[tuple[str, int], list[tuple[int, float, float]]] = {}
    for _, (k, t, segment, price, qty) in _csv_rows(path, BID_COLUMNS):
        rows.setdefault((k, t), []).append((segment, price, qty))
    bids = []
    for (k, t), segs in sorted(rows.items()):
        segs.sort()
        numbers = [s for s, _, _ in segs]
        if numbers != list(range(len(segs))):
            raise ParseError(f"{path}: curve ({k},{t}) has segments {numbers}, "
                             f"not 0..{len(segs) - 1} once each")
        bids.append(BidCurve(k, t, tuple((p, q) for _, p, q in segs)))
    return bids


def save_bids(bids, path: str | Path) -> None:
    write_csv(path, [name for name, _ in BID_COLUMNS], (
        [b.owner, b.hour, s, price, qty]
        for b in sorted(bids, key=lambda b: (b.owner, b.hour))
        for s, (price, qty) in enumerate(b.segments)
    ))


def bundled_instance(name: str) -> Instance:
    """Load one of the packaged example systems: t1, sys3, or sys5."""
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled instance {name!r}; have {BUNDLED}")
    data = resources.files("market_coord") / "data"
    return load_instance(data / f"{name}.json", data / f"{name}_scenarios.csv")
