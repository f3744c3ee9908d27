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
so no row bounds a single variable.
The block is built from index arrays (`lp.Block.of`): each column and row
sits at a position computed from its (unit, hour), (bus, hour), (line,
hour) or (VRE, hour, segment), in the layout `grid` and `grid_names` share,
and no name is looked up. `network_rows` writes the balance and line rows
from the network's line arrays, and `unit_rows` the five unit row kinds from
per-unit arrays; the real-time template calls both with its own columns.
The block owns the bid layout, one key (unit, hour, segment) per segment:
`_check_bids` maps curves to key-ordered prices and quantities, and
`DamStructure.bid_curves` maps them back. Both markets declare VoLL shedding
as a column kind of their block: the real-time template per (bus, hour), and
the block `build_dam(..., da_slack=True)` clears per loaded (bus, hour).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lp import EQ, GE, LE, Block, LpModel, LpStatus
from .lp import diagnose_infeasibility, solve
from .model import BidCurve, Instance, cached, price_errors, validate_bid_curve, validated

__all__ = [
    "DamStructure",
    "DaSchedule",
    "DamInfeasibleError",
    "BidSetError",
    "dam_structure",
    "check_prices",
    "build_dam",
    "clear_dam",
    "network_rows",
    "unit_rows",
]


class DamInfeasibleError(RuntimeError):
    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class BidSetError(ValueError):
    """Malformed bid set: a curve that breaks its invariants, an unknown owner
    or hour, a missing curve, or inconsistent segment counts."""


UNIT_VARS = ("pC", "uDA", "cDA")  # a unit's day-ahead columns at each hour
# a unit's rows at each hour, with their senses
UNIT_ROWS = {"p_ub": LE, "p_lb": GE, "su": GE, "ramp_up": LE, "ramp_dn": GE}


def grid_names(names, ids, hours) -> list[str]:
    """`v[i,t]` for each of `ids`, each hour and each `v` of `names`, the
    last fastest: the names of `grid`'s columns or rows."""
    return [f"{v}[{i},{t}]" for i in ids for t in hours for v in names]


def grid(first: int, ids: int, hours: int, per: int = 1) -> np.ndarray:
    """The indices, laid out from `first` as `grid_names` names them, of
    `per` columns at each (id, hour); one (id, hour) array per column."""
    return first + np.arange(ids * hours * per).reshape(ids, hours, per).transpose(2, 0, 1)


def per_hour(ids: int, hours: int, *values) -> np.ndarray:
    """Each of `values`, one for every id or one for all, at each hour, in
    `grid`'s layout."""
    table = np.stack([np.broadcast_to(np.asarray(v, dtype=float), ids) for v in values], axis=-1)
    return np.broadcast_to(table[:, None, :], (ids, hours, len(values))).ravel()


def attrs(items, name: str) -> np.ndarray:
    """The attribute `name` of each of `items`."""
    return np.array([getattr(item, name) for item in items], dtype=float)


def bus_index(instance: Instance, items) -> np.ndarray:
    """The bus of each of `items` (units or VRE units), as an index into the buses."""
    at = {bus: i for i, bus in enumerate(instance.network.buses)}
    return np.array([at[item.bus] for item in items], dtype=np.int64)


def angle_bounds(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The bounds of each bus's angle: free, but the slack bus's, the
    reference, is fixed at 0."""
    slack = np.array([n == instance.network.slack_bus for n in instance.network.buses])
    return np.where(slack, 0.0, -math.inf), np.where(slack, 0.0, math.inf)


def network_rows(instance: Instance, market: str, angle: np.ndarray, injection,
                 load: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The DC network rows of one market and the balance row of each (bus, hour).

    Each hour has one balance row per bus, then both limits of each line.
    A balance row holds the terms `injection`, each (bus, columns,
    coefficient) with one column per bus-hour, less the net outflow through
    the B-theta terms on the `angle` columns (bus, hour), and `load` as its
    rhs.
    """
    net, hours = instance.network, instance.hours
    fr, to, b = net.incidence
    n_bus, n_line = len(net.buses), len(net.lines)
    first = (n_bus + 2 * n_line) * np.arange(len(hours))  # each hour's first row
    # a line's flow leaves its from-bus and enters its to-bus; each (bus,
    # bus) coefficient is summed from 0.0 line by line
    row_bus = np.stack([fr, fr, to, to], 1).ravel()
    col_bus = np.stack([fr, to, fr, to], 1).ravel()
    pair, at = np.unique(row_bus * n_bus + col_bus, return_inverse=True)
    b_theta = np.zeros(pair.size)
    np.add.at(b_theta, at, np.stack([-b, b, b, -b], 1).ravel())
    flow = first + n_bus + 2 * np.arange(n_line)[:, None]
    terms = [(first + bus[:, None], cols, coeff) for bus, cols, coeff in injection]
    terms += [(first + (pair // n_bus)[:, None], angle[pair % n_bus], b_theta[:, None])]
    terms += [(flow + side, angle[end], sign * b[:, None])
              for side in (0, 1) for end, sign in ((fr, 1.0), (to, -1.0))]
    rhs = np.empty((len(hours), n_bus + 2 * n_line))
    rhs[:, :n_bus] = load.T
    caps = attrs(net.lines, "capacity")
    rhs[:, n_bus::2], rhs[:, n_bus + 1::2] = caps, -caps
    lines = [f"{ln.from_bus},{ln.to_bus}" for ln in net.lines]
    names = [name for t in hours for name in (
        [f"{market}_bal[{n},{t}]" for n in net.buses]
        + [f"{market}_flow_{side}[{ln},{t}]" for ln in lines for side in ("ub", "lb")])]
    senses = ([EQ] * n_bus + [LE, GE] * n_line) * len(hours)
    return (names, senses, rhs.ravel(), terms), first + np.arange(n_bus)[:, None]


def unit_rows(instance: Instance, market: str, output, commit: np.ndarray, startup) -> tuple:
    """Each conventional unit's p_max/p_min, start-up and ramp rows in one
    market, (unit, hour) by (unit, hour), the first hour's from `p_init` and
    `u_init`.

    `output` and `startup` are the terms of the unit's output and start-up
    cost, each (columns, coefficient) with one column per unit-hour, and
    `commit` its commitment columns.
    """
    units, hours = instance.units, instance.hours
    p_max, p_min, su_cost, ramp_up, ramp_dn, u_init, p_init = (attrs(units, a)[:, None] for a in (
        "p_max", "p_min", "startup_cost", "ramp_up", "ramp_down", "u_init", "p_init"))
    later = np.arange(len(hours)) > 0

    def before(cols: np.ndarray, coeff) -> tuple:
        """`coeff` on the previous hour's `cols`, but none at the first hour."""
        return np.roll(cols, 1, axis=1), np.where(later, coeff, 0.0)

    delta = [*output, *(before(cols, -coeff) for cols, coeff in output)]
    terms = [
        [*output, (commit, -p_max)],
        [*output, (commit, -p_min)],
        [*startup, (commit, -su_cost), before(commit, su_cost)],
        [*delta, (commit, -ramp_up)],
        [*delta, before(commit, ramp_dn)],
    ]
    rhs = np.zeros((len(units), len(hours), len(UNIT_ROWS)))  # 0.0 after the first hour
    rhs[:, :1, 2:] = np.stack([-su_cost * u_init, p_init, p_init - ramp_dn * u_init], axis=-1)
    row = len(UNIT_ROWS) * np.arange(commit.size).reshape(commit.shape)
    names = grid_names([f"{market}_{kind}" for kind in UNIT_ROWS], [g.id for g in units], hours)
    return (names, [*UNIT_ROWS.values()] * commit.size, rhs.ravel(),
            [(row + k, cols, coeff) for k, kind in enumerate(terms) for cols, coeff in kind])


@dataclass(frozen=True)
class DamStructure(Block):
    """Bid-independent block of the day-ahead LP for one segment count.

    Its coupled columns are the bid quantities `W[k,t,s]`, one per key; its
    own end with the shedding columns, if it has any.
    """

    seg_count: int  # segments per curve
    keys: list[tuple[str, int, int]]  # (k, t, s) of each bid segment, curve by curve
    curves: list[tuple[str, int]]  # (k, t) of each bid curve
    curve_of: np.ndarray  # curve of each key
    curve_capacity: np.ndarray  # VRE capacity of each curve
    cap_rows: np.ndarray  # cap row of each key

    @property
    def capacity(self) -> np.ndarray:
        """VRE capacity of each key, its curve's."""
        return self.curve_capacity[self.curve_of]

    @property
    def pw_cols(self) -> np.ndarray:
        """Column of pW at each key, where the bid price goes."""
        return self.outputs["p_vre"][1]

    def key_prices(self, prices: tuple[float, ...]) -> np.ndarray:
        """Each key's price when every curve bids the segment prices `prices`."""
        return np.array([prices[s] for _k, _t, s in self.keys], dtype=float)

    def priced(self, prices: np.ndarray) -> np.ndarray:
        """A copy of the costs with each key's price, `prices` in key order."""
        cost = self.cost.copy()
        cost[self.pw_cols] = prices
        return cost

    def true_cost(self, x: np.ndarray) -> float:
        """f_DA(true) of the primal `x`, whose leading columns are the block's."""
        return sum((self.cost * x[:len(self.cols)]).tolist())

    def bid_curves(self, prices, quantities) -> list[BidCurve]:
        """The curves of key-ordered `prices` and `quantities`, each quantity
        clipped at zero and each curve scaled down to its unit's capacity."""
        prices, quantities = np.asarray(prices).tolist(), np.asarray(quantities).tolist()
        n, bids = self.seg_count, []
        for c, ((k, t), cap) in enumerate(zip(self.curves, self.curve_capacity.tolist())):
            at = slice(c * n, (c + 1) * n)
            qs = [max(0.0, q) for q in quantities[at]]
            total = sum(qs)
            if total > 0 and total > cap:
                qs = [q * cap / total for q in qs]
            bids.append(BidCurve(owner=k, hour=t, segments=tuple(zip(prices[at], qs))))
        return bids


def dam_structure(instance: Instance, seg_count: int) -> DamStructure:
    """The instance's day-ahead block for `seg_count` segments per curve.

    Built on first use and stored on the instance; it holds no bid prices.
    """
    return cached(instance, f"_dam_block[{seg_count}]", lambda: _build_block(instance, seg_count))


def _build_block(instance: Instance, seg_count: int, shed: bool = False) -> DamStructure:
    """The day-ahead block, with a VoLL-priced `lshDA` column per loaded (bus, hour) if `shed`."""
    validated(instance)
    units, vres, buses, hours = (instance.units, instance.vre_units, instance.network.buses,
                                 instance.hours)
    n_unit, n_vre, n_bus, n_hour = len(units), len(vres), len(buses), len(hours)
    curves = [(k.id, t) for k in vres for t in hours]
    keys = [(k, t, s) for k, t in curves for s in range(seg_count)]
    pc, u, c = grid(0, n_unit, n_hour, len(UNIT_VARS))
    n_unit_cols = len(UNIT_VARS) * pc.size
    pw = n_unit_cols + np.arange(len(keys)).reshape(n_vre, n_hour, seg_count)
    (theta,) = grid(n_unit_cols + pw.size, n_bus, n_hour)
    load = np.array([[instance.scenario_set.da_load.get((n, t), 0.0) for t in hours]
                     for n in buses]).reshape(n_bus, n_hour)
    loaded = (load > 0) & shed  # with a shedding column each, in (bus, hour) order
    first = n_unit_cols + pw.size + theta.size
    lsh = first - 1 + np.cumsum(loaded).reshape(load.shape)  # the column, where loaded
    w = first + np.count_nonzero(loaded) + np.arange(len(keys))  # coupled, after the own

    injection = [(bus_index(instance, units), pc, 1.0),
                 (np.repeat(bus_index(instance, vres), seg_count),
                  pw.transpose(0, 2, 1).reshape(-1, n_hour), 1.0),
                 (np.arange(n_bus), lsh, 1.0 * loaded)]  # zero, and so dropped, if unloaded
    network, bal = network_rows(instance, "da", theta, injection, load)
    cap = np.arange(len(keys))
    pw_cap = ([f"da_pw_cap[{k},{t},{s}]" for k, t, s in keys], [LE] * len(keys), 0.0,
              [(cap, pw.ravel(), 1.0), (cap, w, -1.0)])
    per_unit = unit_rows(instance, "da", [(pc, 1.0)], u, [(c, 1.0)])

    unit_keys = [(g.id, t) for g in units for t in hours]
    bus_keys = [(n, t) for n in buses for t in hours]
    shed_keys = [key for key, on in zip(bus_keys, loaded.ravel()) if on]
    return DamStructure.of(
        columns=[
            (grid_names(UNIT_VARS, [g.id for g in units], hours),
             per_hour(n_unit, n_hour, attrs(units, "variable_cost"),
                      attrs(units, "no_load_cost"), 1.0),
             per_hour(n_unit, n_hour, -math.inf, 0.0, 0.0),
             per_hour(n_unit, n_hour, math.inf, 1.0, math.inf)),
            ([f"pW[{k},{t},{s}]" for k, t, s in keys], 0.0, 0.0, math.inf),
            (grid_names(("thDA",), buses, hours), 0.0,
             *(per_hour(n_bus, n_hour, bound) for bound in angle_bounds(instance))),
            ([f"lshDA[{n},{t}]" for n, t in shed_keys], instance.system.voll, 0.0,
             load[loaded]),
        ],
        d_cols=[f"W[{k},{t},{s}]" for k, t, s in keys], d_cost=np.zeros(len(keys)),
        sections=[network, pw_cap, per_unit],
        bus_keys=bus_keys, bal_rows=bal.ravel(),
        outputs={
            "p_conventional": (unit_keys, pc.ravel()),
            "commitment": (unit_keys, u.ravel()),
            "startup_cost": (unit_keys, c.ravel()),
            "p_vre": (keys, pw.ravel()),
            "angle": (bus_keys, theta.ravel()),
            "shed": (shed_keys, lsh[loaded]),
        },
        seg_count=seg_count,
        keys=keys,
        curves=curves,
        curve_of=np.repeat(np.arange(len(curves)), seg_count),
        curve_capacity=np.repeat(attrs(vres, "capacity"), n_hour),
        cap_rows=len(network[0]) + cap,
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


def check_prices(instance: Instance, prices) -> tuple[float, ...]:
    """`prices` as floats; BidSetError unless they follow the curve price rules."""
    prices = tuple(float(p) for p in prices)
    errors = price_errors(prices, instance.system.bid_price_cap)
    if errors:
        raise BidSetError(f"bid prices {prices}: " + "; ".join(errors))
    return prices


def _check_bids(instance: Instance, bids) -> tuple[DamStructure, np.ndarray, np.ndarray]:
    """Valid curves, exactly one per (VRE, hour), uniform segment count;
    returns the block of their segment count and their prices and
    quantities in its key order."""
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
    block = dam_structure(instance, seg_counts.pop() if seg_counts else 1)
    for k, t in block.curves:
        if (k, t) not in table:
            raise BidSetError(f"missing bid curve for ({k}, {t})")
    segments = [seg for curve in block.curves for seg in table[curve].segments]
    prices, qtys = np.array(segments, dtype=float).reshape(-1, 2).T
    return block, prices, qtys


def build_dam(instance: Instance, bids, da_slack: bool = False) -> tuple[LpModel, DamStructure]:
    """Instantiate the day-ahead LP for a concrete set of bid curves.

    `da_slack` clears it on a block, built for the call, with a VoLL-priced
    shedding column per loaded bus/hour, for exploratory runs; the market
    formulation itself has none.
    """
    block, prices, qtys = _check_bids(instance, bids)
    if da_slack:  # the same bid layout, with the shedding columns
        block = _build_block(instance, block.seg_count, shed=True)
    model = LpModel(name="dam")
    block.append_to(model, qtys, cost=block.priced(prices))
    return model, block


def clear_dam(instance: Instance, bids,
              da_slack: bool = False) -> tuple[DaSchedule, dict[tuple[str, int], float]]:
    """Solve the day-ahead market and return the schedule and the LMP of
    each (bus, hour)."""
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
    schedule = DaSchedule(**block.read(sol.primal), f_da_bid=sol.objective,
                          f_da_true=block.true_cost(sol.primal))
    return schedule, block.balance_duals(sol.duals)
