"""Correctness checks for benchmark results.

`recheck` recomputes a scored result from the instance data and the returned
schedule and dispatches alone, without calling the package's own builders:
DC balances from angles and susceptances, line limits, commitment, unit and
VRE bounds, start-up costs from the commitments, real-time balances with
curtailment and shedding, and the three cost terms.
The remaining helpers check properties the method guarantees (dominance of
the stochastic optimum, the paper's T1 figures, the price-sweep shape).
"""
from __future__ import annotations

REL = 1e-6  # relative tolerance for every recomputed value


class CheckFailed(AssertionError):
    """A result disagrees with the instance data or with a guaranteed property."""


def _scale(*values: float) -> float:
    return max(1.0, *(abs(v) for v in values))


def expect_close(what: str, recomputed: float, reported: float, scale: float = 0.0) -> None:
    """Equal within REL relative to the larger of the values and `scale`."""
    if abs(recomputed - reported) > REL * _scale(recomputed, reported, scale):
        raise CheckFailed(f"{what}: {recomputed!r} differs from {reported!r}")


def expect_within(what: str, value: float, lo: float, hi: float, scale: float) -> None:
    tol = REL * _scale(scale)
    if not (lo - tol <= value <= hi + tol):
        raise CheckFailed(f"{what}: {value!r} outside [{lo!r}, {hi!r}]")


def expect_at_most(what: str, low: float, high: float) -> None:
    """low <= high up to REL relative to the larger magnitude."""
    if low > high + REL * _scale(low, high):
        raise CheckFailed(f"{what}: {low!r} exceeds {high!r}")


def _outflows(instance, angle) -> dict:
    """Net DC flow leaving each (bus, hour), and every line flow."""
    out = {key: 0.0 for key in angle}
    flows = []
    for ln in instance.network.lines:
        b = 1.0 / ln.reactance
        for t in instance.hours:
            f = b * (angle[(ln.from_bus, t)] - angle[(ln.to_bus, t)])
            out[(ln.from_bus, t)] += f
            out[(ln.to_bus, t)] -= f
            flows.append((ln, t, f))
    return out, flows


def _check_network(stage: str, instance, angle, injection, load) -> None:
    """Balance: injection - net outflow = load at every bus/hour; flows in limits."""
    out, flows = _outflows(instance, angle)
    for key, inj in injection.items():
        expect_close(f"{stage} balance at {key}", inj - out[key], load.get(key, 0.0),
                     scale=abs(inj) + abs(out[key]))
    for ln, t, f in flows:
        expect_within(f"{stage} flow {ln.from_bus}-{ln.to_bus} at {t}", f,
                      -ln.capacity, ln.capacity, ln.capacity)


def recheck(instance, result, bids, reported_total: float | None = None) -> None:
    """Recompute a sequential DAM -> RTM result from the instance data.

    `result` is a PolicyResult carrying the day-ahead schedule and one
    re-dispatch per scenario; `bids` are the curves it was cleared with.
    """
    da = result.da
    hours = instance.hours
    buses = instance.network.buses
    quantity = {(b.owner, b.hour, s): q
                for b in bids for s, (_p, q) in enumerate(b.segments)}

    # day-ahead: commitment and unit bounds, start-up costs from the
    # commitments, VRE segments within their bid quantity, balance
    injection = {(n, t): 0.0 for n in buses for t in hours}
    f_da = 0.0
    for g in instance.units:
        u_prev = g.u_init
        for t in hours:
            p, u = da.p_conventional[(g.id, t)], da.commitment[(g.id, t)]
            expect_within(f"DA commitment {g.id} at {t}", u, 0.0, 1.0, 1.0)
            expect_within(f"DA output {g.id} at {t}", p, u * g.p_min, u * g.p_max, g.p_max)
            startup = max(0.0, g.startup_cost * (u - u_prev))
            expect_close(f"DA start-up cost {g.id} at {t}", startup,
                         da.startup_cost[(g.id, t)], scale=g.startup_cost)
            injection[(g.bus, t)] += p
            f_da += g.variable_cost * p + g.no_load_cost * u + startup
            u_prev = u
    vre_bus = {k.id: k.bus for k in instance.vre_units}
    for (k, t, s), p in da.p_vre.items():
        q = quantity[(k, t, s)]
        expect_within(f"DA VRE {k} segment {s} at {t}", p, 0.0, q, q)
        injection[(vre_bus[k], t)] += p
    _check_network("DA", instance, da.angle, injection,
                   instance.scenario_set.da_load)
    expect_close("f_DA_true", f_da, da.f_da_true)
    expect_close("result f_DA_true", f_da, result.f_da_true)

    # real time: one re-dispatch per scenario against the fixed schedule
    dispatch = {d.scenario_id: d for d in result.rt_dispatches}
    if len(dispatch) != len(instance.scenario_set.scenarios):
        raise CheckFailed("result does not hold one re-dispatch per scenario")
    voll = instance.system.voll
    e_rt = 0.0
    for scen in instance.scenario_set.scenarios:
        d = dispatch[scen.id]
        injection = {(n, t): 0.0 for n in buses for t in hours}
        f_rt = 0.0
        magnitude = 0.0
        for g in instance.units:
            u_prev = g.u_init
            for t in hours:
                up, down = d.r_up[(g.id, t)], d.r_down[(g.id, t)]
                u_da, u_rt = da.commitment[(g.id, t)], d.commitment[(g.id, t)]
                # slow units keep their day-ahead commitment, fast ones may add to it
                hi = u_da if g.start_class == "slow" else 1.0
                expect_within(f"RT commitment {g.id} at {t} in {scen.id}", u_rt, u_da, hi, 1.0)
                out = da.p_conventional[(g.id, t)] + up - down
                expect_within(f"RT output {g.id} at {t} in {scen.id}", out,
                              u_rt * g.p_min, u_rt * g.p_max, g.p_max)
                # the day-ahead start-up cost is credited against the real-time one
                startup = max(0.0, g.startup_cost * (u_rt - u_prev) - da.startup_cost[(g.id, t)])
                expect_close(f"RT start-up cost {g.id} at {t} in {scen.id}", startup,
                             d.startup_cost[(g.id, t)], scale=g.startup_cost)
                injection[(g.bus, t)] += out
                terms = (g.up_redispatch_cost * up, -g.down_redispatch_cost * down,
                         g.no_load_cost * (u_rt - u_da), startup)
                u_prev = u_rt
                f_rt += sum(terms)
                magnitude += sum(abs(x) for x in terms)
        for k in instance.vre_units:
            for t in hours:
                avail = scen.vre_real.get((k.id, t), 0.0)
                curt = d.curtailment[(k.id, t)]
                expect_within(f"curtailment {k.id} at {t} in {scen.id}", curt, 0.0, avail, avail)
                injection[(k.bus, t)] += avail - curt
        for n in buses:
            for t in hours:
                shed = d.shed[(n, t)]
                load = scen.rt_load.get((n, t), 0.0)
                expect_within(f"shedding at {n},{t} in {scen.id}", shed, 0.0, load, load)
                injection[(n, t)] += shed
                f_rt += voll * shed
                magnitude += voll * abs(shed)
        _check_network(f"RT {scen.id}", instance, d.angle, injection, scen.rt_load)
        expect_close(f"f_RT in {scen.id}", f_rt, d.f_rt, scale=magnitude)
        e_rt += scen.probability * f_rt
    expect_close("E[f_RT]", e_rt, result.expected_rt)
    expect_close("S", f_da + e_rt, result.s_total)
    if reported_total is not None:
        expect_close("reported S", f_da + e_rt, reported_total)


def check_sweep_shape(s_bid: list[float]) -> None:
    """Non-decreasing in the price, flat over the three lowest price points."""
    tol = REL * _scale(*s_bid)
    for i, (a, b) in enumerate(zip(s_bid, s_bid[1:])):
        if b < a - tol:
            raise CheckFailed(f"sweep cost decreases at point {i + 1}: {a!r} -> {b!r}")
    if abs(s_bid[1] - s_bid[0]) > tol or abs(s_bid[2] - s_bid[0]) > tol:
        raise CheckFailed(f"sweep cost not flat at low prices: {s_bid[:3]!r}")
