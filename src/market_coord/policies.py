"""Dispatch policies and their comparison.

`evaluate_bids` is the ground-truth scorer: clear the day-ahead market with
the given curves, then re-dispatch every scenario, and sum the true DAM cost
with the expected re-dispatch cost. Myopic (expected-forecast, zero-price)
and stochastic (joint DAM+RTM co-optimization) policies both reduce to it or
to a single LP.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .dam import DaSchedule, clear_dam, dam_structure, solved
from .lp import LpModel
from .model import BidCurve, Instance, expected_vre, validated
from .rtm import RtDispatch, append_scenarios, expected_rt_cost

__all__ = [
    "PolicyResult",
    "ComparisonTable",
    "evaluate_bids",
    "myopic",
    "myopic_bids",
    "stochastic",
    "compare",
]

CHAIN_TOL = 1e-6  # relative tolerance on the MyD >= BiD >= StD chain


@dataclass
class PolicyResult:
    policy: str  # MyD | StD | BiD | BiD-q | custom
    s_total: float  # expected total system cost, $
    f_da_true: float
    expected_rt: float
    bids: tuple[BidCurve, ...] = ()
    da: DaSchedule | None = None
    da_duals: dict[tuple[str, int], float] | None = None  # the day-ahead LMPs
    rt_dispatches: list[RtDispatch] = field(default_factory=list)


def evaluate_bids(instance: Instance, bids, policy: str = "custom") -> PolicyResult:
    """Score a bid-curve set through the sequential DAM -> RTM pipeline."""
    bids = tuple(bids)  # read twice: by the clearing and into the result
    da, lmps = clear_dam(instance, bids)
    e_rt, dispatches = expected_rt_cost(instance, da)
    return PolicyResult(
        policy=policy,
        s_total=da.f_da_true + e_rt,
        f_da_true=da.f_da_true,
        expected_rt=e_rt,
        bids=bids,
        da=da,
        da_duals=lmps,
        rt_dispatches=dispatches,
    )


def myopic_bids(instance: Instance) -> list[BidCurve]:
    """Zero-price single-segment curves at the expected forecast, per unit."""
    ss = validated(instance).scenario_set
    return [
        BidCurve(owner=k.id, hour=t, segments=((0.0, expected_vre(ss, k.id, t)),))
        for k in instance.vre_units
        for t in instance.hours
    ]


def myopic(instance: Instance) -> PolicyResult:
    result = evaluate_bids(instance, myopic_bids(instance))
    result.policy = "MyD"
    return result


def stochastic(instance: Instance) -> PolicyResult:
    """Joint DAM + RTM co-optimization over all scenarios (one LP).

    The day-ahead VRE variable is a single implicit zero-price segment
    bounded by installed capacity; there is no bid curve.
    """
    block = dam_structure(instance, 1)
    model = LpModel(name="std")
    block.append_to(model, block.capacity)
    append_scenarios(instance, model, 0)
    sol = solved(model, "stochastic dispatch")
    f_da_true = block.true_cost(sol.primal)
    return PolicyResult(
        policy="StD",
        s_total=sol.objective,
        f_da_true=f_da_true,
        expected_rt=sol.objective - f_da_true,
    )


def csv_text(header: list[str], rows) -> str:
    """CSV text: `header`, then each of `rows` with every float at six decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


@dataclass
class ComparisonTable:
    """Side-by-side policy costs plus the dominance-chain check."""

    rows: list[tuple[str, float, float, float]]  # policy, f_DA_true, E[f_RT], S
    chain_ok: bool
    chain_violation: float  # worst relative violation, 0 when the chain holds

    def cost(self, policy: str) -> float:
        for name, _, _, s in self.rows:
            if name == policy:
                return s
        raise KeyError(policy)

    def to_csv(self) -> str:
        return csv_text(["policy", "f_DA_true[$]", "E[f_RT][$]", "S[$]"], self.rows)

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": [
                    {"policy": p, "f_da_true_usd": fda, "expected_rt_usd": ert, "s_usd": s}
                    for p, fda, ert, s in self.rows
                ],
                "chain_ok": self.chain_ok,
                "chain_violation": self.chain_violation,
            },
            indent=2,
        )


def compare(
    instance: Instance,
    bid_prices: tuple[float, ...] = (0.0,),
) -> ComparisonTable:
    """Run MyD, BiD (at the given segment prices), and StD, and check
    S_MyD >= S_BiD >= S_StD up to `CHAIN_TOL` relative."""
    from .bilevel import solve_bid  # late import: bilevel depends on this module

    myd = myopic(instance)
    bid = solve_bid(instance, bid_prices)
    std = stochastic(instance)
    rows = [
        ("MyD", myd.f_da_true, myd.expected_rt, myd.s_total),
        ("BiD", bid.policy_result.f_da_true, bid.policy_result.expected_rt, bid.s_bid),
        ("StD", std.f_da_true, std.expected_rt, std.s_total),
    ]
    scale = max(1.0, abs(std.s_total))
    violation = max(
        (bid.s_bid - myd.s_total) / scale,
        (std.s_total - bid.s_bid) / scale,
        0.0,
    )
    return ComparisonTable(rows=rows, chain_ok=violation <= CHAIN_TOL,
                           chain_violation=violation)
