"""Command-line entry points.

Exit codes: 0 success, 2 a market LP without an optimum, an LP that HiGHS
fails on or whose optimum it cannot certify (`lp.SolverError`), or a usage
error click reports (an unknown option, a value that is not a number), 3
failed assertion (benchmark chain or theorem check), 4 bad input (a missing,
unreadable or malformed instance, bid file or bid set, an --output that is a
file, or a bad option value such as a price list, sweep range, grid step or
scenario id).
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NoReturn

import click

from . import bilevel, io as mio, policies
from .dam import BidSetError, DamInfeasibleError, check_prices, clear_dam
from .lp import SolverError
from .model import Instance
from .rtm import clear_rtm

EXIT_INFEASIBLE = 2
EXIT_ASSERTION = 3
EXIT_BAD_INPUT = 4
SWEEP_MAX_POINTS = 10**5  # price points sweep-price scores at most, one solve_bid each


def _load(instance: str, scenarios: str | None) -> Instance:
    if instance in mio.BUNDLED and scenarios is None:
        return mio.bundled_instance(instance)
    if scenarios is None:
        path = Path(instance)
        scenarios = str(path.with_name(path.stem + "_scenarios.csv"))
    return mio.load_instance(instance, scenarios)


def _parse_prices(obj, text: str) -> tuple[float, ...]:
    """The segment prices of a `--prices` list, checked by the curve price
    rules (the bid price cap included); bad input unless they parse and pass."""
    try:
        return check_prices(obj["instance"], [float(p) for p in text.split(",")])
    except ValueError as exc:  # BidSetError is a ValueError
        _bad_input(f"--prices {text!r}: {exc}")


def _bad_input(problem: Exception | str) -> NoReturn:
    click.echo(f"bad input: {problem}", err=True)
    sys.exit(EXIT_BAD_INPUT)


def _emit(ctx_obj, payload: dict, human: str) -> None:
    if ctx_obj["json"]:
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(human)


def _output(obj, name: str) -> Path:
    """The path of output file `name` in `--output`, which is made if missing."""
    path = Path(obj["output"]) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


class _Main(click.Group):
    """Ends every command with exit 4 on a file it cannot read, write or
    parse or a malformed bid set, and with exit 2 on a market LP without an
    optimum or an LP that HiGHS fails on or cannot certify."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (mio.ParseError, OSError, BidSetError) as exc:
            _bad_input(exc)
        except DamInfeasibleError as exc:
            click.echo(f"infeasible: {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)
        except SolverError as exc:
            click.echo(f"solver failure: {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)


@click.group(cls=_Main)
@click.option("--instance", "-i", required=True,
              help="Instance JSON path or a bundled name (t1, sys3, sys5).")
@click.option("--scenarios", "-s", default=None,
              help="Scenario CSV path (default: <instance>_scenarios.csv).")
@click.option("--output", "-o", default=".", show_default=True,
              help="Directory for CSV outputs.")
@click.option("--json", "json_out", is_flag=True, help="Machine-readable stdout.")
@click.pass_context
def main(ctx, instance, scenarios, output, json_out):
    """Two-settlement market clearing and VRE bid-curve optimization."""
    ctx.ensure_object(dict)
    ctx.obj["instance"] = _load(instance, scenarios)
    ctx.obj["output"] = output
    ctx.obj["json"] = json_out


@main.command("clear-da")
@click.option("--bids", "bids_path", default=None,
              help="Bid CSV; defaults to the myopic zero-price bids.")
@click.option("--da-slack", is_flag=True,
              help="Add VoLL-priced load shedding to the day-ahead model.")
@click.pass_obj
def clear_da_cmd(obj, bids_path, da_slack):
    """Clear the day-ahead market and report schedules and LMPs."""
    inst = obj["instance"]
    bids = mio.load_bids(bids_path) if bids_path else policies.myopic_bids(inst)
    da, lmps = clear_dam(inst, bids, da_slack=da_slack)
    mio.write_csv(_output(obj, "da_schedule.csv"),
                  ["unit_id", "hour", "p_mw", "commitment", "startup_usd"],
                  [[i, t, da.p_conventional[(i, t)], da.commitment[(i, t)],
                    da.startup_cost[(i, t)]]
                   for (i, t) in sorted(da.p_conventional)])
    mio.write_csv(_output(obj, "da_lmp.csv"), ["bus", "hour", "lmp_usd_per_mwh"],
                  [[n, t, lmps[(n, t)]] for (n, t) in sorted(lmps)])
    _emit(obj, {"f_da_bid_usd": da.f_da_bid, "f_da_true_usd": da.f_da_true},
          f"DAM cleared: f_DA(bid)=${da.f_da_bid:.2f}, f_DA(true)=${da.f_da_true:.2f}")


@main.command("clear-rt")
@click.option("--scenario", required=True, help="Scenario id to re-dispatch.")
@click.option("--bids", "bids_path", default=None)
@click.pass_obj
def clear_rt_cmd(obj, scenario, bids_path):
    """Clear one real-time scenario against the day-ahead schedule."""
    inst = obj["instance"]
    if scenario not in [s.id for s in inst.scenario_set.scenarios]:
        _bad_input(f"unknown scenario {scenario!r}")
    bids = mio.load_bids(bids_path) if bids_path else policies.myopic_bids(inst)
    da, _ = clear_dam(inst, bids)
    disp = clear_rtm(inst, da, scenario)
    mio.write_csv(_output(obj, f"rt_{scenario}.csv"),
                  ["unit_id", "hour", "r_up_mw", "r_down_mw"],
                  [[i, t, disp.r_up[(i, t)], disp.r_down[(i, t)]]
                   for (i, t) in sorted(disp.r_up)])
    _emit(obj, {"scenario": scenario, "f_rt_usd": disp.f_rt},
          f"RTM {scenario}: f_RT=${disp.f_rt:.2f}")


@main.command("evaluate")
@click.option("--bids", "bids_path", required=True, help="Bid curve CSV.")
@click.pass_obj
def evaluate_cmd(obj, bids_path):
    """Score a bid-curve file through the sequential markets."""
    inst = obj["instance"]
    result = policies.evaluate_bids(inst, mio.load_bids(bids_path))
    _emit(obj, {"s_usd": result.s_total, "f_da_true_usd": result.f_da_true,
                "expected_rt_usd": result.expected_rt},
          f"S=${result.s_total:.2f} (DA ${result.f_da_true:.2f} "
          f"+ E[RT] ${result.expected_rt:.2f})")


@main.command("myd")
@click.pass_obj
def myd_cmd(obj):
    """Myopic policy: expected-forecast quantity at zero price."""
    result = policies.myopic(obj["instance"])
    mio.save_bids(result.bids, _output(obj, "myd_bids.csv"))
    _emit(obj, {"s_myd_usd": result.s_total},
          f"S_MyD=${result.s_total:.2f}")


@main.command("std")
@click.pass_obj
def std_cmd(obj):
    """Stochastic co-optimization benchmark (not market-compatible)."""
    result = policies.stochastic(obj["instance"])
    _emit(obj, {"s_std_usd": result.s_total},
          f"S_StD=${result.s_total:.2f}")


@main.command("optimize-bid")
@click.option("--prices", default="0", show_default=True,
              help="Comma-separated segment prices, $/MWh: nondecreasing, in [0, bid price cap].")
@click.pass_obj
def optimize_bid_cmd(obj, prices):
    """Optimize bid quantities for fixed segment prices (relaxed bilevel)."""
    inst = obj["instance"]
    sol = bilevel.solve_bid(inst, _parse_prices(obj, prices))
    path = _output(obj, "optimized_bids.csv")
    mio.save_bids(sol.bids, path)
    _emit(obj, {"s_bid_usd": sol.s_bid, "relaxed_objective_usd": sol.relaxed_objective,
                "mccormick_gap_usd": sol.mccormick_gap,
                "complementarity_residual": sol.complementarity_residual,
                "bids_csv": str(path)},
          f"S_BiD=${sol.s_bid:.2f} (relaxed ${sol.relaxed_objective:.2f}, "
          f"gap ${sol.mccormick_gap:.4f}); bids written to {path}")


@main.command("sweep-price")
@click.option("--from", "start", type=float, required=True)
@click.option("--to", "stop", type=float, required=True)
@click.option("--step", type=float, required=True)
@click.pass_obj
def sweep_price_cmd(obj, start, stop, step):
    """Single-segment price sweep comparing BiD and MyD outcomes."""
    for name, value in (("--from", start), ("--to", stop), ("--step", step)):
        if not math.isfinite(value):
            _bad_input(f"{name} must be finite, got {value}")
    if step <= 0:
        _bad_input("--step must be > 0")
    # counted first, in floats, as a subnormal step makes the count inf
    intervals = (stop - start + 1e-9) / step
    if intervals >= SWEEP_MAX_POINTS:
        _bad_input(f"--step {step} gives about {intervals:,.0f} points from {start} to {stop}, "
                   f"above the limit of {SWEEP_MAX_POINTS:,}")
    points = [round(start + i * step, 9) for i in range(math.floor(intervals) + 1)]
    if not points:
        _bad_input(f"--from {start} is above --to {stop}: the sweep is empty")
    table = bilevel.price_sweep(obj["instance"], points)
    path = _output(obj, "price_sweep.csv")
    path.write_text(table.to_csv())
    _emit(obj, {"points": len(points), "sweep_csv": str(path)},
          f"swept {len(points)} prices; table written to {path}")


@main.command("verify-theorem1")
@click.option("--prices", default="0,2,22,30,32,350", show_default=True)
@click.pass_obj
def verify_theorem1_cmd(obj, prices):
    """Compare multi-segment and quantity-only optimized costs."""
    report = bilevel.verify_theorem1(obj["instance"], _parse_prices(obj, prices))
    payload = {
        "s_bid_usd": report.s_bid,
        "s_bid_q_usd": report.s_bid_q,
        "relative_gap": report.relative_gap,
        "asserted": report.has_zero_segment,
        "passed": report.passed,
    }
    _emit(obj, payload,
          f"S_BiD=${report.s_bid:.2f} S_BiD-q=${report.s_bid_q:.2f} "
          f"gap={report.relative_gap:.3e} "
          + ("PASS" if report.passed else
             "informational" if report.passed is None else "FAIL"))
    if report.passed is False:
        sys.exit(EXIT_ASSERTION)


@main.command("oracle")
@click.option("--step", type=float, required=True, help="Quantity grid step, MW.")
@click.option("--prices", default="0", show_default=True)
@click.pass_obj
def oracle_cmd(obj, step, prices):
    """Brute-force quantity grid search (tiny instances only)."""
    try:
        bids, best = bilevel.oracle_grid_search(obj["instance"], _parse_prices(obj, prices), step)
    except ValueError as exc:  # a grid step of 0 or below, too many dimensions or points
        _bad_input(exc)
    path = _output(obj, "oracle_bids.csv")
    mio.save_bids(bids, path)
    _emit(obj, {"s_oracle_usd": best, "bids_csv": str(path)},
          f"oracle minimum S=${best:.2f}; bids written to {path}")


@main.command("compare")
@click.option("--prices", default="0", show_default=True)
@click.pass_obj
def compare_cmd(obj, prices):
    """Run MyD, BiD, StD and check the cost dominance chain."""
    table = policies.compare(obj["instance"], _parse_prices(obj, prices))
    path = _output(obj, "comparison.csv")
    path.write_text(table.to_csv())
    if obj["json"]:
        click.echo(table.to_json())
    else:
        click.echo(table.to_csv().rstrip())
        click.echo(
            "chain S_MyD >= S_BiD >= S_StD: "
            + ("holds" if table.chain_ok else
               f"VIOLATED (relative {table.chain_violation:.3e})")
        )
    if not table.chain_ok:
        sys.exit(EXIT_ASSERTION)


if __name__ == "__main__":
    main()
