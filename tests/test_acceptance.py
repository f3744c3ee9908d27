"""Acceptance gate: every release criterion, one verdict line per criterion.

Each test records its verdict in conftest.ACCEPTANCE_RESULTS (echoed in the
terminal summary) and then asserts it, so a red criterion is both a failing
test and a visible FAIL line.
"""
import time

import numpy as np
import pytest

from market_coord import dam
from market_coord.bilevel import (
    collapse_to_single_segment,
    oracle_grid_search,
    price_sweep,
    solve_bid,
    verify_theorem1,
)
from market_coord.lp import LpStatus, solve
from market_coord.policies import (
    compare,
    evaluate_bids,
    myopic,
    stochastic,
)
from conftest import ACCEPTANCE_RESULTS, random_bid_set, single_scenario

CHAIN_TOL = 1e-6  # relative, criteria 1 and 8
ORACLE_TOL = 1e-6  # relative, criterion 2
THEOREM_TOL = 0.005  # relative, criteria 3 and 4
CERT_FEAS = 1e-6
CERT_GAP = 1e-6
CERT_COMP = 1e-5

SIX_SEGMENT = (0.0, 2.0, 22.0, 30.0, 32.0, 350.0)
ZERO_SEGMENT_VECTORS = [(0.0,), (0.0, 5.0), (0.0, 10.0, 30.0), SIX_SEGMENT]


@pytest.fixture(scope="module", autouse=True)
def certificate_audit():
    """The certificates of every optimal solve in this module, as (model
    name, certificates): every market LP is solved through `dam.solve`."""
    log = []

    def audited(model, **options):
        sol = solve(model, **options)
        if sol.status is LpStatus.OPTIMAL:
            log.append((model.name, sol.certificates))
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dam, "solve", audited)
        yield log


def record(num: int, desc: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((num, desc, ok, detail))
    assert ok, f"criterion {num} failed: {desc} ({detail})"


def test_criterion_1_benchmark_chain(bundled):
    start = time.perf_counter()
    worst = 0.0
    for inst in bundled.values():
        table = compare(inst, (0.0,))
        worst = max(worst, table.chain_violation)
    elapsed = time.perf_counter() - start
    ok = worst <= CHAIN_TOL and elapsed < 10.0
    record(1, "S_MyD >= S_BiD >= S_StD on every bundled instance", ok,
           f"worst violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_match(t1):
    start = time.perf_counter()
    sol = solve_bid(t1, (0.0,))
    _, oracle_s = oracle_grid_search(t1, (0.0,), 1.0)
    myd_s = myopic(t1).s_total
    elapsed = time.perf_counter() - start
    gap = abs(sol.s_bid - oracle_s) / max(1.0, abs(oracle_s))
    ok = (gap <= ORACLE_TOL
          and oracle_s == pytest.approx(1100.0)
          and myd_s == pytest.approx(1250.0)
          and elapsed < 5.0)
    record(2, "optimized quantity matches the 1 MW grid oracle on T1", ok,
           f"S_BiD {sol.s_bid:.4f} vs oracle {oracle_s:.4f}, "
           f"S_MyD {myd_s:.1f}, {elapsed:.1f}s")


def test_criterion_3_multi_segment_equals_quantity_only(bundled):
    worst = 0.0
    for name, inst in bundled.items():
        for prices in ZERO_SEGMENT_VECTORS:
            report = verify_theorem1(inst, prices)
            assert report.has_zero_segment
            worst = max(worst, report.relative_gap)
    ok = worst <= THEOREM_TOL
    record(3, "multi-segment and quantity-only costs agree within 0.5%", ok,
           f"worst gap {worst:.2e} over {len(ZERO_SEGMENT_VECTORS)} price vectors "
           f"x {len(bundled)} instances")


def test_criterion_4_single_segment_collapse(bundled):
    worst = 0.0
    for inst in bundled.values():
        sol = solve_bid(inst, SIX_SEGMENT)
        collapsed = collapse_to_single_segment(sol.policy_result.da)
        score = evaluate_bids(inst, collapsed).s_total
        worst = max(worst, abs(score - sol.s_bid) / max(1.0, abs(sol.s_bid)))
    ok = worst <= THEOREM_TOL
    record(4, "collapsed single-segment curves score within 0.5%", ok,
           f"worst gap {worst:.2e}")


def test_criterion_5_degenerate_uncertainty(t1):
    certain = single_scenario(t1, {("w1", 0): 30.0}, {("b1", 0): 80.0})
    myd = myopic(certain)
    bid = solve_bid(certain, (0.0,))
    std = stochastic(certain)
    costs = [myd.s_total, bid.s_bid, std.s_total]
    spread = (max(costs) - min(costs)) / max(1.0, max(map(abs, costs)))
    ok = spread <= CHAIN_TOL and abs(myd.expected_rt) <= 1e-6
    record(5, "certain single scenario collapses all policies to one cost", ok,
           f"spread {spread:.2e}, E[f_RT] {myd.expected_rt:.2e}")


def test_criterion_6_price_sweep_shape(sys3):
    points = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0]
    table = price_sweep(sys3, points)
    s_bid = [row["s_bid_usd"] for row in table.rows]
    tol = 1e-6 * max(1.0, max(s_bid))
    nondecreasing = all(b >= a - tol for a, b in zip(s_bid, s_bid[1:]))
    flat_low = abs(s_bid[1] - s_bid[0]) <= tol and abs(s_bid[2] - s_bid[0]) <= tol
    zero_wind = [row for row in table.rows if row["da_wind_bid_mw"] <= 1e-6]
    coincide = bool(zero_wind) and all(
        abs(row["s_bid_usd"] - row["s_myd_usd"])
        <= 1e-6 * max(1.0, abs(row["s_myd_usd"]))
        for row in zero_wind
    )
    ok = nondecreasing and flat_low and coincide
    record(6, "sweep cost is non-decreasing, flat at low prices, then merges", ok,
           f"nondecreasing={nondecreasing} flat_low={flat_low} "
           f"coincide_above_threshold={coincide} ({len(zero_wind)} zero-wind points)")


def test_criterion_8_random_bids_never_beat_stochastic(bundled):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for inst in bundled.values():
        floor = stochastic(inst).s_total
        scale = max(1.0, abs(floor))
        for _ in range(100):
            bids = random_bid_set(inst, rng, seg_count=2)
            score = evaluate_bids(inst, bids).s_total
            worst = max(worst, (floor - score) / scale)
    ok = worst <= CHAIN_TOL
    record(8, "100 random bid sets per instance score at least S_StD", ok,
           f"worst undercut {worst:.2e}")


def test_criterion_7_lp_certificates(certificate_audit):
    # runs last: audits every solve the earlier criteria performed
    log = certificate_audit
    assert log, "no solves were recorded"
    worst_feas = max(c.primal_residual for _, c in log)
    worst_gap = max(c.duality_gap for _, c in log)
    worst_comp = max(c.complementarity for _, c in log)
    ok = worst_feas <= CERT_FEAS and worst_gap <= CERT_GAP and worst_comp <= CERT_COMP
    record(7, "all optimal solves certify feasibility, gap, complementarity", ok,
           f"{len(log)} solves: feas {worst_feas:.1e}, gap {worst_gap:.1e}, "
           f"comp {worst_comp:.1e}")
