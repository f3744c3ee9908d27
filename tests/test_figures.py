"""Reproduced figures of the bundled systems, pinned at 1e-9 relative.

A change to how the LPs are stated (row order, bounds as rows or as column
bounds) may move HiGHS to another optimal vertex, but it must not move these
figures: each policy's S from `compare`, the T1 grid oracle and the sys3
price sweep's costs and day-ahead wind.

On all three systems S_BiD equals S_StD: `solve_bid` picks its quantities
on the relaxed bid LP's exact optimal face, and the T1 figure is the grid
oracle's 1100 too. Each BiD pin is therefore written as the StD value.
"""
import pytest

from market_coord.bilevel import oracle_grid_search, price_sweep
from market_coord.policies import compare
from conftest import rel_close

PINNED = 1e-9

S_STD = {"t1": 1100.0, "sys3": 3281.25, "sys5": 6322.833333333335}
COMPARE_S = {
    "t1": {"MyD": 1250.0, "BiD": S_STD["t1"], "StD": S_STD["t1"]},
    "sys3": {"MyD": 3290.625, "BiD": S_STD["sys3"], "StD": S_STD["sys3"]},
    "sys5": {"MyD": 6392.083333333336, "BiD": S_STD["sys5"], "StD": S_STD["sys5"]},
}

# price -> (s_bid_usd, s_myd_usd, da_wind_bid_mw, da_wind_myd_mw)
_LOW = (S_STD["sys3"], 3290.625, 65.0, 66.5)
_HIGH = (4187.5, 4187.5, 0.0, 0.0)
SYS3_SWEEP = {price: _LOW for price in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)}
SYS3_SWEEP.update({price: _HIGH for price in (30.0, 35.0, 40.0, 50.0)})
SWEEP_FIELDS = ("s_bid_usd", "s_myd_usd", "da_wind_bid_mw", "da_wind_myd_mw")


@pytest.mark.parametrize("name", ["t1", "sys3", "sys5"])
def test_compare_costs_are_pinned(bundled, name):
    table = compare(bundled[name])
    for policy, s in COMPARE_S[name].items():
        assert rel_close(table.cost(policy), s, PINNED), (policy, table.cost(policy), s)


def test_t1_oracle_is_pinned(t1):
    assert rel_close(oracle_grid_search(t1, (0.0,), 1.0)[1], 1100.0, PINNED)


def test_sys3_sweep_is_pinned(sys3):
    table = price_sweep(sys3, list(SYS3_SWEEP))
    for row in table.rows:
        expected = SYS3_SWEEP[row["price_usd_per_mwh"]]
        for field, value in zip(SWEEP_FIELDS, expected):
            assert rel_close(row[field], value, PINNED), (row["price_usd_per_mwh"], field)
