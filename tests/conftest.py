"""Shared fixtures: bundled systems and small handmade variants."""
import dataclasses

import numpy as np
import pytest
from scipy import sparse

from market_coord import io as mio
from market_coord.model import (
    BidCurve,
    Instance,
    Line,
    Network,
    Scenario,
    ScenarioSet,
)

REL = 1e-6  # relative comparison tolerance used throughout the suite

# Populated by test_acceptance.py; echoed as one line per criterion at the end
# of the run so the gate's verdicts are visible in plain pytest output.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {num}: {desc} ({detail})")


def matrix(model) -> sparse.csr_matrix:
    """All of `model`'s constraint coefficients, one row per constraint."""
    return sparse.csr_matrix(
        (np.array(model._val), (np.array(model._row), np.array(model._col))),
        shape=(model.n_cons, model.n_vars),
    )


def rel_close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="session")
def t1() -> Instance:
    return mio.bundled_instance("t1")


@pytest.fixture(scope="session")
def sys3() -> Instance:
    return mio.bundled_instance("sys3")


@pytest.fixture(scope="session")
def sys5() -> Instance:
    return mio.bundled_instance("sys5")


@pytest.fixture(scope="session")
def bundled(t1, sys3, sys5) -> dict[str, Instance]:
    return {"t1": t1, "sys3": sys3, "sys5": sys5}


def single_scenario(instance: Instance, vre_real, rt_load,
                    hours=None) -> Instance:
    """Replace the scenario set with one certain scenario."""
    ss = instance.scenario_set
    return dataclasses.replace(
        instance,
        scenario_set=ScenarioSet(
            hours=hours or ss.hours,
            da_load=ss.da_load,
            scenarios=(Scenario("only", 1.0, dict(vre_real), dict(rt_load)),),
        ),
    )


@pytest.fixture()
def t1_perfect(t1) -> Instance:
    """T1 with one scenario equal to the expected forecast (30 MW wind)."""
    return single_scenario(t1, {("w1", 0): 30.0}, {("b1", 0): 80.0})


@pytest.fixture()
def two_bus(t1) -> Instance:
    """T1 split across a 20 MW line: generation at b1, the 80 MW load at b2."""
    net = Network(buses=("b1", "b2"), lines=(Line("b1", "b2", 0.1, 20.0),),
                  slack_bus="b1")
    split = dataclasses.replace(t1, network=net)
    return dataclasses.replace(
        split,
        scenario_set=ScenarioSet(
            hours=(0,),
            da_load={("b2", 0): 80.0},
            scenarios=(Scenario("only", 1.0, {("w1", 0): 0.0},
                                {("b2", 0): 80.0}),),
        ),
    )


def zero_bid(instance: Instance) -> list[BidCurve]:
    """Single zero-price segment with zero quantity per (unit, hour)."""
    return [
        BidCurve(owner=k.id, hour=t, segments=((0.0, 0.0),))
        for k in instance.vre_units
        for t in instance.hours
    ]


def random_bid_set(instance: Instance, rng: np.random.Generator,
                   seg_count: int = 1) -> list[BidCurve]:
    """Sample a feasible bid-curve set: nondecreasing prices up to the bid
    price cap, quantities summing to at most installed capacity. Used by
    dominance property tests."""
    max_price = instance.system.bid_price_cap
    bids = []
    for k in instance.vre_units:
        for t in instance.hours:
            prices = np.sort(rng.uniform(0.0, max_price, size=seg_count))
            qtys = rng.uniform(0.0, k.capacity, size=seg_count)
            total = qtys.sum()
            if total > k.capacity:
                qtys *= rng.uniform(0.0, 1.0) * k.capacity / total
            bids.append(BidCurve(owner=k.id, hour=t,
                                 segments=tuple(zip(prices.tolist(), qtys.tolist()))))
    return bids
