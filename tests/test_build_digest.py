"""HiGHS's inputs pinned without solving.

Each model below is reduced to one sha256 over what `lp.solve` hands HiGHS:
the objective, the column bounds, the row bounds in model order
(`lp._highs_form`), the column-wise matrix (`Colwise` `start`, `index` and
`value`) and the column and row names. A digest moves only when some input
moves by a bit, a signed zero included. A change that alters an LP by design
records that LP's digest again and says why; run this file as a script to
print the current digests.
"""
import dataclasses
import hashlib
import types
from pathlib import Path

import numpy as np
import pytest

from market_coord import io as mio
from market_coord.bilevel import build_relaxed_bid
from market_coord.dam import build_dam, dam_structure
from market_coord.lp import LpModel, _highs_form
from market_coord.model import BidCurve, Line, Network, Scenario, ScenarioSet
from market_coord.policies import myopic_bids
from market_coord.rtm import append_scenarios, rtm_structure


def _synth() -> types.ModuleType:
    """perfbench/synth.py, read and run in memory, so that nothing is written
    beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"
    module = types.ModuleType("synth")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _two_bus():
    """t1 over two buses joined by two parallel lines in opposite directions,
    with the load at the bus without generation."""
    t1 = mio.bundled_instance("t1")
    net = Network(buses=("b1", "b2"),
                  lines=(Line("b1", "b2", 0.1, 20.0), Line("b2", "b1", 0.25, 15.0)),
                  slack_bus="b1")
    return dataclasses.replace(t1, network=net, scenario_set=ScenarioSet(
        hours=(0,),
        da_load={("b2", 0): 80.0},
        scenarios=(Scenario("lo", 0.4, {("w1", 0): 10.0}, {("b2", 0): 78.0}),
                   Scenario("hi", 0.6, {("w1", 0): 45.0}, {("b2", 0): 83.0})),
    ))


INSTANCES = {
    "t1": lambda: mio.bundled_instance("t1"),
    "sys3": lambda: mio.bundled_instance("sys3"),
    "sys5": lambda: mio.bundled_instance("sys5"),
    "grid6": lambda: _synth().generate(0, 2, 6, 8, 2, 2),
    "two_bus": _two_bus,
}


def _three_segments(instance):
    return [BidCurve(k.id, t, ((0.0, 0.1 * k.capacity), (15.0, 0.2 * k.capacity),
                               (35.0, 0.3 * k.capacity)))
            for k in instance.vre_units for t in instance.hours]


def _stochastic(instance) -> LpModel:
    block = dam_structure(instance, 1)
    model = LpModel(name="std")
    block.append_to(model, block.capacity)
    append_scenarios(instance, model, 0)
    return model


def _real_time(instance) -> LpModel:
    block = rtm_structure(instance, instance.scenario_set.scenarios[0])
    model = LpModel(name="rtm")
    block.append_to(model, np.linspace(0.0, 1.0, len(block.d_cols)))
    return model


MODELS = {
    "dam_myopic": lambda inst: build_dam(inst, myopic_bids(inst))[0],
    "dam_3seg": lambda inst: build_dam(inst, _three_segments(inst))[0],
    "dam_slack": lambda inst: build_dam(inst, myopic_bids(inst), da_slack=True)[0],
    "relaxed_1": lambda inst: build_relaxed_bid(inst, (0.0,))[0],
    "relaxed_3": lambda inst: build_relaxed_bid(inst, (0.0, 15.0, 35.0))[0],
    "stochastic": _stochastic,
    "real_time": _real_time,
}


def digest(model: LpModel) -> str:
    """sha256 of every HiGHS input of `model` and its names."""
    A, _sense, (row_lower, row_upper) = _highs_form(model)
    parts = [
        np.array(model.obj, dtype=float), np.array(model.lb, dtype=float),
        np.array(model.ub, dtype=float), row_lower.astype(float), row_upper.astype(float),
        A.start.astype(np.int32), A.index.astype(np.int32), A.value.astype(float),
    ]
    sha = hashlib.sha256()
    for part in parts:
        sha.update(np.array([part.size], dtype=np.int64).tobytes())
        sha.update(np.ascontiguousarray(part).tobytes())
    for names in (model.var_names, model.con_names):
        sha.update("\n".join(names).encode() + b"\0")
    return sha.hexdigest()


def current() -> dict[str, str]:
    out = {}
    for inst_name, make in INSTANCES.items():
        instance = make()
        for model_name, build in MODELS.items():
            out[f"{inst_name}/{model_name}"] = digest(build(instance))
    return out


# recorded once HiGHS got every row in model order; each model's matrix,
# bounds, costs and names equal the ones before, up to row order
DIGESTS = {
    "t1/dam_myopic": "a45678d462e759c91ea84a81dbaf352af1c5f0186ab34cce2a00599e1dec37e6",
    "t1/dam_3seg": "fc8c51cb36123d01b61d8e94229b8dadb2cd9ccd3fd18e45330ad3eccf011c76",
    "t1/dam_slack": "d6a5a8968fab2c4f6a9aa27712290de8400b450c2b6a852d65da3fdebb45eaff",
    "t1/relaxed_1": "3da44438f8fc5c2790977df5b71710560ee245fdd673cf75850eae8151db337f",
    "t1/relaxed_3": "90f0ef1148536ca966104cf73134e15a66a5eb8779def62a4153cc069b6e4467",
    "t1/stochastic": "d720787e194db55bb705970c9b57f20d97b0ddf56759de1b7f52e8887ef94a4f",
    "t1/real_time": "fa301acce789bb982d51075b871cc17839229f3c1bc2d9a522740c809177f8ed",
    "sys3/dam_myopic": "9157d4e0d46287d6feeb6f2bb4a6e9c95ab1efaf1990df1c140aa77cab447aae",
    "sys3/dam_3seg": "3769655b5449bedd143ecbb5e16ed4d888f8fdda3818cc214e2920e8bb5d89af",
    "sys3/dam_slack": "581bed187ea31bcb5a37477336699089c57224279c9123845748e36a87bfec6b",
    "sys3/relaxed_1": "1cde9ff6863b3a0e8e4b53a9cca072362e53359b4fff0f2c877c3109eb3347bd",
    "sys3/relaxed_3": "8ab5234bd28ad1728dd3ad88653d3a87c2f49b48b296d301c40a652252d8e5f6",
    "sys3/stochastic": "739ee48834931b8837b81853161496a50a3d8cc0f3143bb329b05ca9c79271a6",
    "sys3/real_time": "86a09e45eebd73c6e0f46a6f1223ffdb7d7d07a2715fc02c42bc2b78807ff990",
    "sys5/dam_myopic": "916c429d4fdd940348bbae77edade71d0abe5295fbe6e331e80484109cbe7229",
    "sys5/dam_3seg": "b7cf85055cb7d12f0fcff071f2899e0c12834de4c7a3ee3879b01d2097538a64",
    "sys5/dam_slack": "aecf6e427a433087fa67684c5030f1c7e98117016a7dbf25b613b6f9e824c989",
    "sys5/relaxed_1": "27a244ed0f3c5a3f96e3da888e81f2713764808ccc98fd9220ada5d9273efbd5",
    "sys5/relaxed_3": "f0e0c90500fd22ff4325e349a2bc378268818970f34b01233600b64e1bd10789",
    "sys5/stochastic": "03c91a20c5aafb14d05caac1c6acb06e58c1eede363ce7ca53abef30e9736ed5",
    "sys5/real_time": "9f4519cb2cd0afa3d4081f0b0a1fd6863d8114677b2bf8e04a40d20c0d2daea6",
    "grid6/dam_myopic": "ed18ef07c09dc713a8cd357f64597285690be3298023e4bbdba76c710a27bf75",
    "grid6/dam_3seg": "5ed58c01c567291b1fd81ef33e3e907cf1aa7dd905ec1bfc131a7bad7c188260",
    "grid6/dam_slack": "547db31e481fe1bb013ecf0bc81093ebdb14c7b565b7365124378d2dae5d4dcf",
    "grid6/relaxed_1": "6b09f2a87b0dc0284626c53cc8e3a7f6d1d5cbf291ed6d7605b219fcfac3fbb5",
    "grid6/relaxed_3": "ba682e03d64a6e4670c2db8382583b2477b62f009aa478d69def045b2e44faad",
    "grid6/stochastic": "0af276a1e93c40d7fa8b95f71bcc9ffb28cee7441691f011e201ba0656e87741",
    "grid6/real_time": "8f3e5f6e8b8685f8bf8609175ef47ca9b586248769fba5470c8d346e302c4b1c",
    "two_bus/dam_myopic": "7f429fb3d5b81fd634284cd1b0d26692d8602f3d81c89ec038aa19f482a971f9",
    "two_bus/dam_3seg": "1a061485ec33a7d2d989e7fbec317493fcb42d061d15deff564e347707741d21",
    "two_bus/dam_slack": "33b9114c2a58e41a8778c1e6025541eb8d7a0a30040c251d90d6b6777f283eff",
    "two_bus/relaxed_1": "5ba8394de97831e14943490a5ca5167edf07997f15689a2055b37ea451fda7ca",
    "two_bus/relaxed_3": "da2d870fe68a186830c6938c72b61d913ccb7b9598fdc2d16a7a82711f45f2c0",
    "two_bus/stochastic": "3923ede575f1f806738e409f829239560a436c3b87ba3c629521a309a0aef4d4",
    "two_bus/real_time": "ea44638a19d937ea99769af72bbfa0bab690792d806187065024c346a23ba426",
}


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return current()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_highs_inputs_unchanged(digests, key):
    assert digests[key] == DIGESTS[key]


def test_every_model_pinned(digests):
    assert sorted(digests) == sorted(DIGESTS)


@pytest.mark.parametrize("inst_name", INSTANCES)
def test_names_are_unique(inst_name):
    # a diagnosis names a row or column, so each name must be one row's or
    # one column's
    instance = INSTANCES[inst_name]()
    for model_name, build in MODELS.items():
        model = build(instance)
        for names in (model.var_names, model.con_names):
            assert len(set(names)) == len(names), model_name


if __name__ == "__main__":
    for key, value in current().items():
        print(f'    "{key}": "{value}",')
