"""HiGHS's inputs pinned without solving.

Each model below is reduced to one sha256 over what `lp.solve` hands HiGHS:
the objective, the column bounds, each row's HiGHS row and the row bounds
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
    highs_row, A, _rhs, (row_lower, row_upper), m = _highs_form(model)
    parts = [
        np.array(model.obj, dtype=float), np.array(model.lb, dtype=float),
        np.array(model.ub, dtype=float), highs_row.astype(np.int64),
        np.array([m], dtype=np.int64), row_lower.astype(float), row_upper.astype(float),
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


# recorded with the named-row builders (`lp.Row`, `lp.split_rows`), before
# both market blocks were built from index arrays
DIGESTS = {
    "t1/dam_myopic": "812224952f888127a6a93ded388352d0c13210383cf0bf7ba43e98d3715d5af6",
    "t1/dam_3seg": "24b172c4e6feff349e184fbeb8c3051192719393d8511f614a50ce0c9f16c3d4",
    "t1/dam_slack": "3433c30e4007011b5a1d693fdc0b9f892ab7ee3e39b8ebccbd51522e51bee106",
    "t1/relaxed_1": "d6319c15458ce529baba5c6a2309a9a882714ca2c9960402b33c4d268eee8a2f",
    "t1/relaxed_3": "9fb9200c71ba84202d0281379458ebd48b0edea789489bd9c0663affed59f687",
    "t1/stochastic": "1e32cdd98ef24d951573f7fd81331c7ec2fde68702082c55a48d95fdcf37541e",
    "t1/real_time": "cdec772fa0c9c2fddf43b184a2290b87bc323eb359dedb72d379cdf447827fe3",
    "sys3/dam_myopic": "a5862338e620e8aef38f9d6ca60cdbf54eb95489a2750e98dd2d4d65d7951b72",
    "sys3/dam_3seg": "74d1732c2ddc09c42d2323bf84860011a340c48566b2136a2f2ed3b8a85e6d9a",
    "sys3/dam_slack": "aec5916a609edda7af4851f7f19ac9485dd0d59c9c00ac31778e6427651fe907",
    "sys3/relaxed_1": "8cd21801d705ee07285f59bd7e26ce99c644ccaf80161fcc9657ed1a66de1660",
    "sys3/relaxed_3": "2c686b1cdbdefdf83374dedda69f6894974aab0a3d827a979896706a187093e5",
    "sys3/stochastic": "3797d19c050007b8aaf15a26e391509892b27d619238509f34a6f0b7c7733150",
    "sys3/real_time": "0ab603190e53dba4cec03a2c3db652334440954cf71790d957c57aba569c2bbb",
    "sys5/dam_myopic": "7d2748cd2457dbc9d0e6d20b7004371c7b5510e59f067f30031adf3f92a3e9d9",
    "sys5/dam_3seg": "1aca808b61dc519a43e309fe25b1899adbec26b5af03fd442a599df03bc074f8",
    "sys5/dam_slack": "6eb0294a09028712625305e848d3a37baea5a500d5781b4c78975c33abdd63c0",
    "sys5/relaxed_1": "e9854f0939d7abacf118da7fcd5a6e660ab30457b3884173aba5192bf34831f2",
    "sys5/relaxed_3": "ae0266edc46f1192800f363df65dce16b375288dde49e10eb9da4e8805ce960c",
    "sys5/stochastic": "918e34b8b6f84ddc8cc82318fc30b7c5148eedd07c7aae7e587b9da91570e2eb",
    "sys5/real_time": "83ac424dcbdde91fcd828b453800338be8a54c4772885529c1e3f5c1b85dc247",
    "grid6/dam_myopic": "210815a8f4cc6fdd824ce25c152c06f35123100599fda4f6827fa1a716ff2e6d",
    "grid6/dam_3seg": "2b857097d8546bf3e28b04ab8cd20263a73172810909d891ab6f2421d1831ba2",
    "grid6/dam_slack": "39ce559541c4d3e684ade6ddf4d0f93054a3dad09bf38784c9e3535685ffa7b8",
    "grid6/relaxed_1": "2eeb68b469a7883bfc1b3548e88810ca79dfd231288186c89192dcf711c13796",
    "grid6/relaxed_3": "37052d3f079995b22428f34e8142503edf19cec47303882ae051a4c736b15f43",
    "grid6/stochastic": "d76d1dc9cf177a313674cb0b010cc5f0738d0d9cb4584c53fea0da0fdce211a5",
    "grid6/real_time": "350ee10f82a2d5afda2d555a91476b64c778053f8861640c97c8bf290933327d",
    "two_bus/dam_myopic": "51c39484f172c9468be4ca8e8f788c444291fb05c462f907d1d4f18d1453a272",
    "two_bus/dam_3seg": "f2a1a3a35173e5be89a51530bc10da80392a9822a5792d4b40a3a44314feff00",
    "two_bus/dam_slack": "941296cb537d7a2e6c47a5c7bf20f96db3bc1cef3ad491c58bf2eaf88da06006",
    "two_bus/relaxed_1": "0f2da693186adeb27b275431c110e29df69b994d963c412ec9750d5bc2defc36",
    "two_bus/relaxed_3": "5391cecfb57ab62adebefa9cbaa9fd11ba64d55f38eae2c0430c3b0575cfd845",
    "two_bus/stochastic": "794378d5d74c7559173b292d5c29260e8c5047ea4afccaa15f98fc57758a2e37",
    "two_bus/real_time": "1ec05604a1a2db2caec9ce73313787d594683d4dcfa4645b3bb313d1ce88d1d4",
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
