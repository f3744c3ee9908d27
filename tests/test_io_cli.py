"""File formats, round trips, and the command-line interface."""
import csv
import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from market_coord import io as mio
from market_coord.cli import main
from market_coord.model import BidCurve

DATA = Path(__file__).resolve().parent.parent / "src" / "market_coord" / "data"


def test_bundled_names(t1):
    assert set(mio.BUNDLED) == {"t1", "sys3", "sys5"}
    with pytest.raises(KeyError):
        mio.bundled_instance("nope")


def test_instance_round_trip(tmp_path, sys5):
    json_path = tmp_path / "sys.json"
    csv_path = tmp_path / "sys_scenarios.csv"
    mio.save_instance(sys5, json_path, csv_path)
    again = mio.load_instance(json_path, csv_path)
    assert again == sys5


def test_unknown_entity_in_scenarios_named(tmp_path, t1):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "scenario_id,probability,hour,entity_id,value_mw\ns1,1.0,0,w9,5.0\n"
    )
    with pytest.raises(mio.ParseError) as err:
        mio.load_instance(DATA / "t1.json", bad)
    assert "w9" in str(err.value)


def test_empty_scenario_file_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("scenario_id,probability,hour,entity_id,value_mw\n")
    with pytest.raises(mio.ParseError) as err:
        mio.load_instance(DATA / "t1.json", empty)
    assert "no scenarios" in str(err.value)


def test_invalid_instance_fails_fast(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "scenario_id,probability,hour,entity_id,value_mw\n"
        "s1,0.6,0,w1,10.0\ns2,0.6,0,w1,20.0\n"
    )
    with pytest.raises(mio.ParseError) as err:
        mio.load_instance(DATA / "t1.json", bad)
    assert "validation failed" in str(err.value)


def test_bid_csv_round_trip(tmp_path):
    bids = [
        BidCurve(owner="w1", hour=0, segments=((0.0, 10.0), (2.0, 5.0))),
        BidCurve(owner="w1", hour=1, segments=((0.0, 7.0), (3.0, 0.0))),
    ]
    path = tmp_path / "bids.csv"
    mio.save_bids(bids, path)
    assert mio.load_bids(path) == bids
    header = path.read_text().splitlines()[0]
    assert "price_usd_per_mwh" in header and "quantity_mw" in header


def run_cli(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_cli_compare_t1(tmp_path):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "--json", "compare")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    costs = {r["policy"]: r["s_usd"] for r in doc["rows"]}
    assert costs["MyD"] == pytest.approx(1250.0)
    assert costs["BiD"] == pytest.approx(1100.0, rel=1e-6)
    assert costs["StD"] == pytest.approx(1100.0)
    assert (tmp_path / "comparison.csv").exists()


def test_cli_clear_da_writes_outputs(tmp_path):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "clear-da")
    assert result.exit_code == 0, result.output
    with open(tmp_path / "da_lmp.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["lmp_usd_per_mwh"]) == pytest.approx(20.0)
    assert "lmp_usd_per_mwh" in rows[0]


def test_cli_infeasible_da_exits_2(tmp_path):
    # double every day-ahead load on t1 so the single unit cannot serve it
    doc = json.loads((DATA / "t1.json").read_text())
    for entry in doc["da_load"]:
        entry["load_mw"] = 200.0
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(doc))
    scen = tmp_path / "big_scenarios.csv"
    scen.write_text((DATA / "t1_scenarios.csv").read_text())
    result = run_cli("-i", str(inst), "-o", str(tmp_path), "clear-da")
    assert result.exit_code == 2


def test_cli_clear_rt_scenario(tmp_path):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "--json",
                     "clear-rt", "--scenario", "s2")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["f_rt_usd"] == pytest.approx(800.0)


def test_cli_evaluate_bid_file(tmp_path):
    bids = tmp_path / "bids.csv"
    mio.save_bids([BidCurve("w1", 0, ((0.0, 10.0),))], bids)
    result = run_cli("-i", "t1", "--json", "evaluate", "--bids", str(bids))
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["s_usd"] == pytest.approx(1100.0)


def test_cli_evaluate_malformed_bid_file_exits_4(tmp_path):
    bids = tmp_path / "bids.csv"
    mio.save_bids([BidCurve("w1", 0, ((0.0, -5.0),))], bids)
    result = run_cli("-i", "t1", "evaluate", "--bids", str(bids))
    assert result.exit_code == 4
    assert "negative quantity" in result.output


@pytest.mark.parametrize("row", ["w1,0,0,0,nan", "w1,0,0,nan,10"])
def test_cli_evaluate_nonfinite_bid_exits_4(tmp_path, row):
    bids = tmp_path / "bids.csv"
    bids.write_text(f"vre_id,hour,segment,price_usd_per_mwh,quantity_mw\n{row}\n")
    result = run_cli("-i", "t1", "evaluate", "--bids", str(bids))
    assert result.exit_code == 4, result.output
    assert "non-finite price or quantity" in result.output


@pytest.mark.parametrize("width", ["0", "-2"])
def test_cli_thread_count_below_one_rejected(width):
    result = run_cli("-i", "t1", "--threads", width, "myd")
    assert result.exit_code == 2
    assert "--threads" in result.output


@pytest.mark.parametrize("width", ["-3", "two"])
@pytest.mark.parametrize("command", ["myd", "evaluate"])
def test_cli_malformed_thread_environment_is_bad_input(tmp_path, command, width):
    bids = tmp_path / "bids.csv"
    mio.save_bids([BidCurve("w1", 0, ((0.0, 10.0),))], bids)
    args = ["evaluate", "--bids", str(bids)] if command == "evaluate" else ["myd"]
    result = run_cli("-i", "t1", "-o", str(tmp_path), *args,
                     env={"MARKET_COORD_THREADS": width})
    assert result.exit_code == 4, result.output
    assert "bad input: MARKET_COORD_THREADS" in result.output


def test_cli_myd_and_std(tmp_path):
    myd = run_cli("-i", "t1", "-o", str(tmp_path), "--json", "myd")
    std = run_cli("-i", "t1", "--json", "std")
    assert json.loads(myd.output)["s_myd_usd"] == pytest.approx(1250.0)
    assert json.loads(std.output)["s_std_usd"] == pytest.approx(1100.0)
    assert (tmp_path / "myd_bids.csv").exists()
    fresh = tmp_path / "new" / "nested"
    again = run_cli("-i", "t1", "-o", str(fresh), "--json", "myd")
    assert again.exit_code == 0, again.output
    assert (fresh / "myd_bids.csv").exists()


def test_cli_optimize_bid_six_segments(tmp_path):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "optimize-bid",
                     "--prices", "0,2,22,30,32,350")
    assert result.exit_code == 0, result.output
    with open(tmp_path / "optimized_bids.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # one (unit, hour), six segments
    assert {r["segment"] for r in rows} == {str(s) for s in range(6)}


def test_cli_verify_theorem1_default_prices(tmp_path):
    result = run_cli("-i", "t1", "--json", "verify-theorem1")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["passed"] is True
    assert doc["relative_gap"] <= 0.005


def test_cli_oracle(tmp_path):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "--json",
                     "oracle", "--step", "5")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["s_oracle_usd"] == pytest.approx(1100.0)


def test_cli_sweep_price(tmp_path):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "sweep-price",
                     "--from", "0", "--to", "40", "--step", "20")
    assert result.exit_code == 0, result.output
    text = (tmp_path / "price_sweep.csv").read_text()
    assert text.splitlines()[0].startswith("price_usd_per_mwh")
    assert len(text.splitlines()) == 4  # header + 3 points


def test_cli_bad_price_list_rejected():
    result = run_cli("-i", "t1", "optimize-bid", "--prices", "0,abc")
    assert result.exit_code != 0


def test_cli_unknown_instance_errors():
    result = run_cli("-i", "missing.json", "myd")
    assert result.exit_code != 0


@pytest.mark.parametrize("args, message", [
    (["optimize-bid", "--prices", "abc"], "could not convert"),
    (["optimize-bid", "--prices", "5,3"], "nondecreasing"),
    (["optimize-bid", "--prices", "nan"], "finite"),
    (["verify-theorem1", "--prices", "-1,0"], "nonnegative"),
    (["sweep-price", "--from", "0", "--to", "10", "--step", "0"], "--step"),
    (["oracle", "--step", "0"], "grid step"),
    (["oracle", "--step", "10", "--prices", "0,1,2,3,4"], "exceeds the guard"),
    (["clear-rt", "--scenario", "nope"], "unknown scenario 'nope'"),
    (["-i", "missing.json", "myd"], "missing.json"),
])
def test_cli_bad_input_exits_4(tmp_path, args, message):
    instance = [] if args[0] == "-i" else ["-i", "t1"]
    result = run_cli(*instance, "-o", str(tmp_path), *args)
    assert result.exit_code == 4, result.output
    assert "bad input:" in result.output and message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("field, value",
                         [("voll_usd_per_mwh", "abc"), ("price_cap_usd_per_mwh", [])])
def test_cli_malformed_instance_value_is_bad_input(tmp_path, field, value):
    doc = json.loads((DATA / "t1.json").read_text())
    doc["system"][field] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    shutil.copy(DATA / "t1_scenarios.csv", tmp_path / "bad_scenarios.csv")
    result = run_cli("-i", str(tmp_path / "bad.json"), "-o", str(tmp_path), "myd")
    assert result.exit_code == 4, result.output
    assert "bad input:" in result.output


def t1_without_vre_output(tmp_path) -> Path:
    """T1's instance with its scenario CSV stripped of every w1 row."""
    shutil.copy(DATA / "t1.json", tmp_path / "bad.json")
    rows = (DATA / "t1_scenarios.csv").read_text().splitlines()
    (tmp_path / "bad_scenarios.csv").write_text(
        "\n".join(r for r in rows if ",w1," not in r) + "\n")
    return tmp_path / "bad.json"


def test_scenario_without_vre_output_fails_validation(tmp_path):
    path = t1_without_vre_output(tmp_path)
    with pytest.raises(mio.ParseError, match=r"scenario s1: no output for VRE \(unit, hour\) \[\('w1', 0\)\]"):
        mio.load_instance(path, tmp_path / "bad_scenarios.csv")


@pytest.mark.parametrize("command", [["myd"], ["compare"], ["clear-da"], ["clear-rt"],
                                     ["sweep-price", "--from", "0", "--to", "10"]])
def test_cli_scenario_without_vre_output_is_bad_input(tmp_path, command):
    path = t1_without_vre_output(tmp_path)
    result = run_cli("-i", str(path), "-o", str(tmp_path), *command)
    assert result.exit_code == 4, result.output
    assert "no output for VRE (unit, hour) [('w1', 0)]" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc["da_load"][0].pop("bus"), "'bus'"),
    (lambda doc: doc["system"].update(voll_usd_per_mwh="abc"), "'voll_usd_per_mwh'"),
    (lambda doc: doc["system"].update(voll_usd_per_mwh=[1000.0]), "'voll_usd_per_mwh'"),
], ids=["da-load-without-bus", "voll-not-a-number", "voll-a-list"])
def test_malformed_instance_value_names_file_and_field(tmp_path, edit, field):
    doc = json.loads((DATA / "t1.json").read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(mio.ParseError) as err:
        mio.load_instance(path, DATA / "t1_scenarios.csv")
    assert str(path) in str(err.value) and field in str(err.value)
