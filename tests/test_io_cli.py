"""File formats, round trips, and the command-line interface."""
import csv
import json
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
