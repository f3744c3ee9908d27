"""File formats, round trips, and the command-line interface."""
import csv
import dataclasses
import json
import math
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from market_coord import bilevel, io as mio, policies
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


def test_cli_compare_t1(tmp_path, monkeypatch):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "--json", "compare")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    costs = {r["policy"]: r["s_usd"] for r in doc["rows"]}
    assert costs["MyD"] == pytest.approx(1250.0)
    assert costs["BiD"] == pytest.approx(1100.0, rel=1e-6)
    assert costs["StD"] == pytest.approx(1100.0)
    assert (tmp_path / "comparison.csv").exists()
    # without --json: the table as CSV, then the chain's verdict
    plain = run_cli("-i", "t1", "-o", str(tmp_path), "compare")
    assert plain.exit_code == 0, plain.output
    lines = plain.output.splitlines()
    assert lines[:-1] == (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[-1] == "chain S_MyD >= S_BiD >= S_StD: holds"
    # a violated chain is a failed assertion
    compare = policies.compare
    monkeypatch.setattr(policies, "compare", lambda *args: dataclasses.replace(
        compare(*args), chain_ok=False, chain_violation=0.25))
    violated = run_cli("-i", "t1", "-o", str(tmp_path), "compare")
    assert violated.exit_code == 3, violated.output
    assert violated.output.splitlines()[-1] == (
        "chain S_MyD >= S_BiD >= S_StD: VIOLATED (relative 2.500e-01)")


def test_cli_clear_da_writes_outputs(tmp_path):
    result = run_cli("-i", "t1", "-o", str(tmp_path), "clear-da")
    assert result.exit_code == 0, result.output
    with open(tmp_path / "da_lmp.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["lmp_usd_per_mwh"]) == pytest.approx(20.0)
    assert "lmp_usd_per_mwh" in rows[0]


def test_cli_clear_da_writes_no_signed_zero_lmp(tmp_path):
    # HiGHS reports -0.0 on sys5's balance rows at hour 0
    result = run_cli("-i", "sys5", "-o", str(tmp_path), "clear-da")
    assert result.exit_code == 0, result.output
    with open(tmp_path / "da_lmp.csv") as fh:
        lmps = [row["lmp_usd_per_mwh"] for row in csv.DictReader(fh)]
    assert "0.0" in lmps
    assert [v for v in lmps if v.startswith("-0")] == []


def test_cli_clear_da_schedule_has_no_signed_zero(tmp_path):
    # HiGHS reports -0.0 in some of sys5's day-ahead primal values
    result = run_cli("-i", "sys5", "-o", str(tmp_path), "clear-da")
    assert result.exit_code == 0, result.output
    with open(tmp_path / "da_schedule.csv") as fh:
        values = [v for row in csv.DictReader(fh) for k, v in row.items()
                  if k not in ("unit_id", "hour")]
    assert "0.0" in values
    assert [v for v in values if v.startswith("-0")] == []


@pytest.mark.parametrize("command", [
    ["clear-da"], ["myd"], ["std"], ["compare"], ["optimize-bid"], ["verify-theorem1"],
    ["sweep-price", "--from", "0", "--to", "10", "--step", "10"], ["oracle", "--step", "50"],
], ids=lambda command: command[0])
def test_cli_infeasible_da_exits_2(tmp_path, command):
    # double every day-ahead load on t1 so the single unit cannot serve it:
    # every market LP holds the day-ahead market
    doc = json.loads((DATA / "t1.json").read_text())
    for entry in doc["da_load"]:
        entry["load_mw"] = 200.0
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(doc))
    scen = tmp_path / "big_scenarios.csv"
    scen.write_text((DATA / "t1_scenarios.csv").read_text())
    result = run_cli("-i", str(inst), "-o", str(tmp_path), *command)
    assert result.exit_code == 2, result.output
    assert "infeasible: " in result.output


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
    column = "quantity_mw" if row.endswith("nan") else "price_usd_per_mwh"
    assert f"{bids}:2: {column} nan is not finite" in result.output


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


def test_cli_verify_theorem1_default_prices(tmp_path, monkeypatch):
    result = run_cli("-i", "t1", "--json", "verify-theorem1")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["passed"] is True
    assert doc["relative_gap"] <= 0.005
    # without a zero-price segment, equality is not asserted
    result = run_cli("-i", "t1", "verify-theorem1", "--prices", "5,10")
    assert result.exit_code == 0, result.output
    assert result.output.rstrip().endswith("informational")
    # a failed equality is a failed assertion
    monkeypatch.setattr(bilevel, "verify_theorem1", lambda *args: bilevel.TheoremReport(
        s_bid=1200.0, s_bid_q=1100.0, relative_gap=100.0 / 1100.0, has_zero_segment=True,
        passed=False))
    result = run_cli("-i", "t1", "verify-theorem1")
    assert result.exit_code == 3, result.output
    assert result.output.rstrip().endswith("FAIL")


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
    (["optimize-bid", "--prices", "0,5000"], "bid price cap"),
    (["sweep-price", "--from", "0", "--to", "10", "--step", "nan"], "--step must be finite"),
    (["sweep-price", "--from", "nan", "--to", "10", "--step", "5"], "--from must be finite"),
    (["sweep-price", "--from", "0", "--to", "inf", "--step", "5"], "--to must be finite"),
    (["sweep-price", "--from", "20", "--to", "10", "--step", "5"], "the sweep is empty"),
    (["oracle", "--step", "nan"], "grid step"),
    (["evaluate", "--bids", "{tmp}"], "Is a directory"),
    (["-o", "{tmp}/taken", "myd"], "File exists"),
    (["evaluate", "--bids", "{tmp}/latin1.csv"], "latin1.csv: 'utf-8' codec can't decode"),
    (["oracle", "--step", "1e-320"], "gives inf grid points, above the limit of 1,000,000"),
    (["oracle", "--step", "1e-9"], "gives 50,000,000,001 grid points"),
    (["sweep-price", "--from", "0", "--to", "40", "--step", "1e-9"],
     "gives about 40,000,000,001 points from 0.0 to 40.0, above the limit of 100,000"),
    (["sweep-price", "--from", "0", "--to", "40", "--step", "1e-320"], "gives about inf points"),
    # a step below the spacing of floats at --from: one point, above the cap
    (["sweep-price", "--from", "1e16", "--to", "1e16", "--step", "1"], "bid price cap 1000"),
])
def test_cli_bad_input_exits_4(tmp_path, args, message):
    # the bad files: {tmp} a directory, `taken` a file, `latin1.csv` not UTF-8
    (tmp_path / "taken").write_text("")
    (tmp_path / "latin1.csv").write_bytes(
        b"vre_id,hour,segment,price_usd_per_mwh,quantity_mw\nw\xe9,0,0,0.0,5.0\n")
    args = [arg.format(tmp=tmp_path) for arg in args]
    instance = [] if args[0] == "-i" else ["-i", "t1"]
    result = run_cli(*instance, "-o", str(tmp_path), *args)
    assert result.exit_code == 4, result.output
    assert "bad input:" in result.output and message in result.output
    assert "Traceback" not in result.output


def _unit(doc, **fields):
    doc["conventional_units"][0].update(fields)


def _first_bus_load(rows: list[str]) -> list[str]:
    """Scenario CSV rows with the first bus load row's value at 1e308 (the
    bundled bus ids start with b, the VRE ids with w)."""
    at = next(i for i, row in enumerate(rows) if row.split(",")[3].startswith("b"))
    return rows[:at] + [rows[at].rsplit(",", 1)[0] + ",1e308"] + rows[at + 1:]


# (system, command, edit of its JSON document, edit of its scenario CSV rows, violation)
MAGNITUDE = [
    ("sys3", "myd", lambda doc: _unit(doc, p_max_mw=2 ** 63), None,
     "unit g1: p_max 9.223372036854776e+18"),
    ("sys3", "myd", lambda doc: _unit(doc, p_max_mw=1e16), None, "unit g1: p_max 1e+16"),
    ("sys3", "myd", lambda doc: _unit(doc, startup_cost_usd=1e308), None,
     "unit g1: startup_cost 1e+308"),
    ("sys3", "myd", lambda doc: _unit(doc, ramp_up_mw_per_h=1e308), None,
     "unit g1: ramp_up 1e+308"),
    ("sys3", "myd", lambda doc: doc["da_load"][0].update(load_mw=1e308), None,
     "day-ahead load at (b2,0)"),
    ("sys3", "myd", lambda doc: doc["network"]["lines"][0].update(reactance=1e-16), None,
     "line (b1,b2): susceptance 1/reactance 1e+16"),
    ("sys3", "myd", lambda doc: _unit(doc, variable_cost_usd_per_mwh=1e308), None,
     "unit g1: variable_cost 1e+308"),
    ("sys3", "myd", lambda doc: doc["system"].update(voll_usd_per_mwh=1e308), None,
     "system: voll 1e+308"),
    ("sys3", "myd", None, _first_bus_load, "scenario s1: load at (b2,0)"),
    ("sys5", "compare", lambda doc: doc["vre_units"][0].update(capacity_mw=1e308), None,
     "VRE w1: capacity 1e+308"),
    ("sys5", "compare", lambda doc: doc["network"]["lines"][0].update(capacity_mw=1e308), None,
     "line (b1,b2): capacity 1e+308"),
    ("sys5", "compare", lambda doc: _unit(doc, variable_cost_usd_per_mwh=1e16), None,
     "unit g1: variable_cost 1e+16"),
    ("sys5", "compare", lambda doc: _unit(doc, up_redispatch_cost_usd_per_mwh=2 ** 63), None,
     "unit g1: up_redispatch_cost 9.223372036854776e+18"),
]


@pytest.mark.parametrize("system, command, edit, edit_rows, violation", MAGNITUDE, ids=[
    "p-max-2^63", "p-max-1e16", "startup", "ramp-up", "da-load", "reactance", "variable-cost",
    "voll", "rt-load", "vre-capacity", "line-capacity", "variable-cost-1e16", "c-up"])
def test_cli_instance_number_above_magnitude_limit_is_bad_input(tmp_path, system, command, edit,
                                                                edit_rows, violation):
    """HiGHS cannot take any of these numbers, so each must stop at validation."""
    doc = json.loads((DATA / f"{system}.json").read_text())
    rows = (DATA / f"{system}_scenarios.csv").read_text().splitlines()
    if edit:
        edit(doc)
    if edit_rows:
        rows = edit_rows(rows)
    (tmp_path / "big.json").write_text(json.dumps(doc))
    (tmp_path / "big_scenarios.csv").write_text("\n".join(rows) + "\n")
    result = run_cli("-i", str(tmp_path / "big.json"), "-o", str(tmp_path), command)
    assert result.exit_code == 4, result.output
    assert "bad input:" in result.output
    assert f"{violation} exceeds the magnitude limit 1e+06" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["compare", "optimize-bid"])
def test_cli_uncertified_optimum_exits_2(tmp_path, command):
    """Numbers at the magnitude limit pass validation, but HiGHS cannot
    certify the relaxed bid LP's optimum: the CLI names the LP and the gap."""
    doc = json.loads((DATA / "sys5.json").read_text())
    for unit in doc["conventional_units"]:
        unit.update(p_max_mw=1e6, ramp_up_mw_per_h=1e6, ramp_down_mw_per_h=1e6,
                    up_redispatch_cost_usd_per_mwh=1e6)
    for item in doc["network"]["lines"] + doc["vre_units"]:
        item["capacity_mw"] = 1e6
    doc["system"]["voll_usd_per_mwh"] = 1e6
    (tmp_path / "big.json").write_text(json.dumps(doc))
    shutil.copy(DATA / "sys5_scenarios.csv", tmp_path / "big_scenarios.csv")
    result = run_cli("-i", str(tmp_path / "big.json"), "-o", str(tmp_path), command)
    assert result.exit_code == 2, result.output
    assert type(result.exception) is SystemExit
    assert "solver failure: 'relaxed-bid': duality gap" in result.output


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


def test_cli_network_not_an_object_is_bad_input(tmp_path):
    doc = json.loads((DATA / "t1.json").read_text())
    doc["network"] = 5
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    shutil.copy(DATA / "t1_scenarios.csv", tmp_path / "bad_scenarios.csv")
    result = run_cli("-i", str(tmp_path / "bad.json"), "-o", str(tmp_path), "myd")
    assert result.exit_code == 4, result.output
    assert "bad input:" in result.output and "'network'" in result.output
    assert "Traceback" not in result.output


def t1_without_vre_output(tmp_path) -> Path:
    """T1's instance with its scenario CSV stripped of every w1 row."""
    shutil.copy(DATA / "t1.json", tmp_path / "bad.json")
    rows = (DATA / "t1_scenarios.csv").read_text().splitlines()
    (tmp_path / "bad_scenarios.csv").write_text(
        "\n".join(r for r in rows if ",w1," not in r) + "\n")
    return tmp_path / "bad.json"


def test_scenario_without_vre_output_fails_validation(tmp_path):
    path = t1_without_vre_output(tmp_path)
    with pytest.raises(mio.ParseError, match=r"scenario s1: no output for VRE \(unit, hour\) \[\('w1', 0\)\]") as err:
        mio.load_instance(path, tmp_path / "bad_scenarios.csv")
    # a violation `validated` finds is prefixed with both files
    assert str(err.value).startswith(
        f"{path} and {tmp_path / 'bad_scenarios.csv'}: instance validation failed: ")


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
    (lambda doc: doc["network"].update(lines=[5]), "'lines'"),
    (lambda doc: doc["network"].update(buses=3), "'buses'"),
    (lambda doc: doc.update(conventional_units=[5]), "'conventional_units'"),
    (lambda doc: doc.update(vre_units=["idbus"]), "'vre_units'"),
    (lambda doc: doc.update(da_load=[3]), "'da_load'"),
    (lambda doc: doc.update(system=5), "'system'"),
    (lambda doc: doc.update(hours=5), "'hours'"),
    (lambda doc: doc.update(network=5), "'network'"),
    (lambda doc: doc["conventional_units"][0].update(id=[1]), "'id'"),
    (lambda doc: doc["vre_units"][0].update(bus=1), "'bus'"),
    (lambda doc: doc["network"].update(slack_bus=["b1"]), "'slack_bus'"),
    (lambda doc: doc["network"].update(lines=[{"from": "b1", "to": 2, "reactance": 0.1,
                                               "capacity_mw": 10.0}]), "'to'"),
    (lambda doc: doc["da_load"][0].update(hour=1.7), "'hour'"),
    (lambda doc: doc.update(hours=[0, True]), "'hours'"),
    (lambda doc: doc["conventional_units"][0].update(p_max_mw=True), "'p_max_mw'"),
    (lambda doc: doc["conventional_units"][0].update(p_max_mw=10 ** 400), "'p_max_mw'"),
], ids=["da-load-without-bus", "voll-not-a-number", "voll-a-list", "lines-of-numbers",
        "buses-a-number", "units-of-numbers", "vre-of-strings", "da-load-of-numbers",
        "system-a-number", "hours-a-number", "network-a-number", "id-a-list", "bus-a-number",
        "slack-bus-a-list", "line-end-a-number", "hour-not-whole", "hours-with-a-bool",
        "p-max-a-bool", "p-max-beyond-any-float"])
def test_malformed_instance_value_names_file_and_field(tmp_path, edit, field):
    doc = json.loads((DATA / "t1.json").read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(mio.ParseError) as err:
        mio.load_instance(path, DATA / "t1_scenarios.csv")
    assert str(path) in str(err.value) and field in str(err.value)


@pytest.mark.parametrize("cls", mio.RECORDS)
def test_each_record_table_names_every_field(cls):
    table = mio.RECORDS[cls]
    assert [attr for _, attr, _, _ in table] == [f.name for f in dataclasses.fields(cls)]
    assert len({key for key, _, _, _ in table}) == len(table)


def test_instance_with_every_optional_field_set_round_trips(tmp_path, sys5):
    units = tuple(dataclasses.replace(u, no_load_cost=1.5, startup_cost=2.5,
                                      up_redispatch_cost=u.variable_cost + 3.0,
                                      down_redispatch_cost=0.5, p_min=1.0, ramp_up=7.0,
                                      ramp_down=6.0, start_class="slow", u_init=1.0,
                                      p_init=2.0)
                  for u in sys5.units)
    instance = dataclasses.replace(sys5, units=units,
                                   system=dataclasses.replace(sys5.system, price_cap=250.0))
    json_path, csv_path = tmp_path / "sys.json", tmp_path / "sys_scenarios.csv"
    mio.save_instance(instance, json_path, csv_path)
    again = mio.load_instance(json_path, csv_path)
    assert again == instance and again.system.bid_price_cap == 250.0
    assert again.units[0].start_class == "slow" and again.units[0].p_init == 2.0
    # a price cap written null or left out loads as None: bids are capped at VoLL
    doc = json.loads(json_path.read_text())
    for system in ({**doc["system"], "price_cap_usd_per_mwh": None},
                   {"voll_usd_per_mwh": doc["system"]["voll_usd_per_mwh"]}):
        json_path.write_text(json.dumps({**doc, "system": system}))
        again = mio.load_instance(json_path, csv_path)
        assert again.system.price_cap is None
        assert again.system.bid_price_cap == again.system.voll == sys5.system.voll


NONFINITE = [
    (lambda doc: doc["system"].update(voll_usd_per_mwh=math.nan),
     "system: field 'voll_usd_per_mwh' is not a finite number: nan"),
    (lambda doc: doc["conventional_units"][0].update(variable_cost_usd_per_mwh=math.nan),
     "conventional_units[0]: field 'variable_cost_usd_per_mwh' is not a finite number: nan"),
    (lambda doc: doc["conventional_units"][0].update(ramp_up_mw_per_h=math.nan),
     "conventional_units[0]: field 'ramp_up_mw_per_h' is not a finite number: nan"),
    (lambda doc: doc["da_load"][0].update(load_mw=math.nan),
     "da_load[0]: field 'load_mw' is not a finite number: nan"),
    (lambda doc: doc["vre_units"][0].update(capacity_mw=math.inf),
     "vre_units[0]: field 'capacity_mw' is not a finite number: inf"),
]


@pytest.mark.parametrize("edit, message", NONFINITE,
                         ids=["voll", "variable-cost", "ramp", "da-load", "vre-capacity"])
def test_cli_nonfinite_instance_number_is_bad_input(tmp_path, edit, message):
    doc = json.loads((DATA / "t1.json").read_text())
    edit(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    shutil.copy(DATA / "t1_scenarios.csv", tmp_path / "bad_scenarios.csv")
    result = run_cli("-i", str(tmp_path / "bad.json"), "-o", str(tmp_path), "compare")
    assert result.exit_code == 4, result.output
    assert f"bad input: {tmp_path / 'bad.json'}: {message}" in result.output
    assert "Traceback" not in result.output


SCENARIO_HEADER = "scenario_id,probability,hour,entity_id,value_mw\n"


@pytest.mark.parametrize("name, text, message", [
    ("bad_scenarios.csv", SCENARIO_HEADER + "s1,nan,0,w1,50.0\ns1,nan,0,b1,80.0\n",
     ":2: probability nan is not finite"),
    ("bad_scenarios.csv", SCENARIO_HEADER + "s1,1.0,0,w1,50.0\ns1,1.0,0,b1,nan\n",
     ":3: value_mw nan is not finite"),
    ("bad_scenarios.csv", "scenario_id,probability,hour,entity_id\ns1,1.0,0,w1\n",
     ": expected columns ['entity_id', 'hour', 'probability', 'scenario_id', 'value_mw']"),
    ("bad_scenarios.csv", SCENARIO_HEADER + "s1,1.0,0,w1,50.0\ns1,1.0,0,b1\n",
     ":3: row has 4 of 5 columns"),
    ("bad_scenarios.csv", SCENARIO_HEADER + "s1,1.0,zero,w1,50.0\n",
     ":2: invalid literal for int() with base 10: 'zero'"),
    ("bad_scenarios.csv", SCENARIO_HEADER + "s1,0.5,0,w1,50.0\ns1,1.0,0,b1,80.0\n",
     ":3: scenario 's1' probability changed"),
    ("bad.json", '{"network": {"buses": ["b1"],}', ": invalid JSON at line 1: "),
], ids=["probability", "rt-load", "missing-column", "short-row", "unparsable-value",
        "probability-changed", "invalid-json"])
def test_cli_bad_instance_file_is_bad_input(tmp_path, name, text, message):
    shutil.copy(DATA / "t1.json", tmp_path / "bad.json")
    shutil.copy(DATA / "t1_scenarios.csv", tmp_path / "bad_scenarios.csv")
    (tmp_path / name).write_text(text)
    result = run_cli("-i", str(tmp_path / "bad.json"), "-o", str(tmp_path), "compare")
    assert result.exit_code == 4, result.output
    assert f"bad input: {tmp_path / name}{message}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("segments", [(0, 0), (0, 7), (-3,), (1,)],
                         ids=["repeated", "gap", "negative", "not-from-zero"])
def test_bid_segments_must_count_from_zero(tmp_path, segments):
    bids = tmp_path / "bids.csv"
    bids.write_text("vre_id,hour,segment,price_usd_per_mwh,quantity_mw\n"
                    + "".join(f"w1,0,{s},0.0,5.0\n" for s in segments))
    with pytest.raises(mio.ParseError) as err:
        mio.load_bids(bids)
    assert str(bids) in str(err.value) and "curve (w1,0)" in str(err.value)
    result = run_cli("-i", "t1", "evaluate", "--bids", str(bids))
    assert result.exit_code == 4, result.output
    assert "curve (w1,0)" in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null"])
def test_json_document_not_an_object_is_bad_input(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(mio.ParseError, match="not a JSON object") as err:
        mio.load_instance(path, DATA / "t1_scenarios.csv")
    assert str(path) in str(err.value)


@pytest.mark.parametrize("content, message", [
    (bytes(range(128, 256)), "'utf-8' codec can't decode"),  # no byte starts a character
    (b'{"hours": [' + b"1" * 5000 + b"]}", "Exceeds the limit"),
    (b"[" * 100000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "long-integer", "deep-nesting"])
def test_instance_json_that_cannot_be_read_is_bad_input(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    shutil.copy(DATA / "t1_scenarios.csv", tmp_path / "bad_scenarios.csv")
    with pytest.raises(mio.ParseError, match=message) as err:
        mio.load_instance(path, tmp_path / "bad_scenarios.csv")
    assert str(path) in str(err.value)
    result = run_cli("-i", str(path), "-o", str(tmp_path), "myd")
    assert result.exit_code == 4, result.output
    assert f"bad input: {path}: {message}" in result.output
    assert "Traceback" not in result.output
