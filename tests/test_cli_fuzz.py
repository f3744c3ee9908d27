"""The CLI's input files fuzzed: whatever one changed value in a bundled
instance, its scenario CSV or a bid CSV does, the CLI ends with a documented
exit code (0, 2, 3 or 4) and never with an exception of its own."""
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from market_coord import io as mio
from market_coord.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "market_coord" / "data"
EXITS = {0, 2, 3, 4}
BIDS = "bids.csv"

# the command each system runs under, after `-i <json> -o <dir>`
COMMANDS = {
    "sys3": ["myd"],
    "sys5": ["compare"],
    "t1": ["evaluate", "--bids", BIDS],
}

DELETE = object()  # a mutation that removes the leaf from its container
# numbers first, near and past `model.MAGNITUDE_LIMIT`, so that many examples
# reach the LPs; then any float, and values of the wrong kind
NUMBERS = (st.floats(-2e6, 2e6), st.integers(-2, 30), st.floats(), st.integers())
JSON_VALUES = st.one_of(
    *NUMBERS, st.just(DELETE), st.none(), st.booleans(), st.text(max_size=6),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(),
                                                         max_size=1))
CELL_VALUES = st.one_of(*(number.map(repr) for number in NUMBERS), st.text(max_size=8))


def _leaves(doc, path=()):
    """The path of every leaf of a JSON document: a value that is not a
    nonempty object or list."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _csv_cells(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _bid_cells() -> list[list[str]]:
    """t1's VRE units bidding three segments in every hour."""
    t1 = mio.bundled_instance("t1")
    return [[name for name, _ in mio.BID_COLUMNS]] + [
        [k.id, str(t), str(s), repr(price), repr(share * k.capacity)]
        for k in t1.vre_units for t in t1.hours
        for s, (price, share) in enumerate(((0.0, 0.1), (15.0, 0.2), (35.0, 0.3)))]


FILES = {system: {"json": json.loads((DATA / f"{system}.json").read_text()),
                  "scenarios": _csv_cells((DATA / f"{system}_scenarios.csv").read_text())}
         for system in COMMANDS}
FILES["t1"]["bids"] = _bid_cells()


@st.composite
def mutations(draw):
    """One system and its files, with one JSON leaf or one CSV cell changed."""
    system = draw(st.sampled_from(sorted(COMMANDS)))
    files = copy.deepcopy(FILES[system])
    target = draw(st.sampled_from(sorted(files)))
    if target == "json":
        *parents, key = draw(st.sampled_from(list(_leaves(files["json"]))))
        container = files["json"]
        for parent in parents:
            container = container[parent]
        value = draw(JSON_VALUES)
        if value is DELETE:
            del container[key]
        else:
            container[key] = value
    else:
        rows = files[target]
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(CELL_VALUES)
    return system, files


def _write(files: dict, folder: Path, system: str) -> None:
    (folder / f"{system}.json").write_text(json.dumps(files["json"]), encoding="utf-8")
    for target, name in (("scenarios", f"{system}_scenarios.csv"), ("bids", BIDS)):
        if target in files:
            with open(folder / name, "w", newline="", encoding="utf-8") as out:
                csv.writer(out).writerows(files[target])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(mutations())
def test_cli_ends_with_a_documented_exit(case):
    system, files = case
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        _write(files, folder, system)
        args = [str(folder / a) if a == BIDS else a for a in COMMANDS[system]]
        result = CliRunner().invoke(main, ["-i", str(folder / f"{system}.json"),
                                           "-o", str(folder / "out"), *args])
    assert result.exit_code in EXITS, result.output
    assert result.exception is None or type(result.exception) is SystemExit, (
        repr(result.exception))
