"""tools/bench_pairs.py keeps the record when a run fails."""
import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = [{"name": "setup_s", "better": "lower"}, {"name": "pass_s", "better": "lower"}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(setup_s, pass_s, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed, "metrics": {
        "setup_s": {"value": setup_s, "unit": "s"}, "pass_s": {"value": pass_s, "unit": "s"}}}


def test_summary_skips_a_run_that_failed_a_check(bench_pairs):
    # run.py prints no metrics for a run that failed a check
    failed_check = {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}
    runs = {"w": {"parent": [_run(1.0, 0.1), _run(2.0, 0.2), _run(3.0, 0.3)],
                  "change": [_run(0.5, 0.3), failed_check, _run(2.5, 0.1, failed=2)]}}
    entry = bench_pairs.summarize(runs, METRICS)["w"]
    assert entry["setup_s"] == {
        "parent_median": 2.0, "parent_quartiles": [1.5, 2.5],
        "change_median": 1.5, "change_quartiles": [1.0, 2.0],
        "change_lower_in_pairs": "2/2", "relative_change": -0.25}
    assert entry["pass_s"]["change_lower_in_pairs"] == "1/2"
    assert entry["failed"] == {"parent": "0/30", "change": "3/24"}
    assert entry["incorrect"] == {"parent": "0/3", "change": "1/3"}
    assert entry["correct"] is False


def test_summary_of_a_metric_no_run_reports(bench_pairs):
    runs = {"w": {side: [{"correct": False, "attempted": 0, "failed": 0, "metrics": {}}]
                  for side in ("parent", "change")}}
    entry = bench_pairs.summarize(runs, METRICS)["w"]["setup_s"]
    assert entry["parent_median"] is None and entry["relative_change"] is None
    assert entry["change_lower_in_pairs"] == "0/0"


@pytest.mark.parametrize("script, exit_code, stderr", [
    ("import sys; sys.exit('crashed')", 1, "crashed"),  # no stdout at all
    ("import sys; print('not json'); sys.exit(3)", 3, ""),
    ("print('{\"correct\": true}')", 0, ""),  # JSON, but not a result
])
def test_a_run_without_its_json_line_is_recorded_as_failed(bench_pairs, tmp_path, script,
                                                           exit_code, stderr):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script + "\n")
    result = bench_pairs.run_once(tmp_path, "w", 1, 0.1)
    assert result == {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                      "exit_code": exit_code, "stderr": result["stderr"]}
    assert result["stderr"].strip() == stderr
