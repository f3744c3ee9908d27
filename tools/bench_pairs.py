"""Interleaved parent/change pairs of the benchmark, written as a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent <rev> --workdir <new dir> \\
        --change "what the change does" --out BENCH_<n>.json

The parent is unpacked with `git archive` into `<workdir>/parent`, and the
change is this checkout's working tree, unpacked the same way into
`<workdir>/change` (tracked and untracked files that git does not ignore),
so each side runs from its own source. Pair i of `PAIRS` runs
`python3 perfbench/run.py --workload W --seed i --seconds S --trace 0` once
on each side, one process at a time, with S the `run_seconds` of
`BENCHMARK.json`; the parent runs first in odd pairs.
The record holds, per workload and end-to-end metric, each side's median
and quartiles over the runs that report it, the pairs in which both report
it and the change read lower, and the relative change of the medians; per
workload, each side's failed operations and incorrect runs; and every run's
final JSON line. A run that fails a check reports no metrics, and one that
ends without its JSON line is recorded as incorrect with its exit code and
the end of its stderr: either way the record is still written.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}  # of each run's JSON line


def unpack_parent(rev: str, into: Path) -> None:
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def unpack_change(into: Path) -> None:
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's final JSON line, or, if its last line of stdout is none, an
    incorrect result with no operations, its exit code and its stderr's end."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if isinstance(result, dict) and RESULT_KEYS <= result.keys():
            return result
    except (IndexError, json.JSONDecodeError):
        pass
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
            "exit_code": done.returncode, "stderr": done.stderr[-2000:]}


def _spread(values: list) -> tuple:
    """The median and the quartiles of the `values` that are not None; None
    for none."""
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    return float(np.median(values)), [float(q) for q in np.percentile(values, [25, 75])]


def _rounded(value):
    """`value`, a float, a list of floats or None, rounded to 4 decimals."""
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return round(value, 4) if isinstance(value, float) else value


def summarize(runs: dict, metrics: list[dict]) -> dict:
    summary = {}
    for workload, sides in runs.items():
        entry = {}
        for metric in metrics:
            name = metric["name"]
            # one value per run, None where the run reports none
            parent, change = ([r["metrics"].get(name, {}).get("value") for r in sides[side]]
                              for side in ("parent", "change"))
            pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            better = sum(sign * (c - p) < 0 for p, c in pairs)
            (parent_median, parent_quartiles), (change_median, change_quartiles) = (
                _spread(parent), _spread(change))
            entry[name] = {
                "parent_median": _rounded(parent_median),
                "parent_quartiles": _rounded(parent_quartiles),
                "change_median": _rounded(change_median),
                "change_quartiles": _rounded(change_quartiles),
                f"change_{metric['better']}_in_pairs": f"{better}/{len(pairs)}",
                "relative_change": (_rounded(change_median / parent_median - 1.0)
                                    if parent_median and change_median is not None else None),
            }
        entry["failed"] = {side: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
                           for side, rs in sides.items()}
        entry["incorrect"] = {side: f"{sum(not r['correct'] for r in rs)}/{len(rs)}"
                              for side, rs in sides.items()}
        entry["correct"] = all(r["correct"] for rs in sides.values() for r in rs)
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="empty or missing directory for the two source copies")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    roots = {"parent": args.workdir / "parent", "change": args.workdir / "change"}
    unpack_parent(args.parent, roots["parent"])
    unpack_change(roots["change"])

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for seed in range(1, PAIRS + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_once(roots[side], workload, seed, seconds)
                runs[workload][side].append(result)
                print(f"pair {seed} {workload} {side}: "
                      f"{json.dumps(result['metrics'])[:160]}", flush=True)

    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                            check=True, capture_output=True, text=True).stdout.strip()
    record = {
        "what": f"{PAIRS} interleaved parent/change pairs of `python3 perfbench/run.py "
                f"--workload W --seed i --seconds {seconds:g} --trace 0` per workload "
                "(pair i on seed i, the side run first alternating: parent first in odd "
                "pairs), each side from its own unpacked copy. Each entry of `runs` holds "
                "the run's final JSON line.",
        "parent": parent,
        "change": args.change,
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores, "
                   f"Python {platform.python_version()}, scipy {scipy.__version__}; "
                   "each run in its own process, one at a time",
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
