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
and quartiles, the pairs in which the change read lower and the relative
change of the medians, and every run's final JSON line.
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
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root} {workload} seed {seed}: no output\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(runs: dict, metrics: list[dict]) -> dict:
    summary = {}
    for workload, sides in runs.items():
        entry = {}
        for metric in metrics:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in sides[side]]
                              for side in ("parent", "change"))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            better = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            entry[name] = {
                "parent_median": round(float(np.median(parent)), 4),
                "parent_quartiles": [round(float(q), 4) for q in np.percentile(parent, [25, 75])],
                "change_median": round(float(np.median(change)), 4),
                "change_quartiles": [round(float(q), 4) for q in np.percentile(change, [25, 75])],
                f"change_{metric['better']}_in_pairs": f"{better}/{len(parent)}",
                "relative_change": round(float(np.median(change) / np.median(parent) - 1.0), 4),
            }
        entry["failed"] = {side: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
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
