"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload score-stream --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With --trace 0 the last line holds the end-to-end metrics,
with --trace 1 the per-layer metrics from the span trace. The exit code is 0
when every check passed, 1 when a check failed, 2 when the checkout or the
arguments are unusable.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# One scenario fan-out thread and single-threaded BLAS/OpenMP, fixed before
# numpy is first imported.
os.environ.pop("MARKET_COORD_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "market_coord" / "__init__.py").is_file():
        _fail(f"no package source under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import scipy.optimize  # noqa: F401
    import market_coord
    import workloads
    from checks import CheckFailed
    from spans import Tracer, layer_metrics
    import_s = time.perf_counter() - start
    if Path(market_coord.__file__).resolve().parent != ROOT / "src" / "market_coord":
        _fail(f"imported market_coord from {market_coord.__file__}, not this checkout")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    loop = workloads.Loop(tracer)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    correct = True
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            with loop.span("setup"):
                workload.setup(workdir)
            setups.append(time.perf_counter() - began)
        workload.prepare(loop)
        # only operations of the timed loop are counted
        loop.attempted = loop.failed = 0
        loop.run(args.seconds, lambda: workload.round(loop))
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = {}
    if correct:
        for name, (median, count) in sorted(loop.medians().items()):
            print(f"{args.workload}  {name:<16} {median:.4f} s  (median of {count})")
        for name, value in workload.observations.items():
            print(f"{args.workload}  {name} {value:+.4%}  (recorded, not checked)")
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(trace_path)
            print(f"{args.workload}  spans written to {trace_path}")
            layers = layer_metrics(tracer, SETUP_REPEATS, loop.passes, loop.rounds)
            metrics = {
                name: _metric(value, "count" if not name.endswith("_s") else "s")
                for name, value in layers.items()
            }
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": _metric(import_s + statistics.median(setups), "s"),
                "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
                "pass_s": _metric(loop.medians()[workload.pass_metric][0], "s"),
            }
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
