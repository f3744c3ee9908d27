"""Span tracing installed from outside the package, for the traced run.

`Tracer.install` replaces each traced public function with a timing wrapper
in every package module that holds a reference to it, so a call is traced
wherever the calling module looks the function up (for example `lp.solve`
as `dam`, `rtm`, `policies` and `bilevel` imported it, and
`scipy.optimize.linprog` as `market_coord.lp` sees it). The package source
is not changed. Spans stay in memory and are written out at the end.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module, function) pairs wrapped in the traced run; a span is named
# "<module>.<function>"
TRACED = (
    ("io", "load_instance"),
    ("io", "save_instance"),
    ("model", "validate"),
    ("lp", "solve"),
    ("lp", "diagnose_infeasibility"),
    ("dam", "dam_structure"),
    ("dam", "build_dam"),
    ("dam", "clear_dam"),
    ("rtm", "rtm_structure"),
    ("rtm", "build_rtm"),
    ("rtm", "clear_rtm"),
    ("policies", "evaluate_bids"),
    ("policies", "myopic"),
    ("policies", "stochastic"),
    ("policies", "compare"),
    ("bilevel", "build_relaxed_bid"),
    ("bilevel", "solve_bid"),
    ("bilevel", "solve_bid_q"),
    ("bilevel", "oracle_grid_search"),
    ("bilevel", "price_sweep"),
)
# `cli` is left out: it only parses arguments and writes CSV around these calls
PACKAGE_MODULES = ("", "model", "io", "lp", "dam", "rtm", "policies", "bilevel")
LINPROG = "lp.linprog"


def _linprog_extra(args, kwargs, res) -> dict:
    """Size and HiGHS iteration count of one linprog call."""
    rows = nnz = 0
    for key in ("A_ub", "A_eq"):
        mat = kwargs.get(key)
        if mat is not None:
            rows += mat.shape[0]
            nnz += mat.nnz
    cols = len(args[0]) if args else len(kwargs["c"])
    return {"rows": rows, "cols": cols, "nnz": nnz, "nit": int(res.nit)}


class Tracer:
    """In-memory span recorder: [name, start, end, parent index, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, extra=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][4] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        modules = [importlib.import_module("market_coord" + (f".{m}" if m else ""))
                   for m in PACKAGE_MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, fn_name in TRACED:
            original = getattr(by_name[mod_name], fn_name)
            self._replace(original, self.wrap(f"{mod_name}.{fn_name}", original), modules)
        lp = by_name["lp"]
        self._replace(lp.linprog, self.wrap(LINPROG, lp.linprog, _linprog_extra), [lp])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, **(extra or {})}) + "\n")

    def self_times(self) -> list[float]:
        """Span duration minus the duration of its direct children."""
        own = [end - start for _n, start, end, _p, _x in self.spans]
        for _n, start, end, parent, _x in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def roots(self) -> list[int]:
        """Index of the outermost span enclosing each span."""
        root = []
        for idx, (_n, _s, _e, parent, _x) in enumerate(self.spans):
            root.append(idx if parent < 0 else root[parent])
        return root


# per-layer metric -> (span name, what to sum); "self" is self time, "total"
# the span's whole duration, "calls" the span count, or a key of the linprog
# extra record
LAYER_SUMS = {
    "io.load_instance_s": ("io.load_instance", "self"),
    "io.save_instance_s": ("io.save_instance", "self"),
    "model.validate_s": ("model.validate", "self"),
    "lp.solves": ("lp.solve", "calls"),
    "lp.highs_s": (LINPROG, "self"),
    "lp.highs_iterations": (LINPROG, "nit"),
    "lp.solve_self_s": ("lp.solve", "self"),
    "lp.rows": (LINPROG, "rows"),
    "lp.cols": (LINPROG, "cols"),
    "lp.nnz": (LINPROG, "nnz"),
    "lp.diagnose_infeasibility_calls": ("lp.diagnose_infeasibility", "calls"),
    # the elastic model's build and its own solve
    "lp.diagnose_infeasibility_s": ("lp.diagnose_infeasibility", "total"),
    "dam.dam_structure_s": ("dam.dam_structure", "self"),
    "dam.dam_structure_calls": ("dam.dam_structure", "calls"),
    "dam.build_dam_s": ("dam.build_dam", "self"),
    "dam.clear_dam_s": ("dam.clear_dam", "self"),
    "rtm.rtm_structure_s": ("rtm.rtm_structure", "self"),
    "rtm.rtm_structure_calls": ("rtm.rtm_structure", "calls"),
    "rtm.build_rtm_s": ("rtm.build_rtm", "self"),
    "rtm.clear_rtm_s": ("rtm.clear_rtm", "self"),
    "policies.stochastic_self_s": ("policies.stochastic", "self"),
    "policies.evaluate_bids_self_s": ("policies.evaluate_bids", "self"),
    "bilevel.build_relaxed_bid_self_s": ("bilevel.build_relaxed_bid", "self"),
    "bilevel.solve_bid_self_s": ("bilevel.solve_bid", "self"),
}
SETUP_METRICS = ("io.load_instance_s", "io.save_instance_s", "model.validate_s")
PER_ROUND_METRICS = ("lp.diagnose_infeasibility_calls", "lp.diagnose_infeasibility_s")


def layer_metrics(tracer: Tracer, setups: int, passes: int, rounds: int) -> dict:
    """Per-layer figures from the spans of one traced run.

    Root spans are opened by the workload and named "setup", "pass",
    "malformed" or "theorem-1". Set-up layers are averaged per set-up. The
    malformed-bid layers (elastic diagnosis) are averaged per round of
    malformed bid sets. Everything else is summed over the spans under "pass"
    roots and averaged per pass; "theorem-1" spans are left out.
    """
    own = tracer.self_times()
    roots = tracer.roots()
    spans = tracer.spans
    root_kind = [spans[r][0] for r in roots]

    def total(span_name: str, what: str, kind: str) -> float:
        acc = 0.0
        for idx, (name, start, end, _p, extra) in enumerate(spans):
            if name != span_name or root_kind[idx] != kind:
                continue
            if what == "self":
                acc += own[idx]
            elif what == "total":
                acc += end - start
            elif what == "calls":
                acc += 1
            else:
                acc += extra[what]
        return acc

    out = {}
    for metric, (span_name, what) in LAYER_SUMS.items():
        if metric in SETUP_METRICS:
            out[metric] = total(span_name, what, "setup") / setups
        elif metric in PER_ROUND_METRICS:
            out[metric] = total(span_name, what, "malformed") / rounds if rounds else 0.0
        else:
            out[metric] = total(span_name, what, "pass") / passes

    # solves per solve_bid call, and grid points per oracle search
    def under(ancestor: str, name: str) -> tuple[int, int]:
        inside = [False] * len(spans)
        outer = 0
        hits = 0
        for idx, (span_name, _s, _e, parent, _x) in enumerate(spans):
            inside[idx] = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
            if span_name == ancestor and not inside[idx] and root_kind[idx] == "pass":
                outer += 1
            if span_name == name and inside[idx] and root_kind[idx] == "pass":
                hits += 1
        return hits, outer

    solves, bid_calls = under("bilevel.solve_bid", "lp.solve")
    out["bilevel.lp_solves_per_solve_bid"] = solves / bid_calls if bid_calls else 0.0
    points, searches = under("bilevel.oracle_grid_search", "policies.evaluate_bids")
    out["bilevel.oracle_points"] = points / searches if searches else 0.0
    return out
