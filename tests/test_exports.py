"""Every name a module exports in `__all__` exists, every function the
benchmark's traced run wraps is still there, and HiGHS stays behind `lp`."""
import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

from market_coord import lp

MODULES = ("model", "io", "lp", "dam", "rtm", "policies", "bilevel")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"market_coord.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _spans() -> types.ModuleType:
    """perfbench/spans.py, read and run in memory, so that nothing is written
    beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    module = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_functions_exist():
    spans = _spans()
    missing = [(m, f) for m, f in spans.TRACED
               if not callable(getattr(importlib.import_module(f"market_coord.{m}"), f, None))]
    assert missing == []
    for name in spans.PACKAGE_MODULES:
        importlib.import_module("market_coord" + (f".{name}" if name else ""))
    assert spans.LINPROG == "lp.linprog"
    # the traced run counts each solve's size from these keywords
    assert {"c", "A_ub", "A_eq"} <= set(inspect.signature(lp.linprog).parameters)


def test_only_lp_touches_the_private_highs_binding():
    # scipy's `_highspy` is private: one module calls it, so a scipy release
    # that changes it breaks one seam, the one tests/test_lp.py checks
    package = Path(lp.__file__).resolve().parent
    users = sorted(p.name for p in package.glob("*.py") if "_highspy" in p.read_text())
    assert users == ["lp.py"]


def test_no_module_imports_scipy_sparse_or_keeps_a_global():
    # rows are stated as (row, column, value) terms, assembled by `lp.Colwise`;
    # what only tests read, such as a matrix view or a solve log, lives in tests
    package = Path(lp.__file__).resolve().parent
    users = sorted(p.name for p in package.glob("*.py")
                   if re.search(r"\bscipy\.sparse\b|from scipy import .*\bsparse\b"
                                r"|^\s*global\s", p.read_text(), re.MULTILINE))
    assert users == []


def test_only_dam_imports_the_lp_solve():
    # every market LP is solved through `dam.solve`, so wrapping that one name
    # audits every solve (acceptance criterion 7); the package's `__init__`
    # re-exports `solve` and calls nothing
    def takes_solve(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module == "lp" and "solve" in {a.name for a in node.names}
        return (isinstance(node, ast.Attribute) and node.attr == "solve"
                and isinstance(node.value, ast.Name) and node.value.id == "lp")

    package = Path(lp.__file__).resolve().parent
    importers = sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py"
                       and any(map(takes_solve, ast.walk(ast.parse(p.read_text())))))
    assert importers == ["dam.py"]


def test_only_lp_reads_lp_names():
    # columns and rows are addressed by position; their names are labels
    # that only `lp`'s diagnosis spells out
    package = Path(lp.__file__).resolve().parent
    readers = sorted(p.name for p in package.glob("*.py")
                     if re.search(r"\b(var_names|con_names)\b", p.read_text()))
    assert readers == ["lp.py"]


def test_no_module_reads_the_environment_or_starts_threads():
    # every setting is an argument, and scenarios are re-dispatched in
    # scenario order on the caller's thread
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    package = Path(lp.__file__).resolve().parent
    offenders = sorted(
        p.name for p in package.glob("*.py")
        if re.search(r"\b(environ|getenv)\b", p.read_text())
        or any(name.split(".")[0] in ("concurrent", "threading")
               for node in ast.walk(ast.parse(p.read_text())) for name in imported(node)))
    assert offenders == []


def test_only_lp_and_dam_read_an_lp_status():
    # `lp.solve` reports the status and `dam.solved` decides what a market
    # LP without an optimum raises, for every market LP
    package = Path(lp.__file__).resolve().parent
    readers = sorted(p.name for p in package.glob("*.py") if "LpStatus." in p.read_text())
    assert readers == ["dam.py", "lp.py"]
