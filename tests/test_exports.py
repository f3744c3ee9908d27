"""Every name a module exports in `__all__` exists."""
import importlib

import pytest

MODULES = ("model", "io", "lp", "dam", "rtm", "policies", "bilevel")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"market_coord.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
