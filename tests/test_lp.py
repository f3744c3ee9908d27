"""Solver abstraction: statuses, dual sign convention, and certificates."""
import math

import numpy as np
import pytest
from scipy import sparse

from market_coord.lp import (
    EQ,
    GE,
    LE,
    LpModel,
    LpStatus,
    diagnose_infeasibility,
    solve,
)


def model_of(cols, rows=(), sense=(), rhs=(), lb=-math.inf, ub=math.inf, names=None):
    """An LP with columns {name: cost} and dense `rows`, one list of
    coefficients over the columns per row, named `names` or r0, r1, ..."""
    model = LpModel()
    model.add_vars(list(cols), list(cols.values()), lb, ub)
    model.add_rows(names or [f"r{i}" for i in range(len(rows))],
                   sparse.coo_matrix(np.array(rows, dtype=float).reshape(len(rows), len(cols))),
                   list(sense), rhs, list(cols))
    return model


def test_one_variable_lower_bound_dual():
    model = model_of({"x": 1.0}, [[1.0]], [GE], [3.0])
    sol = solve(model)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal.tolist() == pytest.approx([3.0])
    assert sol.duals.tolist() == pytest.approx([1.0])


def test_unbounded_detection():
    sol = solve(model_of({"x": -1.0}, lb=0.0))
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.primal is None and sol.duals is None


def test_infeasible_detection_and_diagnosis():
    model = model_of({"x": 0.0}, [[1.0]], [GE], [5.0], lb=0.0, ub=1.0, names=["too_high"])
    sol = solve(model)
    assert sol.status is LpStatus.INFEASIBLE
    assert diagnose_infeasibility(model) == ["too_high (violation 4)"]


def test_diagnosis_reads_each_slack_of_its_own_row():
    # x + y = 10 with x, y in [0, 2] falls 6 short; z <= -3 with z >= 0
    # overshoots by 3; the ">=" row in the middle holds
    model = model_of({"x": 0.0, "y": 0.0, "z": 0.0},
                     [[1, 1, 0], [1, 0, 0], [0, 0, 1]], [EQ, GE, LE], [10.0, 0.0, -3.0],
                     lb=0.0, ub=[2.0, 2.0, math.inf])
    assert solve(model).status is LpStatus.INFEASIBLE
    assert diagnose_infeasibility(model) == ["r0 (violation 6)", "r2 (violation 3)"]


def test_dual_signs_follow_min_convention():
    # min -x s.t. x <= 4 (binding <= row): dual must be <= 0
    sol = solve(model_of({"x": -1.0}, [[1.0]], [LE], [4.0], lb=0.0))
    assert sol.primal[0] == pytest.approx(4.0)
    assert sol.duals[0] <= 1e-9
    assert sol.duals[0] == pytest.approx(-1.0)


def test_certificates_within_tolerances():
    model = model_of({"x": 2.0, "y": 3.0}, [[1.0, 1.0], [1.0, 0.0]], [GE, GE], [10.0, 2.0],
                     lb=0.0)
    sol = solve(model)
    assert sol.status is LpStatus.OPTIMAL
    certs = sol.certificates
    assert certs.primal_residual <= 1e-6
    assert certs.duality_gap <= 1e-6
    assert certs.complementarity <= 1e-5


def test_resolve_is_deterministic_in_objective():
    def build():
        return model_of({"x": 1.0, "y": 1.0}, [[1.0, 1.0]], [GE], [5.0])

    a = solve(build())
    b = solve(build())
    assert a.objective == pytest.approx(b.objective, rel=1e-6)


def test_duplicate_variable_name_rejected():
    model = model_of({"x": 0.0})
    with pytest.raises(ValueError, match="duplicate variable"):
        model.add_vars(["x"], [0.0])
    with pytest.raises(ValueError, match="duplicate variable"):
        LpModel().add_vars(["y", "y"], [0.0, 0.0])


def test_duplicate_constraint_name_rejected():
    model = model_of({"x": 0.0}, [[1.0]], [GE], [0.0])
    with pytest.raises(ValueError, match="duplicate constraint"):
        model.add_rows(["r0"], sparse.coo_matrix([[1.0]]), [LE], [1.0], ["x"])


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError, match="non-finite objective"):
        LpModel().add_vars(["x"], [float("nan")])
    model = model_of({"x": 0.0})
    with pytest.raises(ValueError, match="non-finite"):
        model.add_rows(["r"], sparse.coo_matrix([[float("inf")]]), [GE], [0.0], ["x"])
    with pytest.raises(ValueError, match="non-finite"):
        model.add_rows(["r"], sparse.coo_matrix([[1.0]]), [GE], [float("nan")], ["x"])


def test_equality_row_free_dual_sign():
    # min x + y s.t. x + y = 7, x >= 0, y >= 0: equality dual may be any sign
    sol = solve(model_of({"x": 1.0, "y": 1.0}, [[1.0, 1.0]], [EQ], [7.0], lb=0.0))
    assert sol.objective == pytest.approx(7.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_solution_arrays_follow_column_and_row_order():
    # min x + 2y s.t. y >= 1 (dual 2), x >= 3 (dual 1)
    model = model_of({"x": 1.0, "y": 2.0}, [[0.0, 1.0], [1.0, 0.0]], [GE, GE], [1.0, 3.0])
    sol = solve(model)
    assert sol.primal.tolist() == pytest.approx([3.0, 1.0])
    assert sol.duals.tolist() == pytest.approx([2.0, 1.0])


def test_lp_text_dump_mentions_rows_and_bounds():
    model = model_of({"x": 1.0}, [[1.0]], [GE], [1.0], lb=0.0, ub=2.0)
    text = model.to_lp_text()
    assert " r0: +1 x >= 1" in text
    assert " 0 <= x <= 2" in text
