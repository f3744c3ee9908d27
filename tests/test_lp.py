"""Solver abstraction: statuses, dual sign convention, and certificates."""
import math

import numpy as np
import pytest
from scipy import sparse

from market_coord import lp
from market_coord.lp import (
    EQ,
    GE,
    LE,
    LpModel,
    LpStatus,
    SolverError,
    diagnose_infeasibility,
    solve,
)


def model_of(cols, rows=(), sense=(), rhs=(), lb=-math.inf, ub=math.inf, names=None):
    """An LP with columns {name: cost} and dense `rows`, one list of
    coefficients over the columns per row, named `names` or r0, r1, ..."""
    model = LpModel()
    at = model.add_vars(list(cols), list(cols.values()), lb, ub)
    dense = np.array(rows, dtype=float).reshape(len(rows), len(cols))
    row, col = np.indices(dense.shape)
    model.add_rows(names or [f"r{i}" for i in range(len(rows))], list(sense), rhs,
                   [(row, at[col], dense)])
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


def test_infeasible_detection_and_diagnosis(monkeypatch):
    model = model_of({"x": 0.0}, [[1.0]], [GE], [5.0], lb=0.0, ub=1.0, names=["too_high"])
    sol = solve(model)
    assert sol.status is LpStatus.INFEASIBLE
    assert diagnose_infeasibility(model) == ["too_high (violation 4)"]
    # an elastic model that HiGHS refuses is reported, not raised
    monkeypatch.setattr(lp, "_load", lambda arrays, basis=None: None)
    assert diagnose_infeasibility(model) == ["elastic diagnosis failed"]


def test_diagnosis_reads_each_slack_of_its_own_row():
    # x + y = 10 with x, y in [0, 2] falls 6 short; z <= -3 with z >= 0
    # overshoots by 3; the ">=" row in the middle holds
    model = model_of({"x": 0.0, "y": 0.0, "z": 0.0},
                     [[1, 1, 0], [1, 0, 0], [0, 0, 1]], [EQ, GE, LE], [10.0, 0.0, -3.0],
                     lb=0.0, ub=[2.0, 2.0, math.inf])
    assert solve(model).status is LpStatus.INFEASIBLE
    assert diagnose_infeasibility(model) == ["r0 (violation 6)", "r2 (violation 3)"]


def test_diagnosis_names_crossed_column_bounds():
    model = model_of({"x": 0.0}, lb=2.0, ub=1.0)
    assert solve(model).status is LpStatus.INFEASIBLE
    assert diagnose_infeasibility(model) == ["x (violation 1)"]


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


BROKEN = {
    # a model and the move of x from its optimum that breaks one row or
    # column bound by 1e-3
    ">= row": (lambda: model_of({"x": 1.0}, [[1.0]], [GE], [3.0]), [-1e-3]),
    "<= row": (lambda: model_of({"x": -1.0}, [[1.0]], [LE], [4.0], lb=0.0), [1e-3]),
    "= row": (lambda: model_of({"x": 1.0, "y": 2.0}, [[1.0, 1.0]], [EQ], [7.0], lb=0.0),
              [1e-3, 0.0]),
    "column bound": (lambda: model_of({"x": 1.0}, lb=2.0), [-1e-3]),
}
LINPROG = lp.linprog


def solve_altered(monkeypatch, model, alter):
    """`solve(model)` with `alter` applied to linprog's optimal result."""

    def altered(c, **kwargs):
        res = LINPROG(c, **kwargs)
        alter(res)
        return res

    monkeypatch.setattr(lp, "linprog", altered)
    return solve(model)


@pytest.mark.parametrize("name", BROKEN)
def test_optimum_outside_a_row_or_bound_fails_its_certificate(name, monkeypatch):
    build, move = BROKEN[name]
    assert solve(build()).certificates.primal_residual <= 1e-9

    def shift(res):
        res.x = res.x + np.array(move)

    with pytest.raises(SolverError, match="primal residual 1.000e-03"):
        solve_altered(monkeypatch, build(), shift)


def test_nan_primal_or_wrong_objective_fails_its_certificate(monkeypatch):
    build = BROKEN[">= row"][0]

    def nan(res):
        res.x = np.full_like(res.x, np.nan)

    def off(res):
        res.fun *= 1.01

    with pytest.raises(SolverError, match="primal residual nan"):
        solve_altered(monkeypatch, build(), nan)
    with pytest.raises(SolverError, match="duality gap"):
        solve_altered(monkeypatch, build(), off)


def test_bound_duals_are_read_by_sign(monkeypatch):
    # x sits at its upper bound and y at its lower: HiGHS's column duals are
    # -1 and 1, and the certificates price ub * -1 + lb * 1 into the dual
    # objective; no basis is read back unless prices are named
    results = []

    def kept(c, **kwargs):
        results.append(LINPROG(c, **kwargs))
        return results[-1]

    monkeypatch.setattr(lp, "linprog", kept)
    model = LpModel()
    model.add_vars(["x", "y"], [-1.0, 1.0], [0.0, 1.0], [3.0, 5.0])
    sol = solve(model)
    assert sol.objective == pytest.approx(-2.0)
    assert results[0].col_dual.tolist() == pytest.approx([-1.0, 1.0])
    assert results[0].basis is None
    assert sol.certificates.duality_gap <= 1e-12 and sol.certificates.complementarity == 0.0


def test_resolve_is_deterministic_in_objective():
    def build():
        return model_of({"x": 1.0, "y": 1.0}, [[1.0, 1.0]], [GE], [5.0])

    a = solve(build())
    b = solve(build())
    assert a.objective == pytest.approx(b.objective, rel=1e-6)


def tied():
    """min x + y  s.t.  x + y >= 1,  x, y in [0, 1]: every point of the
    segment x + y = 1 is optimal."""
    return model_of({"x": 1.0, "y": 1.0}, [[1.0, 1.0]], [GE], [1.0], lb=0.0, ub=1.0)


@pytest.mark.parametrize("then, expected", [((1.0, 0.0), [0.0, 1.0]), ((0.0, 1.0), [1.0, 0.0])])
def test_second_cost_picks_its_point_of_the_optimal_face(then, expected):
    sol = solve(tied(), then=then)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal.tolist() == pytest.approx(expected)
    assert sol.objective == pytest.approx(1.0)
    # the duals are the first solve's
    assert sol.duals.tolist() == solve(tied()).duals.tolist()


def test_second_cost_cannot_trade_away_the_first():
    # (-1, -1) alone would go to (1, 1) at cost 2; the face keeps x + y = 1
    sol = solve(tied(), then=(-1.0, -1.0))
    assert sol.objective == pytest.approx(1.0)
    assert sum(sol.primal.tolist()) == pytest.approx(1.0)


@pytest.mark.parametrize("then", [(1.0,), (1.0, 0.0, 0.0), (1.0, math.nan)])
def test_second_cost_of_the_wrong_shape_rejected(then):
    with pytest.raises(ValueError, match="second costs"):
        solve(tied(), then=then)


def test_second_cost_solve_is_certified_as_a_plain_one():
    # the certificates hold the face's primal to the first solve's duals;
    # every optimal point of `tied` meets them exactly, as the plain one does
    plain = solve(tied()).certificates
    assert solve(tied(), then=(1.0, 0.0)).certificates == plain
    assert solve(tied(), then=(0.0, 1.0)).certificates == plain


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError, match="non-finite objective"):
        LpModel().add_vars(["x"], [float("nan")])
    # and every other column block that does not fit: a NaN bound, a lower
    # bound of +inf, an upper one of -inf, costs or bounds of the wrong shape
    for costs, bounds, message in (
            ([0.0], {"lb": math.nan}, "lower bound nan or inf"),
            ([0.0], {"ub": [math.nan]}, "upper bound nan or -inf"),
            ([0.0], {"lb": math.inf}, "lower bound nan or inf"),
            ([0.0], {"ub": -math.inf}, "upper bound nan or -inf"),
            ([0.0, 1.0], {}, r"1 variables but \(2,\) objective coefficients"),
            ([0.0], {"ub": [1.0, 2.0]}, r"1 variables but bounds of shape \(2,\)")):
        empty = LpModel()
        with pytest.raises(ValueError, match=message):
            empty.add_vars(["x"], costs, **bounds)
    model = model_of({"x": 0.0})
    with pytest.raises(ValueError, match="non-finite"):
        model.add_rows(["r"], [GE], [0.0], [(0, 0, float("inf"))])
    with pytest.raises(ValueError, match="non-finite"):
        model.add_rows(["r"], [GE], [float("nan")], [(0, 0, 1.0)])


@pytest.mark.parametrize("columns, sections, message", [
    ([(["x"], [math.nan], 0.0, 5.0)], [(["r"], [GE], 2.0, [(0, 0, 1.0)])],
     "non-finite objective"),
    ([(["x"], 1.0, 0.0, 5.0)], [(["r"], [GE], 2.0, [(0, 2, 1.0)])],
     "outside the model's 2 columns"),
    ([(["x"], 1.0, 0.0, 5.0)], [(["r"], ["=>"], 2.0, [(0, 0, 1.0)])], "unknown sense"),
    ([(["x"], 1.0, 0.0, 5.0)], [(["r"], [GE], math.nan, [(0, 0, 1.0)])], "non-finite rhs"),
], ids=["nan-cost", "column-past-coupled", "unknown-sense", "nan-rhs"])
def test_malformed_block_rejected_where_built(columns, sections, message):
    # a block gets every check of add_vars and add_rows when it is built,
    # not first when it is appended to a model
    with pytest.raises(ValueError, match=message):
        lp.Block.of(columns, ["w"], [0.0], sections, [], np.zeros(0, int), {})


def test_column_index_outside_the_model_rejected():
    # and every other row block that does not fit: a row index outside the
    # block, an unknown sense, an rhs of the wrong length
    model = model_of({"x": 0.0})
    for sense, rhs, term, message in (
            ([GE], [0.0], (0, 1, 1.0), "outside the model's 1 columns"),
            ([GE], [0.0], (0, -1, 1.0), "outside the model's 1 columns"),
            ([GE], [0.0], (1, 0, 1.0), "outside the block's 1 rows"),
            ([GE], [0.0], (-1, 0, 1.0), "outside the block's 1 rows"),
            (["=>"], [0.0], (0, 0, 1.0), r"unknown sense in \['=>'\]"),
            ([GE], [0.0, 1.0], (0, 0, 1.0), "one sense and one rhs per row")):
        with pytest.raises(ValueError, match=message):
            model.add_rows(["r"], sense, rhs, [term])
    assert model.n_cons == 0


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


def test_solve_from_the_optimal_basis_of_an_equal_shape():
    # min x + 2y s.t. x + y >= b, x <= 4, 0 <= x <= x_max, y >= 0, solved at
    # b = 5, x_max = 10 from the optimal basis of an LP with another rhs
    # (b = 3) and of one with other column bounds too (b = 3, x_max = 2)
    def at(b, x_max):
        return model_of({"x": 1.0, "y": 2.0}, [[1.0, 1.0], [1.0, 0.0]], [GE, LE], [b, 4.0],
                        lb=0.0, ub=[x_max, math.inf])

    cold = solve(at(5.0, 10.0))
    assert cold.basis is None  # kept only for a caller that names its prices
    for start in (at(3.0, 10.0), at(3.0, 2.0)):
        warm = solve(at(5.0, 10.0), basis=solve(start, prices=[0]).basis, prices=[0])
        assert warm.objective == cold.objective == pytest.approx(6.0)
        assert warm.primal.tolist() == cold.primal.tolist()
        assert warm.duals.tolist() == cold.duals.tolist()


def test_warm_start_with_a_non_unique_price_solves_from_scratch(monkeypatch):
    # at b = 4, x = 4 meets both rows: any price of row 0 in [1, 2] is
    # optimal, so the basis of b = 3 is not trusted to pick the one a solve
    # from scratch reports
    def at(b):
        return model_of({"x": 1.0, "y": 2.0}, [[1.0, 1.0], [1.0, 0.0]], [GE, LE], [b, 4.0],
                        lb=0.0)

    basis = solve(at(3.0), prices=[0]).basis
    load, runs = lp._load, []

    def counted(highs_lp, start=None):
        runs.append(start)
        return load(highs_lp, start)

    monkeypatch.setattr(lp, "_load", counted)
    warm = solve(at(4.0), basis=basis, prices=[0])
    assert [start is basis for start in runs] == [True, False]
    cold = solve(at(4.0))
    assert warm.objective == cold.objective == pytest.approx(4.0)
    assert warm.duals.tolist() == cold.duals.tolist()
    # without a price to keep, the warm result stands
    runs.clear()
    solve(at(4.0), basis=basis)
    assert len(runs) == 1


def test_model_numbers_are_arrays_that_solves_leave_alone():
    # min 3w + x (w's own cost 1 and the block's coupled cost 2) s.t.
    # x + w >= 2, x + w <= 4, w in [0, 1], x in [0, 5]: w = 0, x = 2
    numbers = ("lb", "ub", "obj", "con_rhs", "_val")

    def arrays_hold_every_number(model):
        for name in numbers:
            assert isinstance(getattr(model, name), np.ndarray), name
            assert getattr(model, name).dtype == np.float64, name
        assert model._row.dtype == model._col.dtype == np.int64

    model = LpModel()
    w = model.add_vars(["w"], [1.0], 0.0, 1.0)
    arrays_hold_every_number(model)
    block = lp.Block.of([(["x"], 1.0, 0.0, 5.0)], ["w"], [2.0],
                        [(["r"], [GE], 2.0, [(0, np.arange(2), 1.0)])], [], np.zeros(0, int), {})
    block.append_to(model, coupled=w)
    arrays_hold_every_number(model)
    model.add_rows(["cap"], [LE], [4.0], [(0, np.arange(2), 1.0)])
    arrays_hold_every_number(model)
    assert model.obj.tolist() == [3.0, 1.0]

    # HiGHS, the face and the certificates get the model's own arrays
    before = {name: getattr(model, name).copy() for name in numbers + ("_row", "_col")}
    start = solve(model, prices=[0]).basis
    for sol in (solve(model, then=[0.0, 1.0]), solve(model, basis=start, prices=[0])):
        assert sol.primal.tolist() == [0.0, 2.0]
    for name, values in before.items():
        assert getattr(model, name).tobytes() == values.tobytes(), name


def test_one_linprog_call_per_lp(monkeypatch):
    # the benchmark's traced run times and sizes each LP by its `lp.linprog`
    # call: a solve makes one, a `then=` solve two (the face LP second, at
    # the second cost), and a warm start redone cold stays within its one
    def at(b):  # as in the warm-start test above: row 0's price is not unique at b = 4
        return model_of({"x": 1.0, "y": 2.0}, [[1.0, 1.0], [1.0, 0.0]], [GE, LE], [b, 4.0],
                        lb=0.0)

    basis = solve(at(3.0), prices=[0]).basis
    costs, loads, load = [], [], lp._load
    monkeypatch.setattr(lp, "linprog", lambda c, **kw: costs.append(list(c)) or LINPROG(c, **kw))
    monkeypatch.setattr(lp, "_load", lambda arrays, start=None: loads.append(start)
                        or load(arrays, start))
    for run, called, loaded in (
            (lambda: solve(tied()), [[1.0, 1.0]], 1),
            (lambda: solve(tied(), then=(1.0, 0.0)), [[1.0, 1.0], [1.0, 0.0]], 2),
            (lambda: solve(at(4.0), basis=basis, prices=[0]), [[1.0, 2.0]], 2),
            (lambda: solve(model_of({"x": 0.0}, lb=2.0, ub=1.0), then=[1.0]), [[0.0]], 1)):
        costs.clear()
        loads.clear()
        run()
        assert (costs, len(loads)) == (called, loaded)


def test_model_rejected_by_highs_is_a_solver_error():
    # HiGHS refuses coefficients above 1e15; that is no infeasible market
    with pytest.raises(SolverError, match="kModelError"):
        solve(model_of({"x": 1.0}, [[1e16]], [GE], [1.0], lb=0.0))


def test_basis_of_another_model_is_refused_or_only_a_start():
    basis = solve(model_of({"x": 1.0}, [[1.0]], [GE], [3.0]), prices=[0]).basis
    other = model_of({"x": 1.0, "y": 1.0}, [[1.0, 1.0], [1.0, 0.0]], [GE, GE], [2.0, 1.0])
    with pytest.raises(ValueError, match="basis does not fit"):
        solve(other, basis=basis)
    # same shape, other costs and rows: the answer is still the model's optimum
    same_shape = model_of({"x": 3.0, "y": -1.0}, [[1.0, -1.0], [0.0, 1.0]], [GE, LE],
                          [-1.0, 2.0], lb=0.0)
    warm = solve(same_shape, basis=solve(other, prices=[0]).basis)
    assert warm.objective == pytest.approx(solve(same_shape).objective) == pytest.approx(-1.0)


def test_highs_binding_has_what_the_seam_calls():
    # lp.linprog uses scipy's private HiGHS binding; a scipy release that
    # changes it should fail here rather than at the first solve
    from scipy.optimize._highspy._core import HighsLp, HighsOptions, _Highs

    for method in ("passOptions", "passModel", "setBasis", "run", "getModelStatus",
                   "getInfo", "getSolution", "getBasis", "getBasicVariables", "getBasisSolve"):
        assert callable(getattr(_Highs, method, None)), method
    for obj, fields in ((HighsOptions(), ("presolve", "output_flag", "log_to_console",
                                          "simplex_strategy")),
                        (HighsLp(), ("num_col_", "num_row_", "a_matrix_", "col_cost_",
                                     "col_lower_", "col_upper_", "row_lower_", "row_upper_"))):
        assert [f for f in fields if not hasattr(obj, f)] == []
    # the seam loads each LP through passModel's array form, which wants an
    # integrality entry per column
    from scipy.optimize._highspy._core import HighsStatus
    one = (np.array([1.0]), np.array([0.0]), np.array([np.inf]), np.array([1.0]),
           np.array([np.inf]), np.array([0, 1], dtype=np.int32), np.array([0], dtype=np.int32),
           np.array([1.0]))
    for integrality, status in ((np.zeros(1, dtype=np.int32), HighsStatus.kOk),
                                (np.zeros(0, dtype=np.int32), HighsStatus.kError)):
        highs = _Highs()
        highs.passOptions(lp._OPTIONS)
        assert highs.passModel(1, 1, 1, lp._COLWISE, lp._MINIMIZE, 0.0, *one,
                               integrality) == status
    # a reused object takes a new LP by passModel in place of the one it holds
    other = (one[0], np.array([0.5]), np.array([2.0]), *one[3:])
    for bounds, lp_ in ((([0.0], [np.inf]), one), (([0.5], [2.0]), other)):
        assert highs.passModel(1, 1, 1, lp._COLWISE, lp._MINIMIZE, 0.0, *lp_,
                               np.zeros(1, dtype=np.int32)) == HighsStatus.kOk
        assert (list(highs.getLp().col_lower_), list(highs.getLp().col_upper_)) == bounds


def scipy_reference(model):
    """The LP HiGHS should hold for `model`, assembled with scipy.sparse:
    every row in model order and as stated, as one CSR matrix with
    duplicates summed, in CSC form, and each row's bounds: (-inf, rhs) for
    "<=", (rhs, inf) for ">=" and (rhs, rhs) for "="."""
    row, col, val = (np.array(a) for a in (model._row, model._col, model._val))
    sense, rhs = np.array(model.con_sense), np.array(model.con_rhs)
    A = sparse.csr_matrix((val, (row, col)), shape=(model.n_cons, model.n_vars)).tocsc()
    A.sum_duplicates()
    return A, np.where(sense == LE, -np.inf, rhs), np.where(sense == GE, np.inf, rhs)


def three_terms_at_one_coordinate():
    # 0.1, 0.2 and 0.3 at (r0, x), repeated entries of one block:
    # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    model = LpModel()
    at = model.add_vars(["x", "y"], [1.0, 1.0], 0.0)
    model.add_rows(["r0", "r1"], [GE, EQ], [1.0, 2.0],
                   [([0, 0, 1, 1, 0, 0], at[[0, 1, 0, 1, 0, 0]], [0.1, 1.0, 1.0, 1.0, 0.2, 0.3])])
    return model


ASSEMBLED = {
    "mixed": lambda: model_of({"x": 1.0, "y": -1.0, "z": 2.0},
                              [[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0],
                               [0.0, 0.0, 3.0], [2.0, 0.0, 0.5], [0.0, -4.0, 1.0]],
                              [GE, LE, EQ, GE, LE, EQ], [1.0, 4.0, 3.0, 0.5, 5.0, -1.0],
                              lb=0.0, ub=[5.0, 6.0, math.inf]),
    "all equality": lambda: model_of({"x": 1.0, "y": 1.0}, [[1.0, -1.0], [3.0, 1.0]],
                                     [EQ, EQ], [1.0, 7.0]),
    "all inequality": lambda: model_of({"x": 1.0, "y": 1.0}, [[1.0, 2.0], [3.0, -1.0]],
                                       [LE, GE], [8.0, -2.0], lb=0.0),
    "no rows": lambda: model_of({"x": 1.0, "y": -1.0}, lb=0.0, ub=3.0),
    "three terms at one coordinate": three_terms_at_one_coordinate,
}


@pytest.mark.parametrize("name", ASSEMBLED)
def test_highs_gets_scipys_matrix_and_row_bounds(name, monkeypatch):
    model = ASSEMBLED[name]()
    held, load = [], lp._load
    monkeypatch.setattr(lp, "_load", lambda arrays, basis=None: held.append(load(arrays, basis))
                        or held[-1])
    solve(model)
    loaded = held[0].getLp()
    A, row_lower, row_upper = scipy_reference(model)

    def bits(a, dtype=float):
        return np.asarray(a, dtype=dtype).tobytes()

    assert (loaded.num_row_, loaded.num_col_) == A.shape
    assert bits(loaded.a_matrix_.start_, np.int64) == bits(A.indptr, np.int64)
    assert bits(loaded.a_matrix_.index_, np.int64) == bits(A.indices, np.int64)
    assert bits(loaded.a_matrix_.value_) == bits(A.data)
    assert bits(loaded.row_lower_) == bits(row_lower)
    assert bits(loaded.row_upper_) == bits(row_upper)
    for field, values in (("col_cost_", model.obj), ("col_lower_", model.lb),
                          ("col_upper_", model.ub)):
        assert bits(getattr(loaded, field)) == bits(values), field
    if name == "three terms at one coordinate":
        assert A.nnz == 4 and (0.1 + 0.2) + 0.3 in A.data.tolist()
