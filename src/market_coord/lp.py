"""LP layer over HiGHS with mandatory dual extraction.

A model is built in blocks: `LpModel.add_vars` appends columns,
`LpModel.add_rows` a sparse block of rows and `LpModel.add_coeffs` terms to
rows already there. `solve` returns the primal in column order and the duals
in row order, as arrays.

`solve` assembles each LP in one pass, from the model's coordinate triplets
straight to HiGHS's column-wise arrays (`Colwise`): the "<=" and negated
">=" rows first, then the "=" rows, entries sorted by column and row, and
the values at one coordinate summed in the order added. `linprog`, the one
seam to the solver, loads them with the array form of `passModel` in
scipy's bundled HiGHS binding (`scipy.optimize._highspy._core`), which
makes no Python object per entry. HiGHS so gets bit for bit the LP and
options of `scipy.optimize.linprog(method="highs")`, without scipy's
per-call checks and per-column marginal loop. The seam keeps scipy's name
and keywords (`c`, `A_ub`, `A_eq`, `nit`) because the benchmark's traced run
wraps `lp.linprog` by name and counts each solve's rows and nonzeros from
`A_ub` and `A_eq`: two `RowSpan`s of one `Colwise` matrix.

LPs that differ only in their rhs and column bounds can share a basis:
`solve(model, prices=rows)` keeps the optimal basis, and `solve(other,
basis=, prices=rows)` re-optimizes from it with dual simplex, skipping
presolve. A warm start may end at another optimal vertex than a solve from
scratch, and where an LP has more than one optimal dual the reported prices
would then depend on the start. So a warm result stands only where one
solve with its basis matrix shows the duals at `prices` to be the LP's only
optimal ones (then a solve from scratch reports them too, up to rounding);
otherwise the LP is solved again from scratch.

Sign convention (minimization): duals of ">="-constraints are >= 0, duals of
"<="-constraints are <= 0, equality duals are free. Every optimal solve is
certified: primal feasibility, primal/dual objective gap, and complementary
slackness residuals are computed, and the first two are held to `FEAS_TOL`
and `GAP_TOL`.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _highs

__all__ = [
    "Block",
    "LpModel",
    "LpSolution",
    "LpStatus",
    "Row",
    "SolverError",
    "solve",
    "diagnose_infeasibility",
    "certificate_log",
    "split_rows",
]

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)


class SolverError(RuntimeError):
    """Numerical breakdown or unexpected solver status (not infeasible/unbounded)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


FEAS_TOL = 1e-6  # absolute primal feasibility of an optimal solve
GAP_TOL = 1e-6  # relative primal/dual objective gap of an optimal solve


@dataclass
class Row:
    """A linear constraint: sum(coeffs[v] * v) `sense` rhs.

    Coefficient keys are variable names; builders may include names that are
    substituted or coupled in later (bid quantities, day-ahead schedules).
    """

    name: str
    coeffs: dict[str, float]
    sense: str
    rhs: float


class LpModel:
    """Sparse LP with named columns and rows (minimization), built in blocks.

    Constraint coefficients live in one coordinate list (row, column, value)
    in the order they were added; `add_vars` appends columns, `add_rows` a
    sparse block of rows and `add_coeffs` terms to existing rows.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.obj: list[float] = []
        self.con_names: list[str] = []
        self._con_index: dict[str, int] = {}
        self.con_sense: list[str] = []
        self.con_rhs: list[float] = []
        self._row = array("q")
        self._col = array("q")
        self._val = array("d")

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_cons(self) -> int:
        return len(self.con_names)

    def add_vars(self, names: Sequence[str], obj, lb=-math.inf, ub=math.inf) -> None:
        """Append variables `names` with objective coefficients `obj`.

        `lb` and `ub` are one bound for all of them or one bound each; the
        default is free.
        """
        obj = np.asarray(obj, dtype=float)
        if obj.shape != (len(names),):
            raise ValueError(f"{len(names)} variables but {obj.shape} objective coefficients")
        if not np.all(np.isfinite(obj)):
            raise ValueError("non-finite objective coefficient")
        self._extend_index(self._var_index, names, "variable")
        self.var_names.extend(names)
        self.lb.extend(_bounds(lb, len(names)))
        self.ub.extend(_bounds(ub, len(names)))
        self.obj.extend(obj.tolist())

    def add_obj(self, name: str, coeff: float) -> None:
        """Accumulate an objective coefficient onto an existing variable."""
        self.obj[self._var_index[name]] += coeff

    def add_rows(self, names: Sequence[str], matrix: sparse.coo_matrix, sense: Sequence[str],
                 rhs, columns: Sequence[str]) -> None:
        """Append one constraint per row of the sparse COO `matrix`.

        Row i reads `sum_j matrix[i, j] * columns[j]  sense[i]  rhs[i]`, where
        `columns` names an existing variable for each matrix column. Rows keep
        their order and explicit zeros are dropped.
        """
        rhs = np.asarray(rhs, dtype=float)
        if matrix.shape != (len(names), len(columns)):
            raise ValueError(
                f"block of shape {matrix.shape} for {len(names)} rows "
                f"and {len(columns)} columns"
            )
        if len(sense) != len(names) or rhs.shape != (len(names),):
            raise ValueError("one sense and one rhs per row required")
        if not set(sense) <= set(_SENSES):
            raise ValueError(f"unknown sense in {sorted(set(sense) - set(_SENSES))}")
        if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(matrix.data))):
            raise ValueError("non-finite rhs or coefficient in row block")
        start = len(self.con_names)
        self._extend_index(self._con_index, names, "constraint")
        self.con_names.extend(names)
        self.con_sense.extend(sense)
        self.con_rhs.extend(rhs.tolist())
        self._append(matrix, columns, start)

    def add_coeffs(self, matrix: sparse.coo_matrix, columns: Sequence[str]) -> None:
        """Add the sparse COO `matrix`, one row per existing constraint, to the
        coefficients of the variables `columns`; explicit zeros are dropped."""
        if matrix.shape != (self.n_cons, len(columns)):
            raise ValueError(f"block of shape {matrix.shape} for {self.n_cons} rows "
                             f"and {len(columns)} columns")
        if not np.all(np.isfinite(matrix.data)):
            raise ValueError("non-finite coefficient in block")
        self._append(matrix, columns, 0)

    def _append(self, matrix: sparse.coo_matrix, columns: Sequence[str], first_row: int) -> None:
        col_of = np.fromiter(
            (self._var_index[v] for v in columns), dtype=np.int64, count=len(columns)
        )
        keep = matrix.data != 0.0
        self._row.frombytes((matrix.row[keep].astype(np.int64) + first_row).tobytes())
        self._col.frombytes(col_of[matrix.col[keep]].tobytes())
        self._val.frombytes(matrix.data[keep].astype(float).tobytes())

    @staticmethod
    def _extend_index(index: dict[str, int], names: Sequence[str], kind: str) -> None:
        start = len(index)
        new = dict(zip(names, range(start, start + len(names))))
        if len(new) != len(names) or not index.keys().isdisjoint(new):
            raise ValueError(f"duplicate {kind} id in block")
        index.update(new)

    def _matrix(self) -> sparse.csr_matrix:
        """All constraint coefficients, one row per constraint."""
        return sparse.csr_matrix(
            (np.array(self._val), (np.array(self._row), np.array(self._col))),
            shape=(self.n_cons, self.n_vars),
        )

    def to_lp_text(self) -> str:
        """Dump in a readable LP-like text format (debugging aid)."""
        lines = [f"\\ model {self.name}", "Minimize"]
        terms = [
            f"{c:+g} {v}" for v, c in zip(self.var_names, self.obj) if c != 0.0
        ]
        lines.append(" obj: " + " ".join(terms) if terms else " obj: 0")
        lines.append("Subject To")
        A = self._matrix()
        for r, (name, sense, rhs) in enumerate(zip(self.con_names, self.con_sense, self.con_rhs)):
            lo, hi = A.indptr[r], A.indptr[r + 1]
            body = " ".join(f"{c:+g} {self.var_names[j]}"
                            for j, c in zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist()))
            lines.append(f" {name}: {body} {sense} {rhs:g}")
        lines.append("Bounds")
        for v, lo, hi in zip(self.var_names, self.lb, self.ub):
            lines.append(f" {lo:g} <= {v} <= {hi:g}")
        lines.append("End")
        return "\n".join(lines)


def split_rows(rows: Sequence[Row], cols: Sequence[str], outside: Sequence[str]):
    """The coefficients of `rows` as two sparse matrices, `(A, D)`.

    `A` is over `cols`, the block's own variables, and `D` over `outside`, the
    variables the rows couple to; every coefficient names one of the two.
    Explicit zeros are dropped, and the entries of both are in row order.
    """
    own_at = {v: j for j, v in enumerate(cols)}
    outside_at = {v: j for j, v in enumerate(outside)}
    own: list[tuple[int, int, float]] = []
    coupled: list[tuple[int, int, float]] = []
    for r, row in enumerate(rows):
        for var, c in row.coeffs.items():
            if c == 0.0:
                continue
            if var in own_at:
                own.append((r, own_at[var], c))
            else:
                coupled.append((r, outside_at[var], c))

    def matrix(entries, n_cols):
        r, c, v = zip(*entries) if entries else ((), (), ())
        return sparse.coo_matrix((v, (r, c)), shape=(len(rows), n_cols))

    return matrix(own, len(cols)), matrix(coupled, len(outside))


def _bounds(bound, n: int) -> list[float]:
    """`n` variable bounds from one bound for all or one bound each."""
    if np.isscalar(bound):
        return [float(bound)] * n
    bound = np.asarray(bound, dtype=float)
    if bound.shape != (n,):
        raise ValueError(f"{n} variables but bounds of shape {bound.shape}")
    return bound.tolist()


@dataclass(frozen=True)
class Block:
    """One market's LP in sparse form, built once and appended to models.

    Row i reads `A[i] x + D[i] z  sense[i]  rhs[i]`, where `x` are the
    block's own columns `cols`, each within `[lb, ub]`, and `z` the columns
    `d_cols` it is coupled to, which belong to another block. `append_to`
    either fixes `z` at given values or keeps it as variables of the model.
    """

    cols: list[str]
    cost: np.ndarray  # objective coefficient of each own column
    lb: np.ndarray  # bounds of each own column
    ub: np.ndarray
    rows: list[str]
    sense: list[str]
    rhs: np.ndarray  # with every coupled column at zero
    A: sparse.coo_matrix  # rows x cols
    d_cols: list[str]
    d_cost: np.ndarray  # objective coefficient of each coupled column
    D: sparse.coo_matrix  # rows x d_cols, entries in row order
    coupled: sparse.coo_matrix  # [A | D]
    bus_keys: list[tuple[str, int]]
    bal_rows: np.ndarray  # balance row of each bus_keys entry
    outputs: dict[str, tuple[list, np.ndarray]]  # result field -> (keys, column of each)

    @classmethod
    def from_rows(cls, rows: Sequence[Row], columns: dict[str, tuple[float, float, float]],
                  d_cost: dict[str, float], balance: dict[tuple[str, int], int],
                  outputs: dict, **extra):
        """The block of `rows`, built once.

        `columns` gives the objective coefficient and the lower and upper
        bound of each own column, and `d_cost` the objective coefficient of
        each coupled column, both in column order; `balance` the balance row
        of each (bus, hour); `outputs` maps each result field to its keys
        and the function naming the column of a key.
        """
        cols, d_cols = list(columns), list(d_cost)
        A, D = split_rows(rows, cols, d_cols)
        col = {v: j for j, v in enumerate(cols)}
        cost, lb, ub = np.array(list(columns.values()), dtype=float).reshape(-1, 3).T
        return cls(
            cols=cols,
            cost=cost,
            lb=lb,
            ub=ub,
            rows=[row.name for row in rows],
            sense=[row.sense for row in rows],
            rhs=np.array([row.rhs for row in rows], dtype=float),
            A=A,
            d_cols=d_cols,
            d_cost=np.array(list(d_cost.values()), dtype=float),
            D=D,
            coupled=sparse.hstack([A, D], format="coo"),
            bus_keys=list(balance),
            bal_rows=np.array(list(balance.values()), dtype=np.int64),
            outputs={
                field: (keys, np.array([col[name(*key)] for key in keys], dtype=np.int64))
                for field, (keys, name) in outputs.items()
            },
            **extra,
        )

    def append_to(self, model: LpModel, fixed=None, rhs=None, ub=None, cost=None,
                  suffix: str = "", weight: float = 1.0) -> float:
        """Append the block's columns and rows to `model`.

        With `fixed`, the coupled columns are substituted at those values and
        their cost, a constant, is returned. Without, they stay variables of
        `model`, their cost joins its objective and 0.0 is returned. `rhs`,
        `ub` and `cost` replace the block's own, `suffix` ends every column
        and row name, and every cost is scaled by `weight`.
        """
        rhs = self.rhs if rhs is None else rhs
        cost = self.cost if cost is None else cost
        cols = [v + suffix for v in self.cols] if suffix else self.cols
        rows = [r + suffix for r in self.rows] if suffix else self.rows
        d_cost = weight * self.d_cost
        model.add_vars(cols, weight * cost, self.lb, self.ub if ub is None else ub)
        if fixed is not None:
            fixed = np.asarray(fixed, dtype=float)
            # rhs - D @ fixed, subtracted term by term in row order, as
            # substituting the values into each row in turn does
            rhs = rhs.copy()
            np.subtract.at(rhs, self.D.row, self.D.data * fixed[self.D.col])
            model.add_rows(rows, self.A, self.sense, rhs, cols)
            return sum((d_cost * fixed).tolist())
        for v, c in zip(self.d_cols, d_cost.tolist()):
            model.add_obj(v, c)
        model.add_rows(rows, self.coupled, self.sense, rhs, cols + self.d_cols)
        return 0.0

    def read(self, x: np.ndarray) -> dict[str, dict]:
        """Each result field as {key: value} from the primal `x`."""
        return {field: dict(zip(keys, x[cols].tolist()))
                for field, (keys, cols) in self.outputs.items()}

    def balance_duals(self, y: np.ndarray) -> dict[tuple[str, int], float]:
        """The dual of each (bus, hour) balance row, its LMP, from the duals `y`."""
        return dict(zip(self.bus_keys, y[self.bal_rows].tolist()))


@dataclass
class LpCertificates:
    primal_residual: float
    duality_gap: float  # relative
    complementarity: float


@dataclass
class LpSolution:
    """Solver result; `primal` is in column order and `duals` in row order,
    all None unless the status is optimal. `basis` is HiGHS's optimal basis,
    kept only when `solve` was given `prices`."""

    status: LpStatus
    objective: float | None = None
    primal: np.ndarray | None = None
    duals: np.ndarray | None = None
    certificates: LpCertificates | None = None
    basis: _highs.HighsBasis | None = None


# Optional global log of solve certificates, used by the acceptance suite to
# audit every solve performed in a run. Disabled unless a list is installed.
_certificate_log: list[tuple[str, LpCertificates]] | None = None


def certificate_log(enable: bool) -> list[tuple[str, LpCertificates]]:
    """Enable/disable global certificate collection; returns the live list."""
    global _certificate_log
    _certificate_log = [] if enable else None
    return _certificate_log if _certificate_log is not None else []


@dataclass(frozen=True)
class Colwise:
    """A constraint matrix in HiGHS's column-wise arrays: column j holds the
    entries `start[j]` up to `start[j + 1]`, each with its row in `index`,
    ascending, and its `value`."""

    shape: tuple[int, int]
    start: np.ndarray  # int32
    index: np.ndarray  # int32
    value: np.ndarray

    @classmethod
    def of(cls, model: LpModel, highs_row: np.ndarray, sign: np.ndarray) -> Colwise:
        """`model`'s coefficients with row i moved to `highs_row[i]` and
        scaled by `sign[i]`; the values at one coordinate are summed one by
        one in the order added, as scipy's `sum_duplicates` sums them."""
        row, col = np.array(model._row), np.array(model._col)
        value = np.array(model._val) * sign[row]
        row = highs_row[row]
        shape = (model.n_cons, model.n_vars)
        order = np.argsort(col * shape[0] + row, kind="stable")
        row, col, value = row[order], col[order], value[order]
        first = np.ones(value.size, dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        if not first.all():
            summed = np.zeros(np.count_nonzero(first))
            np.add.at(summed, np.cumsum(first) - 1, value)
            row, col, value = row[first], col[first], summed
        start = np.zeros(shape[1] + 1, dtype=np.int32)
        np.cumsum(np.bincount(col, minlength=shape[1]), out=start[1:])
        return cls(shape, start, row.astype(np.int32), value)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """`A @ x`, summed entry by entry in column order, as scipy's CSC
        product sums it."""
        per_entry = np.repeat(x, np.diff(self.start))
        return np.bincount(self.index, self.value * per_entry, minlength=self.shape[0])

    def split(self, m: int) -> tuple[RowSpan, RowSpan]:
        """The rows before `m` and the rows from `m` on."""
        n_row, n_col = self.shape
        nnz = int(np.count_nonzero(self.index < m))
        return (RowSpan(self, (m, n_col), nnz),
                RowSpan(self, (n_row - m, n_col), self.value.size - nnz))


class RowSpan(NamedTuple):
    """Some of `matrix`'s rows, with scipy's `shape` and `nnz`."""

    matrix: Colwise
    shape: tuple[int, int]
    nnz: int


# scipy's options for `linprog(method="highs")`, set once: presolve on, no
# output, dual simplex
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
_OPTIMAL = _highs.HighsModelStatus.kOptimal
_AT_LOWER = int(_highs.HighsBasisStatus.kLower)
_AT_UPPER = int(_highs.HighsBasisStatus.kUpper)


def linprog(c, *, A_ub: RowSpan, b_ub, A_eq: RowSpan, b_eq, bounds, basis=None,
            prices=()) -> SimpleNamespace:
    """min c x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub.

    `A_ub` and `A_eq` are the leading and the trailing rows of one
    `Colwise` matrix, and `bounds` is `(lb, ub)`, one array each. HiGHS gets
    that matrix, row bounds (-inf, b_ub) and (b_eq, b_eq) and scipy's
    options: what `scipy.optimize.linprog(method="highs")` gives it for the
    same rows. A fresh HiGHS object solves each call, so the result depends
    on its inputs alone.

    `prices` are rows whose duals the caller reports; with them the result
    carries the optimal basis. With `basis`, the optimal basis of an LP that
    differs from this one only in its rhs and column bounds, the solve
    starts from it. That
    result stands only if `_unique_duals` finds the duals at `prices` to be
    the LP's only optimal ones; otherwise the LP is solved again from
    scratch, so they are what a solve from scratch reports.

    Returns HiGHS's model status and simplex iterations (`nit`, both solves
    counted) and, when optimal, `x`, `fun`, the row duals `ineqlin` and
    `eqlin`, the bound duals `lower` and `upper` and `basis`.
    """
    A = A_ub.matrix
    n_row, n_col = A.shape
    lb, ub = bounds
    row_lower = np.concatenate((np.full(len(b_ub), -np.inf), b_eq))
    row_upper = np.concatenate((b_ub, b_eq))
    # passModel's array form; HiGHS refuses an empty integrality array
    model = (n_col, n_row, A.value.size, _COLWISE, _MINIMIZE, 0.0, c, lb, ub, row_lower,
             row_upper, A.start, A.index, A.value, np.zeros(n_col, dtype=np.int32))

    highs = _load(model, basis)
    if highs is None:
        return SimpleNamespace(status=_highs.HighsModelStatus.kModelError, nit=0)
    highs.run()
    nit = _iterations(highs)
    optimum = _optimum(highs)
    if basis is not None and (optimum is None or not _unique_duals(
            highs, optimum[0], A, np.concatenate((lb, row_lower)),
            np.concatenate((ub, row_upper)), np.asarray(prices, dtype=np.int64))):
        highs = _load(model)
        highs.run()
        nit += _iterations(highs)
        optimum = _optimum(highs)
    status = highs.getModelStatus()
    if optimum is None:
        return SimpleNamespace(status=status, nit=nit)
    x, y, z = optimum
    optimal = highs.getBasis()
    # a bound's dual is the column dual where the column sits at that bound
    at = np.fromiter(map(int, optimal.col_status), dtype=np.int8, count=n_col)
    return SimpleNamespace(
        status=status, nit=nit, x=x,
        fun=highs.getInfo().objective_function_value,
        ineqlin=y[:len(b_ub)],
        eqlin=y[len(b_ub):],
        lower=np.where(at == _AT_LOWER, z, 0.0),
        upper=np.where(at == _AT_UPPER, z, 0.0),
        basis=optimal if len(prices) else None,
    )


def _load(model: tuple, basis: _highs.HighsBasis | None = None) -> _highs._Highs | None:
    """A fresh HiGHS object holding `model`, the arguments of `passModel`'s
    array form, to start from `basis` if given; None if HiGHS refuses it."""
    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(*model) == _highs.HighsStatus.kError:
        return None
    if basis is not None and highs.setBasis(basis) == _highs.HighsStatus.kError:
        raise ValueError(f"basis does not fit an LP of {highs.getNumRow()} rows "
                         f"and {highs.getNumCol()} columns")
    return highs


def _iterations(highs: _highs._Highs) -> int:
    info = highs.getInfo()
    return info.simplex_iteration_count or info.ipm_iteration_count


def _optimum(highs: _highs._Highs) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The primal, the row duals and the column duals of a solved LP, or
    None unless it is optimal."""
    if highs.getModelStatus() != _OPTIMAL:
        return None
    solution = highs.getSolution()
    return (np.array(solution.col_value), np.array(solution.row_dual),
            np.array(solution.col_dual))


def _unique_duals(highs: _highs._Highs, x: np.ndarray, A: Colwise, lower: np.ndarray,
                  upper: np.ndarray, rows: np.ndarray) -> bool:
    """Whether every optimal dual of the LP that `highs` solved to the
    optimum `x` has HiGHS's dual at each of `rows`; `lower` and `upper`
    bound the columns, then the rows.

    Any optimal dual differs from HiGHS's by B^-T d, where B is the optimal
    basis matrix and d the reduced costs it gives the basic variables.
    Complementary slackness makes d zero at each basic variable strictly
    inside its bounds. So the duals at `rows` are unique if the columns of
    B^-1 for `rows` are zero at every degenerate basic variable (one at a
    bound). One solve with B tests them at once, for a combination with
    random positive weights: nonzero entries cancel only for a set of
    weights of measure zero.
    """
    if not rows.size:
        return True
    _, basic = highs.getBasicVariables()  # column j as j, row i as -1 - i
    var = np.where(basic >= 0, basic, len(x) - 1 - basic)
    value = np.concatenate((x, A @ x))[var]
    tol = 1e-7 * (1.0 + np.abs(value))
    degenerate = (value - lower[var] <= tol) | (upper[var] - value <= tol)
    weights = np.zeros(A.shape[0])
    weights[rows] = np.random.default_rng(0).uniform(1.0, 2.0, rows.size)
    _, combined = highs.getBasisSolve(weights)
    return not np.any(np.abs(combined[degenerate]) > 1e-9)


def solve(model: LpModel, basis: _highs.HighsBasis | None = None,
          prices: Sequence[int] = ()) -> LpSolution:
    """Solve `model` and return primal/dual certificates.

    `prices` are rows whose duals the caller reports; with them the solution
    keeps its optimal basis. With `basis`, the optimal basis of an LP that
    differs from `model` only in its rhs and column bounds, HiGHS starts
    from it (ValueError
    if the shapes differ), and the result is kept only where the duals at
    `prices` are the model's only optimal ones; otherwise `model` is solved
    from scratch (see `linprog`). Raises SolverError when HiGHS reports a
    numerical failure, or when an "optimal" result violates the
    feasibility/duality-gap certificates. Infeasible and unbounded are
    ordinary statuses, not errors.
    """
    # HiGHS's rows: the "<=" and negated ">=" rows, then the "=" rows, each
    # in model order
    sense = np.array(model.con_sense, dtype="<U2")
    is_eq = sense == EQ
    order = np.argsort(is_eq, kind="stable")  # model row of each HiGHS row
    highs_row = np.argsort(order)  # HiGHS row of each model row
    m = model.n_cons - int(np.count_nonzero(is_eq))
    sign = np.where(sense == GE, -1.0, 1.0)
    A = Colwise.of(model, highs_row, sign)
    b = (sign * np.array(model.con_rhs, dtype=float))[order]
    lbv = np.array(model.lb, dtype=float)
    ubv = np.array(model.ub, dtype=float)
    A_ub, A_eq = A.split(m)
    res = linprog(np.array(model.obj), A_ub=A_ub, b_ub=b[:m], A_eq=A_eq, b_eq=b[m:],
                  bounds=(lbv, ubv), basis=basis,
                  prices=highs_row[np.asarray(prices, dtype=np.int64)])
    if res.status == _highs.HighsModelStatus.kInfeasible:
        return LpSolution(status=LpStatus.INFEASIBLE)
    if res.status == _highs.HighsModelStatus.kUnbounded:
        return LpSolution(status=LpStatus.UNBOUNDED)
    if res.status != _OPTIMAL:
        raise SolverError(f"solver failure on {model.name!r}: HiGHS status {res.status.name}")

    x = res.x
    y_highs = np.concatenate((res.ineqlin, res.eqlin))
    # negated ">=" rows: dual of the original row flips sign back
    y = sign * y_highs[highs_row]
    zl, zu = res.lower, res.upper

    # certificates, over HiGHS's rows: one product A @ x
    residual = A @ x - b
    finite_lb, finite_ub = np.isfinite(lbv), np.isfinite(ubv)
    lbf, ubf = np.where(finite_lb, lbv, 0.0), np.where(finite_ub, ubv, 0.0)
    with np.errstate(invalid="ignore"):
        bnd_viol = np.maximum(lbv - x, 0.0) + np.maximum(x - ubv, 0.0)
    feas = float(max(np.max(np.maximum(residual[:m], 0.0), initial=0.0),
                     np.max(np.abs(residual[m:]), initial=0.0),
                     np.max(bnd_viol, where=np.isfinite(bnd_viol), initial=0.0)))
    dual_obj = float(b @ y_highs) + float(np.sum(lbf * zl)) + float(np.sum(ubf * zu))
    gap = abs(res.fun - dual_obj) / max(1.0, abs(res.fun))
    comp = float(max(np.max(np.abs(residual[:m] * res.ineqlin), initial=0.0),
                     np.max(np.abs(np.where(finite_lb, x - lbf, 0.0) * zl), initial=0.0),
                     np.max(np.abs(np.where(finite_ub, ubf - x, 0.0) * zu), initial=0.0)))

    certs = LpCertificates(primal_residual=feas, duality_gap=gap, complementarity=comp)
    if _certificate_log is not None:
        _certificate_log.append((model.name, certs))
    # `not <=`, so that a NaN residual or gap fails too
    if not feas <= FEAS_TOL:
        raise SolverError(f"{model.name!r}: primal residual {feas:.3e} exceeds {FEAS_TOL:g}")
    if not gap <= GAP_TOL:
        raise SolverError(f"{model.name!r}: duality gap {gap:.3e} exceeds {GAP_TOL:g}")
    return LpSolution(status=LpStatus.OPTIMAL, objective=float(res.fun), primal=x, duals=y,
                      certificates=certs, basis=res.basis)


def diagnose_infeasibility(model: LpModel, top: int = 10) -> list[str]:
    """Name the constraints that cannot be met, via an elastic relaxation.

    Columns whose lower bound exceeds their upper bound are named first, by
    the amount they cross, and then alone, since no relaxation of the rows
    can meet them. Otherwise adds nonnegative violation slacks to every row,
    minimizes the total violation, and reports rows carrying slack above
    tolerance.
    """
    crossed = _worst((np.array(model.lb) - np.array(model.ub)).tolist(), model.var_names, top)
    if crossed:
        return crossed
    elastic = LpModel(name=f"{model.name}-elastic")
    elastic.add_vars(model.var_names, np.zeros(model.n_vars), model.lb, model.ub)
    elastic.add_rows(model.con_names, model._matrix().tocoo(), model.con_sense,
                     model.con_rhs, model.var_names)
    # row by row, a slack for falling short of a ">=" or "=" row and one for
    # exceeding a "<=" or "=" row
    rows, signs, slacks = [], [], []
    for r, (name, sense) in enumerate(zip(model.con_names, model.con_sense)):
        for slack, sign, applies in (("__sp", 1.0, sense != LE), ("__sm", -1.0, sense != GE)):
            if applies:
                rows.append(r)
                signs.append(sign)
                slacks.append(f"{slack}[{name}]")
    elastic.add_vars(slacks, np.ones(len(slacks)), 0.0)
    elastic.add_coeffs(sparse.coo_matrix((signs, (rows, range(len(slacks)))),
                                         shape=(model.n_cons, len(slacks))), slacks)
    sol = solve(elastic)
    if sol.status is not LpStatus.OPTIMAL:
        return ["elastic diagnosis failed"]
    viol = np.zeros(model.n_cons)
    np.add.at(viol, rows, sol.primal[model.n_vars:])
    return _worst(viol.tolist(), model.con_names, top)


def _worst(violation: list[float], names: list[str], top: int) -> list[str]:
    """The `top` names with the largest violation above 1e-7, largest first."""
    scored = sorted(((v, name) for v, name in zip(violation, names) if v > 1e-7),
                    reverse=True)
    return [f"{name} (violation {v:.4g})" for v, name in scored[:top]]
