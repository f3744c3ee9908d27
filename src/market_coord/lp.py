"""Thin LP layer over scipy's HiGHS backend with mandatory dual extraction.

A model is built in blocks: `LpModel.add_vars` appends columns,
`LpModel.add_rows` a sparse block of rows and `LpModel.add_coeffs` terms to
rows already there. `solve` returns the primal in column order and the duals
in row order, as arrays.

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
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

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
    return np.broadcast_to(np.asarray(bound, dtype=float), (n,)).tolist()


@dataclass(frozen=True)
class Block:
    """One market's LP in sparse form, built once and appended to models.

    Row i reads `A[i] x + D[i] z  sense[i]  rhs[i]`, where `x` are the
    block's own columns `cols` and `z` the columns `d_cols` it is coupled to,
    which belong to another block. `append_to` either fixes `z` at given
    values or keeps it as variables of the model.
    """

    cols: list[str]
    cost: np.ndarray  # objective coefficient of each own column
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
    def from_rows(cls, rows: Sequence[Row], cost: dict[str, float],
                  d_cost: dict[str, float], balance: dict[tuple[str, int], int],
                  outputs: dict, **extra):
        """The block of `rows`, built once.

        `cost` and `d_cost` give the objective coefficient of each own and
        each coupled column, in column order; `balance` the balance row of
        each (bus, hour); `outputs` maps each result field to its keys and
        the function naming the column of a key.
        """
        cols, d_cols = list(cost), list(d_cost)
        A, D = split_rows(rows, cols, d_cols)
        col = {v: j for j, v in enumerate(cols)}
        return cls(
            cols=cols,
            cost=np.array(list(cost.values()), dtype=float),
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

    def append_to(self, model: LpModel, fixed=None, rhs=None, cost=None,
                  suffix: str = "", weight: float = 1.0) -> float:
        """Append the block's columns and rows to `model`.

        With `fixed`, the coupled columns are substituted at those values and
        their cost, a constant, is returned. Without, they stay variables of
        `model`, their cost joins its objective and 0.0 is returned. `rhs`
        and `cost` replace the block's own, `suffix` ends every column and
        row name, and every cost is scaled by `weight`.
        """
        rhs = self.rhs if rhs is None else rhs
        cost = self.cost if cost is None else cost
        cols = [v + suffix for v in self.cols] if suffix else self.cols
        rows = [r + suffix for r in self.rows] if suffix else self.rows
        d_cost = weight * self.d_cost
        model.add_vars(cols, weight * cost)
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
    both None unless the status is optimal."""

    status: LpStatus
    objective: float | None = None
    primal: np.ndarray | None = None
    duals: np.ndarray | None = None
    certificates: LpCertificates | None = None


# Optional global log of solve certificates, used by the acceptance suite to
# audit every solve performed in a run. Disabled unless a list is installed.
_certificate_log: list[tuple[str, LpCertificates]] | None = None


def certificate_log(enable: bool) -> list[tuple[str, LpCertificates]]:
    """Enable/disable global certificate collection; returns the live list."""
    global _certificate_log
    _certificate_log = [] if enable else None
    return _certificate_log if _certificate_log is not None else []


def _matrices(model: LpModel):
    """Split rows into equality and <= blocks (>= rows are negated)."""
    sense = np.array(model.con_sense, dtype="<U2")
    rhs = np.array(model.con_rhs, dtype=float)
    is_eq = sense == EQ
    eq_idx = np.flatnonzero(is_eq)
    ub_idx = np.flatnonzero(~is_eq)
    ub_sign = np.where(sense[ub_idx] == GE, -1.0, 1.0)
    sign = np.ones(model.n_cons)
    sign[ub_idx] = ub_sign
    pos = np.empty(model.n_cons, dtype=np.int64)  # row within its block
    pos[eq_idx] = np.arange(eq_idx.size)
    pos[ub_idx] = np.arange(ub_idx.size)
    row, col, val = np.array(model._row), np.array(model._col), np.array(model._val)

    def block(on, n_rows):
        r = pos[row[on]]
        order = np.argsort(r, kind="stable")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n_rows), out=indptr[1:])
        data = (val[on] * sign[row[on]])[order]
        return sparse.csr_matrix((data, col[on][order], indptr), shape=(n_rows, model.n_vars))

    on_eq = is_eq[row]
    A_eq = block(on_eq, eq_idx.size)
    A_ub = block(~on_eq, ub_idx.size)
    return eq_idx, ub_idx, ub_sign, A_eq, rhs[eq_idx], A_ub, ub_sign * rhs[ub_idx]


def solve(model: LpModel) -> LpSolution:
    """Solve `model` and return primal/dual certificates.

    Raises SolverError when HiGHS reports a numerical failure, or when an
    "optimal" result violates the feasibility/duality-gap certificates.
    Infeasible and unbounded are ordinary statuses, not errors.
    """
    eq_idx, ub_idx, ub_sign, A_eq, b_eq, A_ub, b_ub = _matrices(model)
    c = np.array(model.obj)
    lbv = np.array(model.lb, dtype=float)
    ubv = np.array(model.ub, dtype=float)
    res = linprog(
        c,
        A_ub=A_ub if len(ub_idx) else None,
        b_ub=b_ub if len(ub_idx) else None,
        A_eq=A_eq if len(eq_idx) else None,
        b_eq=b_eq if len(eq_idx) else None,
        bounds=np.column_stack((lbv, ubv)),
        method="highs",
    )
    if res.status == 2:
        return LpSolution(status=LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpSolution(status=LpStatus.UNBOUNDED)
    if res.status != 0:
        raise SolverError(f"solver failure on {model.name!r}: {res.message}")

    x = np.asarray(res.x)

    y = np.zeros(model.n_cons)
    if len(eq_idx):
        y[eq_idx] = res.eqlin.marginals
    if len(ub_idx):
        # negated ">=" rows: dual of the original row flips sign back
        y[ub_idx] = ub_sign * res.ineqlin.marginals

    zl = np.asarray(res.lower.marginals) if model.n_vars else np.zeros(0)
    zu = np.asarray(res.upper.marginals) if model.n_vars else np.zeros(0)

    # certificates
    feas = 0.0
    if len(eq_idx):
        feas = max(feas, float(np.max(np.abs(A_eq @ x - b_eq))))
    if len(ub_idx):
        feas = max(feas, float(np.max(np.maximum(A_ub @ x - b_ub, 0.0))))
    with np.errstate(invalid="ignore"):
        bnd_viol = np.maximum(lbv - x, 0.0) + np.maximum(x - ubv, 0.0)
    bnd_viol = np.where(np.isfinite(bnd_viol), bnd_viol, 0.0)
    if model.n_vars:
        feas = max(feas, float(np.max(bnd_viol)))

    dual_obj = 0.0
    if len(eq_idx):
        dual_obj += float(b_eq @ res.eqlin.marginals)
    if len(ub_idx):
        dual_obj += float(b_ub @ res.ineqlin.marginals)
    finite_lb = np.isfinite(lbv)
    finite_ub = np.isfinite(ubv)
    dual_obj += float(np.sum(np.where(finite_lb, lbv, 0.0) * zl))
    dual_obj += float(np.sum(np.where(finite_ub, ubv, 0.0) * zu))
    gap = abs(res.fun - dual_obj) / max(1.0, abs(res.fun))

    comp = 0.0
    if len(ub_idx):
        slack = b_ub - A_ub @ x
        comp = max(comp, float(np.max(np.abs(slack * res.ineqlin.marginals))))
    lb_slack = np.where(finite_lb, x - np.where(finite_lb, lbv, 0.0), 0.0)
    ub_slack = np.where(finite_ub, np.where(finite_ub, ubv, 0.0) - x, 0.0)
    if model.n_vars:
        comp = max(comp, float(np.max(np.abs(lb_slack * zl))))
        comp = max(comp, float(np.max(np.abs(ub_slack * zu))))

    certs = LpCertificates(primal_residual=feas, duality_gap=gap, complementarity=comp)
    if _certificate_log is not None:
        _certificate_log.append((model.name, certs))
    if feas > FEAS_TOL:
        raise SolverError(f"{model.name!r}: primal residual {feas:.3e} exceeds {FEAS_TOL:g}")
    if gap > GAP_TOL:
        raise SolverError(f"{model.name!r}: duality gap {gap:.3e} exceeds {GAP_TOL:g}")
    return LpSolution(
        status=LpStatus.OPTIMAL,
        objective=float(res.fun),
        # a copy, so that no part of linprog's result outlives this call:
        # keeping its own `x` raised peak RSS on repeated relaxed bid LPs
        # (6 buses, 10 scenarios) from about 150 to 163 MB
        primal=x.copy(),
        duals=y,
        certificates=certs,
    )


def diagnose_infeasibility(model: LpModel, top: int = 10) -> list[str]:
    """Name the constraints that cannot be met, via an elastic relaxation.

    Adds nonnegative violation slacks to every row, minimizes the total
    violation, and reports rows carrying slack above tolerance.
    """
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
    scored = sorted(((v, name) for v, name in zip(viol.tolist(), model.con_names) if v > 1e-7),
                    reverse=True)
    return [f"{name} (violation {v:.4g})" for v, name in scored[:top]]
