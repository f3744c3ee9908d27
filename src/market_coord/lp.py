"""LP layer over HiGHS with mandatory dual extraction.

A model is built in blocks, each column addressed by its index:
`LpModel.add_vars` appends columns and returns their indices, and `add_rows`
rows stated as (row, column, value) terms, which never change after; names
are labels, for diagnosis. Each cost, bound and rhs is one value for all
of a block or one value each. `solve` returns the primal in column order and
the duals in row order, as arrays. A market's LP is a `Block`, built once
through `add_vars` and `add_rows` (`Block.of`) and appended to models
(`Block.append_to`), coupled to another block's columns by their indices.
Each market declares all of its column kinds in its block, VoLL shedding
included.

`solve` assembles each LP in one pass, from the model's coordinate triplets
straight to HiGHS's column-wise arrays (`Colwise`), and hands HiGHS each row
as the model states it, with its own bounds: (-inf, rhs) for "<=",
(rhs, inf) for ">=" and (rhs, rhs) for "=". The inequality rows come first
and the "=" rows after, each in model order: HiGHS picks its vertex of a
degenerate LP by row order, and the reported quantities, LMPs and
diagnoses follow that vertex. Entries are sorted by column and row, and the
values at one coordinate summed in the order added. `linprog`, the one seam
to the solver, loads them with the array form of `passModel` in scipy's
bundled HiGHS binding (`scipy.optimize._highspy._core`), which makes no
Python object per entry. The seam keeps the names `c`, `A_ub`, `A_eq` and
`nit` because the benchmark's traced run wraps `lp.linprog` by name and
counts each solve's rows and nonzeros from `A_ub` and `A_eq`: the
inequality and the equality rows, two `RowSpan`s of one `Colwise` matrix.

LPs that differ only in their rhs and column bounds can share a basis:
`solve(model, prices=rows)` keeps a start, the optimal basis and the HiGHS
object that found it, and `solve(other, basis=, prices=rows)` re-optimizes
from that basis with dual simplex, skipping presolve, on the start's object:
`passModel` replaces the LP it holds and clears its solver, so each result
is, bit for bit, what a fresh object loaded from the same arrays gives,
without making one. A warm start may end at another optimal vertex than a
solve from scratch, and where an LP has more than one optimal dual the
reported prices would then depend on the start. So a warm result stands only
where one solve with its basis matrix shows the duals at `prices` to be the
LP's only optimal ones (then a solve from scratch reports them too, up to
rounding); otherwise the LP is solved again from scratch, on a fresh object.

An LP with more than one optimal primal can break the tie by a second
cost: `solve(model, then=costs)` minimizes `costs` over the first solve's
exact optimal face, fixing each column with a nonzero reduced cost and each
row with a nonzero dual at its bound, by a second `linprog` call. The
primal comes from that second solve, the duals and the basis from the
first, whose duals are optimal for the whole face: the certificates hold
the one to the other.

Sign convention (minimization), HiGHS's own: duals of ">="-constraints are
>= 0, duals of "<="-constraints are <= 0, equality duals are free. Every
optimal solve is certified: primal feasibility, primal/dual objective gap,
and complementary slackness residuals are computed, and the first two are
held to `FEAS_TOL` and `GAP_TOL`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize._highspy import _core as _highs

__all__ = [
    "Block",
    "LpModel",
    "LpSolution",
    "LpStatus",
    "SolverError",
    "solve",
    "diagnose_infeasibility",
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
DIAGNOSIS_TOP = 10  # names `diagnose_infeasibility` lists at most


class LpModel:
    """Sparse LP (minimization), built in blocks and addressed by position.

    Every number is in a NumPy array, grown block by block: the column
    bounds `lb` and `ub`, the costs `obj` and the rhs `con_rhs` are float
    arrays, and the coefficients are coordinate arrays (row, column, value)
    in the order they were added. `solve` hands these arrays to HiGHS as
    they are. A model that is only solved again may have any of `lb`, `ub`,
    `obj` and `con_rhs` replaced by a float array of the same length, as
    `rtm.expected_rt_cost` does per scenario. `con_sense` and the names are
    labels, in lists: each block keeps the names it was given and a suffix;
    `var_names` and `con_names` spell them out on demand.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.lb = self.ub = self.obj = self.con_rhs = np.zeros(0)
        self.con_sense: list[str] = []
        self._var_labels: list[tuple[Sequence[str], str]] = []
        self._con_labels: list[tuple[Sequence[str], str]] = []
        self._row = self._col = np.zeros(0, np.int64)
        self._val = np.zeros(0)
        self._form: tuple | None = None  # `_highs_form`'s matrix part, with its key

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    @property
    def n_cons(self) -> int:
        return len(self.con_sense)

    @property
    def var_names(self) -> list[str]:
        """The name of each column, in column order."""
        return [v + suffix for names, suffix in self._var_labels for v in names]

    @property
    def con_names(self) -> list[str]:
        """The name of each row, in row order."""
        return [r + suffix for names, suffix in self._con_labels for r in names]

    def add_vars(self, names: Sequence[str], obj, lb=-math.inf, ub=math.inf,
                 suffix: str = "") -> np.ndarray:
        """Append variables `names`, each ending in `suffix`, with objective
        coefficients `obj`, and return their column indices.

        `obj`, `lb` and `ub` are one value for all or one each; bounds
        default to free. No cost is non-finite, no bound NaN, no lower one +inf and
        no upper one -inf; crossed finite bounds are legal, and diagnosed.
        """
        obj = _each(obj, len(names))
        if obj.shape != (len(names),):
            raise ValueError(f"{len(names)} variables but {obj.shape} objective coefficients")
        if not np.all(np.isfinite(obj)):
            raise ValueError("non-finite objective coefficient")
        first = self.n_vars
        self._var_labels.append((names, suffix))
        self.lb = np.concatenate((self.lb, _bounds(lb, len(names), math.inf)))
        self.ub = np.concatenate((self.ub, _bounds(ub, len(names), -math.inf)))
        self.obj = np.concatenate((self.obj, obj))
        return np.arange(first, first + len(names))

    def add_rows(self, names: Sequence[str], sense: Sequence[str], rhs, terms,
                 suffix: str = "") -> None:
        """Append one constraint per name in `names`, each ending in `suffix`.

        `rhs` is one value for all or one each. `terms` are arrays (row,
        column, value) that broadcast together: the row counts within this
        block and the column is the model's. Row i reads `sum of value *
        x[column] over its terms  sense[i]  rhs[i]`. Rows keep their order,
        each its terms in the order given, and explicit zeros are dropped.
        """
        rhs = _each(rhs, len(names))
        if len(sense) != len(names) or rhs.shape != (len(names),):
            raise ValueError("one sense and one rhs per row required")
        if not set(sense) <= set(_SENSES):
            raise ValueError(f"unknown sense in {sorted(set(sense) - set(_SENSES))}")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("non-finite rhs in row block")
        parts = [np.broadcast_arrays(*term) for term in terms]
        row, col, value = (np.concatenate([np.zeros(0, dtype)] + [np.ravel(p[i]) for p in parts])
                           .astype(dtype, copy=False)
                           for i, dtype in enumerate((np.int64, np.int64, float)))
        if not np.all(np.isfinite(value)):
            raise ValueError("non-finite coefficient in row block")
        keep = value != 0.0
        row, col, value = row[keep], col[keep], value[keep]
        if row.size and not (0 <= row.min() and row.max() < len(names)):
            raise ValueError(f"row index outside the block's {len(names)} rows")
        if col.size and not (0 <= col.min() and col.max() < self.n_vars):
            raise ValueError(f"column index outside the model's {self.n_vars} columns")
        self._row = np.concatenate((self._row, row + self.n_cons))
        self._col = np.concatenate((self._col, col))
        self._val = np.concatenate((self._val, value))
        self._con_labels.append((names, suffix))
        self.con_sense.extend(sense)
        self.con_rhs = np.concatenate((self.con_rhs, rhs))


def _each(value, n: int) -> np.ndarray:
    """`n` floats from one value for all or one each, or another shape to refuse."""
    return np.full(n, value, float) if np.ndim(value) == 0 else np.asarray(value, float)


def _bounds(bound, n: int, wrong: float) -> np.ndarray:
    """`n` variable bounds from one bound for all or one bound each;
    ValueError if one is NaN or `wrong` (+inf for lower bounds, -inf for upper)."""
    bound = _each(bound, n)
    if bound.shape != (n,):
        raise ValueError(f"{n} variables but bounds of shape {bound.shape}")
    if np.any(np.isnan(bound) | (bound == wrong)):
        raise ValueError(f"{'lower' if wrong > 0 else 'upper'} bound nan or {wrong}")
    return bound


@dataclass(frozen=True)
class Block:
    """One market's LP in sparse form, built once and appended to models.

    Row i reads `A[i] x + D[i] z  sense[i]  rhs[i]`, where `x` are the
    block's own columns `cols`, each within `[lb, ub]`, and `z` the columns
    `d_cols` it is coupled to, which belong to another block: `terms` hold
    A's entries and `d_terms` D's, each as (row, column, value) arrays in
    `Block.of`'s order. `append_to` either fixes `z` at given values or joins
    it to the model's columns at given indices. `cols`, `rows` and `d_cols`
    are names, labels only.
    """

    cols: list[str]
    cost: np.ndarray  # objective coefficient of each own column
    lb: np.ndarray  # bounds of each own column
    ub: np.ndarray
    rows: list[str]
    sense: list[str]
    rhs: np.ndarray  # with every coupled column at zero
    terms: tuple[np.ndarray, np.ndarray, np.ndarray]  # (row, own column, value)
    d_cols: list[str]
    d_cost: np.ndarray  # objective coefficient of each coupled column
    d_terms: tuple[np.ndarray, np.ndarray, np.ndarray]  # (row, coupled column, value)
    bus_keys: list[tuple[str, int]]
    bal_rows: np.ndarray  # balance row of each bus_keys entry
    outputs: dict[str, tuple[list, np.ndarray]]  # result field -> (keys, column of each)

    @classmethod
    def of(cls, columns: Sequence[tuple], d_cols: list[str], d_cost, sections: Sequence[tuple],
           bus_keys: list[tuple[str, int]], bal_rows: np.ndarray, outputs: dict, **extra):
        """The block of index arrays, built once through a scratch `LpModel`,
        so with every check of its `add_vars` and `add_rows`.

        `columns` are the own columns kind by kind, each `(names, cost, lb,
        ub)` for `add_vars`, and `d_cols` and `d_cost` the coupled columns
        after them; `sections` are the rows kind by kind, each `(names,
        senses, rhs, terms)` for `add_rows`, over the own and coupled columns.
        `bal_rows` are the balance rows of `bus_keys`, and `outputs` map each
        result field to its keys and their columns.
        """
        model = LpModel()
        for kind in columns:
            model.add_vars(*kind)
        n = model.n_vars
        model.add_vars(d_cols, d_cost)
        for section in sections:
            model.add_rows(*section)
        names, row, col, val = model.var_names, model._row, model._col, model._val
        own = col < n
        return cls(cols=names[:n], cost=model.obj[:n], lb=model.lb[:n], ub=model.ub[:n],
                   rows=model.con_names, sense=model.con_sense, rhs=model.con_rhs,
                   terms=(row[own], col[own], val[own]), d_cols=names[n:], d_cost=model.obj[n:],
                   d_terms=(row[~own], col[~own] - n, val[~own]),
                   bus_keys=bus_keys, bal_rows=bal_rows, outputs=outputs, **extra)

    def append_to(self, model: LpModel, fixed=None, rhs=None, ub=None, cost=None,
                  suffix: str = "", weight: float = 1.0, coupled=None) -> np.ndarray:
        """Append the block's columns and rows to `model` and return the
        indices of its own columns there.

        With `fixed`, the coupled columns are substituted at those values;
        their cost, a constant, stays out of the model. Without, they are the
        model's columns at the distinct indices `coupled`, and their cost
        joins its objective. `rhs`, `ub` and `cost` replace the block's own,
        `suffix` ends every column and row name, and every cost is scaled by
        `weight`.
        """
        rhs = self.rhs if rhs is None else rhs
        cost = self.cost if cost is None else cost
        cols = model.add_vars(self.cols, weight * cost, self.lb, self.ub if ub is None else ub,
                              suffix)
        (row, col, value), (d_row, d_col, d_value) = self.terms, self.d_terms
        terms = [(row, cols[col], value)]
        if fixed is None:
            model.obj[coupled] += weight * self.d_cost
            # the own terms, then the coupled ones: no column has both, so
            # each column's terms keep their order
            terms.append((d_row, coupled[d_col], d_value))
        else:
            rhs = self.fixed_rhs(rhs, fixed)
        model.add_rows(self.rows, self.sense, rhs, terms, suffix)
        return cols

    def fixed_rhs(self, rhs: np.ndarray, fixed) -> np.ndarray:
        """`rhs - D @ fixed`: the rows' rhs with the coupled columns at the
        values `fixed`, subtracted term by term in row order, as substituting
        the values into each row in turn does."""
        d_row, d_col, d_value = self.d_terms
        rhs = rhs.copy()
        np.subtract.at(rhs, d_row, d_value * np.asarray(fixed, float)[d_col])
        return rhs

    def read(self, x: np.ndarray) -> dict[str, dict]:
        """Each result field as {key: value} from the primal `x`; a signed
        zero reads 0.0."""
        return {field: dict(zip(keys, unsigned(x[cols]).tolist()))
                for field, (keys, cols) in self.outputs.items()}

    def balance_duals(self, y: np.ndarray) -> dict[tuple[str, int], float]:
        """The dual of each (bus, hour) balance row, its LMP, from the duals
        `y`; a signed zero dual reads 0.0."""
        return dict(zip(self.bus_keys, unsigned(y[self.bal_rows]).tolist()))


def unsigned(values: np.ndarray) -> np.ndarray:
    """`values` with each -0.0, which HiGHS may report, as 0.0: + 0.0 leaves
    every other value as it is."""
    return values + 0.0


@dataclass
class LpCertificates:
    primal_residual: float
    duality_gap: float  # relative
    complementarity: float


@dataclass
class LpSolution:
    """Solver result; `primal` is in column order and `duals` in row order,
    all None unless the status is optimal. `basis` is kept only when `solve`
    was given `prices`: a private start for `solve(basis=)`, holding HiGHS's
    optimal basis and the HiGHS object that found it, which it keeps alive
    with the LP it holds, so a caller drops it once done."""

    status: LpStatus
    objective: float | None = None
    primal: np.ndarray | None = None
    duals: np.ndarray | None = None
    certificates: LpCertificates | None = None
    basis: _Start | None = None


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
    def of(cls, model: LpModel, highs_row: np.ndarray) -> Colwise:
        """`model`'s coefficients with row i moved to `highs_row[i]`; the
        values at one coordinate are summed one by one in the order added."""
        row, col, value = highs_row[model._row], model._col, model._val
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
        """`A @ x`, summed entry by entry in column order."""
        per_entry = np.repeat(x, np.diff(self.start))
        return np.bincount(self.index, self.value * per_entry, minlength=self.shape[0])

    def split(self, m: int) -> tuple[RowSpan, RowSpan]:
        """The rows before `m` and the rows from `m` on."""
        n_row, n_col = self.shape
        nnz = int(np.count_nonzero(self.index < m))
        return (RowSpan(self, (m, n_col), nnz),
                RowSpan(self, (n_row - m, n_col), self.value.size - nnz))


class RowSpan(NamedTuple):
    """Some of `matrix`'s rows, with their `shape` and `nnz`."""

    matrix: Colwise
    shape: tuple[int, int]
    nnz: int


class _Start(NamedTuple):
    """A warm start: the optimal `basis` of an LP and the `highs` object
    that found it."""

    basis: _highs.HighsBasis
    highs: _highs._Highs


# HiGHS's options, set once: presolve on, no output, dual simplex (those of
# `scipy.optimize.linprog(method="highs")`)
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
_OPTIMAL = _highs.HighsModelStatus.kOptimal


def linprog(c, *, A_ub: RowSpan, A_eq: RowSpan, row_bounds, bounds, basis=None,
            prices=()) -> SimpleNamespace:
    """min c x  s.t.  row_lower <= A x <= row_upper,  lb <= x <= ub: one LP
    per call.

    `A_ub` and `A_eq` are the inequality and the equality rows of one
    `Colwise` matrix A, in that order; `row_bounds` is `(row_lower,
    row_upper)` over A's rows and `bounds` is `(lb, ub)`, one array each.
    HiGHS gets them as they are, with the options of `_OPTIONS`. Each call
    without `basis` loads a fresh HiGHS object; with `basis`, the start's
    object is loaded again and restarted from its basis (`_load`). Either way
    the result is, bit for bit, what a fresh object loaded from the same
    arrays gives, so it depends on the inputs alone.

    `prices` are rows whose duals the caller reports; with them the result
    carries a start (`_Start`) as `basis`. With `basis`, the start of an LP
    that differs from this one only in its row and column bounds, the solve
    starts from its basis. That result stands only if `_unique_duals` finds
    the duals at `prices` to be the LP's only optimal ones; otherwise the LP
    is solved again from scratch on a fresh object, so they are what a solve
    from scratch reports.

    Returns HiGHS's model status and simplex iterations (`nit`, the cold
    retry's counted) and, when optimal, `x`, `fun`, the duals `row_dual` of A's
    rows, the column duals `col_dual` and, with `prices`, `basis`.
    """
    A = A_ub.matrix
    model = _pass_model(c, A, bounds, row_bounds)
    highs = _load(model, basis)
    if highs is None:
        return SimpleNamespace(status=_highs.HighsModelStatus.kModelError, nit=0)
    highs.run()
    nit = _iterations(highs)
    optimum = _optimum(highs)
    if basis is not None and (optimum is None or not _unique_duals(
            highs, optimum[0], A, np.concatenate((bounds[0], row_bounds[0])),
            np.concatenate((bounds[1], row_bounds[1])), np.asarray(prices, dtype=np.int64))):
        highs = _load(model)
        highs.run()
        nit += _iterations(highs)
        optimum = _optimum(highs)
    status = highs.getModelStatus()
    if optimum is None:
        return SimpleNamespace(status=status, nit=nit)
    x, y, z = optimum
    start = _Start(highs.getBasis(), highs) if len(prices) else None
    return SimpleNamespace(status=status, nit=nit, x=x,
                           fun=highs.getInfo().objective_function_value, row_dual=y,
                           col_dual=z, basis=start)


def _pass_model(c, A: Colwise, bounds, row_bounds) -> tuple:
    """`passModel`'s array-form arguments for `min c x`, columns within
    `bounds` and the rows of `A` within `row_bounds`."""
    # HiGHS refuses an empty integrality array
    return (A.shape[1], A.shape[0], A.value.size, _COLWISE, _MINIMIZE, 0.0, c, *bounds,
            *row_bounds, A.start, A.index, A.value, np.zeros(A.shape[1], dtype=np.int32))


def _face(c, x: np.ndarray, y: np.ndarray, z: np.ndarray, bounds, row_bounds) -> tuple:
    """The column and the row bounds that cut the LP `min c x` down to its
    optimal face, from one optimum: the primal `x`, the row duals `y` and
    the column duals `z`.

    Every optimal primal is complementary to every optimal dual. So a
    feasible point is optimal exactly when each column with a nonzero
    reduced cost stays where `x` has it, at its bound, and each row with a
    nonzero dual stays at the bound that dual prices: the lower one for
    `y > 0`, the upper one for `y < 0`. Nonzero means above
    `1e-9 (1 + max |c|)`. A row is held only at a finite bound, so a dual
    of the wrong sign, within HiGHS's tolerance, pins nothing.
    """
    tol = 1e-9 * (1.0 + float(np.max(np.abs(c), initial=0.0)))
    fixed = np.abs(z) > tol
    lower, upper = row_bounds
    at_lower = (y > tol) & np.isfinite(lower)
    at_upper = (y < -tol) & np.isfinite(upper)
    return ((np.where(fixed, x, bounds[0]), np.where(fixed, x, bounds[1])),
            (np.where(at_upper, upper, lower), np.where(at_lower, lower, upper)))


def _load(model: tuple, start: _Start | None = None) -> _highs._Highs | None:
    """A HiGHS object holding `model`, the arguments of `passModel`'s array
    form, to start from the basis of `start` if given; None if HiGHS refuses
    it. With `start` it is `start`'s object, whose LP and solver `passModel`
    replaces, so it starts as a fresh object would; otherwise a fresh one."""
    if start is None:
        highs = _highs._Highs()
        highs.passOptions(_OPTIONS)
    else:
        highs = start.highs
    if highs.passModel(*model) == _highs.HighsStatus.kError:
        return None
    if start is not None and highs.setBasis(start.basis) == _highs.HighsStatus.kError:
        n_col, n_row = model[:2]
        raise ValueError(f"basis does not fit an LP of {n_row} rows and {n_col} columns")
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


def _highs_form(model: LpModel) -> tuple[np.ndarray, Colwise, np.ndarray, tuple, int]:
    """`model` as HiGHS gets it: each row's HiGHS row, then in HiGHS's row
    order the matrix, the rhs and the row bounds `(lower, upper)`, and the
    number of inequality rows.

    The matrix part is kept on the model, keyed by its counts of rows,
    columns and entries, so solves of one model share one `Colwise`; the
    rhs and the row bounds are read afresh from `model.con_rhs` each call.

    The inequality rows come first and the "=" rows after, each in model
    order. HiGHS picks its vertex of a degenerate LP by row order, and the
    reported results follow that vertex: with every row in model order, the
    relaxed bid LP on a generated 6-bus grid gave other quantities and
    S_BiD-q, sys5's real-time LMPs moved, and a two-bus diagnosis named
    another row.
    """
    key = (model.n_cons, model.n_vars, len(model._val))
    if model._form is None or model._form[0] != key:
        sense = np.array(model.con_sense, dtype="<U2")
        is_eq = sense == EQ
        order = np.argsort(is_eq, kind="stable")  # model row of each HiGHS row
        highs_row = np.argsort(order)  # HiGHS row of each model row
        model._form = (key, order, highs_row, sense[order], Colwise.of(model, highs_row),
                       model.n_cons - int(np.count_nonzero(is_eq)))
    _, order, highs_row, sense, A, m = model._form
    rhs = model.con_rhs[order]
    bounds = (np.where(sense == LE, -np.inf, rhs), np.where(sense == GE, np.inf, rhs))
    return highs_row, A, rhs, bounds, m


def _excess(value: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """How far each `value` lies outside its bounds; at most 0 within them."""
    return np.maximum(lower - value, value - upper)


def solve(model: LpModel, basis: _Start | None = None,
          prices: Sequence[int] = (), then=None) -> LpSolution:
    """Solve `model` and return primal/dual certificates.

    With `then`, one cost per column, the primal returned minimizes `then`
    over `model`'s optimal face: among the optimal points, the best by
    `then` (ValueError if it is not one finite cost per column). A second
    `linprog` call solves it, `then` over the bounds `_face` gives, and its
    primal stands only if it ends optimal. The objective is `model`'s own
    at that primal. The duals and the basis come from the first solve,
    whose duals are optimal for every point of the face, and the
    certificates hold the returned primal to them.

    `prices` are rows whose duals the caller reports; with them the solution
    keeps a start as `basis`. With `basis`, the start of an LP that differs
    from `model` only in its rhs and column bounds, HiGHS starts from its
    basis (ValueError if the shapes differ), and the result is kept only
    where the duals at `prices` are the model's only optimal ones; otherwise
    `model` is solved from scratch (see `linprog`). Raises SolverError when
    HiGHS reports a numerical failure, or when an "optimal" result violates
    the feasibility/duality-gap certificates. Infeasible and unbounded are
    ordinary statuses, not errors.
    """
    if then is not None:
        then = np.asarray(then, dtype=float)
        if then.shape != (model.n_vars,) or not np.all(np.isfinite(then)):
            raise ValueError(f"second costs must be {model.n_vars} finite values, "
                             f"not of shape {then.shape}")
    highs_row, A, rhs, row_bounds, m = _highs_form(model)
    c, lbv, ubv = model.obj, model.lb, model.ub
    A_ub, A_eq = A.split(m)
    res = linprog(c, A_ub=A_ub, A_eq=A_eq, row_bounds=row_bounds, bounds=(lbv, ubv),
                  basis=basis, prices=highs_row[np.asarray(prices, dtype=np.int64)])
    if res.status == _highs.HighsModelStatus.kInfeasible:
        return LpSolution(status=LpStatus.INFEASIBLE)
    if res.status == _highs.HighsModelStatus.kUnbounded:
        return LpSolution(status=LpStatus.UNBOUNDED)
    if res.status != _OPTIMAL:
        raise SolverError(f"solver failure on {model.name!r}: HiGHS status {res.status.name}")
    x, y, z, fun = res.x, res.row_dual, res.col_dual, res.fun
    if then is not None:
        face_cols, face_rows = _face(c, x, y, z, (lbv, ubv), row_bounds)
        face = linprog(then, A_ub=A_ub, A_eq=A_eq, row_bounds=face_rows, bounds=face_cols)
        if face.status == _OPTIMAL:
            x, fun = face.x, float(c @ face.x)

    # a column dual prices the bound its sign points at, as in `_face`:
    # z > 0 the lower bound, z < 0 the upper
    zl, zu = np.where(z > 0, z, 0.0), np.where(z < 0, z, 0.0)

    # certificates, over HiGHS's rows: one product A @ x
    Ax = A @ x
    finite_lb, finite_ub = np.isfinite(lbv), np.isfinite(ubv)
    lbf, ubf = np.where(finite_lb, lbv, 0.0), np.where(finite_ub, ubv, 0.0)
    feas = float(np.max(np.concatenate((_excess(x, lbv, ubv), _excess(Ax, *row_bounds))),
                        initial=0.0))
    dual_obj = float(rhs @ y) + float(np.sum(lbf * zl)) + float(np.sum(ubf * zu))
    gap = abs(fun - dual_obj) / max(1.0, abs(fun))
    comp = float(max(np.max(np.abs((Ax - rhs)[:m] * y[:m]), initial=0.0),
                     np.max(np.abs(np.where(finite_lb, x - lbf, 0.0) * zl), initial=0.0),
                     np.max(np.abs(np.where(finite_ub, ubf - x, 0.0) * zu), initial=0.0)))

    certs = LpCertificates(primal_residual=feas, duality_gap=gap, complementarity=comp)
    # `not <=`, so that a NaN residual or gap fails too
    if not feas <= FEAS_TOL:
        raise SolverError(f"{model.name!r}: primal residual {feas:.3e} exceeds {FEAS_TOL:g}")
    if not gap <= GAP_TOL:
        raise SolverError(f"{model.name!r}: duality gap {gap:.3e} exceeds {GAP_TOL:g}")
    return LpSolution(status=LpStatus.OPTIMAL, objective=float(fun), primal=x,
                      duals=y[highs_row], certificates=certs, basis=res.basis)


def diagnose_infeasibility(model: LpModel) -> list[str]:
    """Name the constraints that cannot be met, via HiGHS's feasibility relaxation.

    Columns whose lower bound exceeds their upper bound are named first, by
    the amount they cross, and then alone, since no relaxation of the rows
    can meet them. Otherwise HiGHS minimizes the total row violation with
    every column bound kept, and reports rows violated above tolerance.
    """
    crossed = _worst((model.lb - model.ub).tolist(), model.var_names)
    if crossed:
        return crossed
    highs_row, A, _, row_bounds, _ = _highs_form(model)
    highs = _load(_pass_model(np.zeros(model.n_vars), A, (model.lb, model.ub), row_bounds))
    # an infinite penalty keeps the column bounds hard
    if highs is None or (highs.feasibilityRelaxation(math.inf, math.inf, 1.0)
                         != _highs.HighsStatus.kOk):
        return ["elastic diagnosis failed"]
    excess = _excess(np.array(highs.getSolution().row_value), *row_bounds)
    return _worst(excess[highs_row].tolist(), model.con_names)


def _worst(violation: list[float], names: list[str]) -> list[str]:
    """The `DIAGNOSIS_TOP` names with the largest violation above 1e-7,
    largest first."""
    scored = sorted(((v, name) for v, name in zip(violation, names) if v > 1e-7),
                    reverse=True)
    return [f"{name} (violation {v:.4g})" for v, name in scored[:DIAGNOSIS_TOP]]
