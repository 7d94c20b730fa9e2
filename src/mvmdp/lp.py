"""Exact-rational linear programming: two-phase primal simplex, Bland's rule.

Problems are in standard form,

    minimize c . x
    subject to A x = b (sparse equality rows) and x >= 0,

with the objective c a sparse {variable: coefficient} dict. Any other
constraint, such as an upper bound x_j <= u, is stated by the caller as an
explicit row with a slack column (x_j + s = u). All data and all pivoting are
exact rationals, so statuses and optimal values are exact and a given problem
always yields the identical solution (fixed pivot order).

The tableau is sparse: each row is a dict column -> nonzero rational, with its
rhs in a parallel list, and the objective (reduced costs, minus the objective
value in its rhs cell) is the last such row. A pivot scales the pivot row and
then updates only the rows that have a nonzero in the entering column, and
only at the pivot row's nonzero columns; entries that cancel are deleted. The
flow-conservation rows of an occupation polytope have a handful of nonzeros
each, so this touches a small fraction of a dense tableau. The pivot path is
exactly the dense one's: Bland's rule picks the lowest-index enterable column
with negative reduced cost and breaks ratio ties by the lowest basic index.

`solve` accepts an optional partial starting basis (row index -> variable
index). Covered rows are pivoted in directly; only uncovered rows receive
artificial variables, so a caller that knows a structural vertex (for example
a deterministic-policy occupation measure) skips most of phase 1. When every
row is covered phase 1 does not run at all: the vertex-weight LP of
`frequency` (three rows, one column per vertex of the moment-polygon
triangle that holds its target) starts from that triangle's full basis, so
`solve` only computes its weights exactly and checks their signs. The warm
start is an optimization only: if it turns out infeasible it is discarded
and the ordinary two-phase run decides the problem.
"""

from __future__ import annotations

from enum import Enum

from .rationals import Rat, ZERO, ONE, rat


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpProblem:
    """objective is sparse var -> Rat; rows holds (coeffs: dict var -> Rat,
    rhs: Rat) pairs."""

    __slots__ = ("num_vars", "objective", "rows")

    def __init__(self, num_vars: int, objective: dict | None = None,
                 rows: list | None = None):
        # The constructor is a door too: the objective and every row given
        # enter through rat, so floats and bools raise TypeError.
        self.num_vars = num_vars
        self.objective = {j: rat(c) for j, c in (objective or {}).items()}
        self.rows = []
        for coeffs, rhs in rows or ():
            self.add_row(coeffs, rhs)

    def add_row(self, coeffs: dict, rhs) -> None:
        self.rows.append(({j: rat(c) for j, c in coeffs.items()}, rat(rhs)))

    def check(self) -> None:
        for coeffs in [self.objective] + [coeffs for coeffs, _ in self.rows]:
            for j in coeffs:
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"unknown variable {j}")


class LpSolution:
    __slots__ = ("status", "value", "x")

    def __init__(self, status: LpStatus, value: Rat | None = None,
                 x: list | None = None):
        self.status = status
        self.value = value
        self.x = x


def _subtract(row, f, src):
    """row -= f * src on sparse dicts; entries that cancel are deleted."""
    g = -f
    for j, v in src.items():
        a = row.get(j)
        if a is None:
            row[j] = g * v
        else:
            a += g * v
            if a:
                row[j] = a
            else:
                del row[j]


def _pivot(rows, rhs, basis, r, jc):
    """Make column jc basic in row r. The last row is the objective."""
    prow = rows[r]
    inv = ONE / prow[jc]
    if inv != 1:
        for j in prow:
            prow[j] *= inv
        rhs[r] *= inv
    b = rhs[r]
    for i, row in enumerate(rows):
        f = row.get(jc)
        if f is not None and i != r:
            _subtract(row, f, prow)
            if b:
                rhs[i] -= f * b
    basis[r] = jc


def _bland(rows, rhs, basis, ncols) -> LpStatus:
    """Run simplex to optimality; columns >= ncols never enter.

    Bland's rule: enter the lowest-index column with negative reduced cost;
    on ratio ties leave the row whose basic variable has the lowest index.
    Basic columns have reduced cost exactly 0, so they never re-enter.
    """
    obj = rows[-1]
    while True:
        enter = min((j for j, v in obj.items() if v < 0 and j < ncols), default=-1)
        if enter < 0:
            return LpStatus.OPTIMAL
        leave = -1
        best = None
        for i in range(len(basis)):
            a = rows[i].get(enter)
            if a is not None and a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return LpStatus.UNBOUNDED
        _pivot(rows, rhs, basis, leave, enter)


def solve(problem: LpProblem, initial_basis: dict | None = None) -> LpSolution:
    """Solve to proven optimality/infeasibility/unboundedness. Deterministic."""
    problem.check()
    n = problem.num_vars
    m = len(problem.rows)
    if initial_basis:
        for r, j in initial_basis.items():
            if not (0 <= r < m) or not (0 <= j < n):
                raise ValueError("initial basis references unknown row/variable")

    def build_tableau(use_warm: bool):
        # One row per constraint, then an (empty) objective row.
        rows = [{j: c for j, c in coeffs.items() if c} for coeffs, _ in problem.rows]
        rows.append({})
        rhs = [b for _, b in problem.rows] + [ZERO]
        basis = [-1] * m
        if use_warm:
            # Pivot the suggested columns in; caller guarantees a triangular order
            # exists, but any failure just falls back to the cold start.
            for r, j in sorted(initial_basis.items()):
                if j not in rows[r]:
                    return None
                _pivot(rows, rhs, basis, r, j)
            # Covered rows must carry a feasible basic value; uncovered rows
            # receive artificials below and may have either sign.
            if any(rhs[r] < 0 for r in initial_basis):
                return None
        return rows, rhs, basis

    tableau = build_tableau(True) if initial_basis else None
    rows, rhs, basis = tableau or build_tableau(False)

    # Attach artificials, with a nonnegative rhs, to rows that still lack a
    # basic column; phase 1 minimizes their sum.
    obj = rows[-1]
    ncols = n
    for i in range(m):
        if basis[i] < 0:
            row = rows[i]
            if rhs[i] < 0:
                for j in row:
                    row[j] = -row[j]
                rhs[i] = -rhs[i]
            _subtract(obj, ONE, row)
            rhs[-1] -= rhs[i]
            row[ncols] = ONE
            basis[i] = ncols
            ncols += 1

    if ncols > n:
        status = _bland(rows, rhs, basis, ncols)
        assert status is LpStatus.OPTIMAL  # phase 1 is bounded below by 0
        if -rhs[-1] > 0:
            return LpSolution(LpStatus.INFEASIBLE)
        # Drive remaining artificials out of the basis; drop redundant rows.
        for i in range(m - 1, -1, -1):
            if basis[i] >= n:
                pivot_col = min((j for j in rows[i] if j < n), default=None)
                if pivot_col is None:
                    del rows[i], rhs[i], basis[i]
                else:
                    _pivot(rows, rhs, basis, i, pivot_col)

    # Phase 2: price the objective out of the basic columns.
    obj = {j: c for j, c in problem.objective.items() if c}
    rows[-1] = obj
    rhs[-1] = ZERO
    for i in range(len(basis)):
        cb = obj.get(basis[i])
        if cb is not None:
            _subtract(obj, cb, rows[i])
            rhs[-1] -= cb * rhs[i]
    status = _bland(rows, rhs, basis, n)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED)

    x = [ZERO] * n
    for i, j in enumerate(basis):
        x[j] = rhs[i]
    value = sum((c * x[j] for j, c in problem.objective.items()), ZERO)
    return LpSolution(LpStatus.OPTIMAL, value=value, x=x)
