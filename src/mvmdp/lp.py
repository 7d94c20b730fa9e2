"""Exact-rational linear programming: two-phase primal simplex, Bland's rule.

Problems are stated as

    minimize c . x
    subject to A x = b (sparse equality rows) and l <= x <= u componentwise,

with l >= 0 finite and u either finite or None (unbounded above). All data and
all pivoting are exact rationals, so statuses and optimal values are exact and
a given problem always yields the identical solution (fixed pivot order).

The solver is deliberately self-contained (no external LP dependency); callers
that want to experiment with another engine can shadow `solve`, but everything
in this package runs against this implementation.

`solve` accepts an optional partial starting basis (row index -> variable
index). Covered rows are pivoted in directly; only uncovered rows receive
artificial variables, so a caller that knows a structural vertex (for example
a deterministic-policy occupation measure) skips most of phase 1. The warm
start is an optimization only: if it turns out infeasible it is discarded and
the ordinary two-phase run decides the problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .rationals import Rat, ZERO, ONE


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpProblem:
    num_vars: int
    objective: list = field(default_factory=list)  # dense, length num_vars
    rows: list = field(default_factory=list)  # (coeffs: dict var->Rat, rhs: Rat)
    lower: list = field(default_factory=list)
    upper: list = field(default_factory=list)  # None = +inf

    def __post_init__(self):
        if not self.objective:
            self.objective = [ZERO] * self.num_vars
        if not self.lower:
            self.lower = [ZERO] * self.num_vars
        if not self.upper:
            self.upper = [None] * self.num_vars

    def add_row(self, coeffs: dict, rhs) -> None:
        self.rows.append(({j: Rat(c) for j, c in coeffs.items()}, Rat(rhs)))

    def check(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise ValueError("bounds length != num_vars")
        for j in range(self.num_vars):
            if self.lower[j] < 0:
                raise ValueError(f"lower bound of x{j} is negative")
            if self.upper[j] is not None and self.upper[j] < self.lower[j]:
                raise ValueError(f"bounds of x{j} are crossed")
        for coeffs, _ in self.rows:
            for j in coeffs:
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"row references unknown variable {j}")


@dataclass
class LpSolution:
    status: LpStatus
    value: Rat | None = None
    x: list | None = None


def _pivot(rows, obj, basis, r, jc):
    """Make column jc basic in row r (tableau rows include the rhs cell)."""
    row = rows[r]
    inv = ONE / row[jc]
    if inv != 1:
        row = [v * inv for v in row]
        rows[r] = row
    for i, other in enumerate(rows):
        if i == r:
            continue
        f = other[jc]
        if f != 0:
            rows[i] = [a - f * b for a, b in zip(other, row)]
    f = obj[jc]
    if f != 0:
        obj[:] = [a - f * b for a, b in zip(obj, row)]
    basis[r] = jc


def _bland(rows, obj, basis, enterable) -> LpStatus:
    """Run simplex to optimality. enterable[j] False blocks column j.

    Bland's rule: enter the lowest-index column with negative reduced cost;
    on ratio ties leave the row whose basic variable has the lowest index.
    Basic columns have reduced cost exactly 0, so they never re-enter.
    """
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if enterable[j] and obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return LpStatus.OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return LpStatus.UNBOUNDED
        _pivot(rows, obj, basis, leave, enter)


def solve(problem: LpProblem, initial_basis: dict | None = None) -> LpSolution:
    """Solve to proven optimality/infeasibility/unboundedness. Deterministic."""
    problem.check()
    n = problem.num_vars
    lower = problem.lower
    # Shift x = l + y so y >= 0; finite uppers become extra rows y_j + s = u_j - l_j.
    extra_rows = []
    n_slack = 0
    slack_of = {}
    for j in range(n):
        if problem.upper[j] is not None:
            slack_of[j] = n + n_slack
            n_slack += 1
            extra_rows.append((j, problem.upper[j] - lower[j]))
    n_std = n + n_slack

    dense_rows = []
    rhs_list = []
    for coeffs, rhs in problem.rows:
        row = [ZERO] * n_std
        shift = ZERO
        for j, c in coeffs.items():
            row[j] += c
            shift += c * lower[j]
        dense_rows.append(row)
        rhs_list.append(rhs - shift)
    for j, cap in extra_rows:
        row = [ZERO] * n_std
        row[j] = ONE
        row[slack_of[j]] = ONE
        dense_rows.append(row)
        rhs_list.append(cap)

    m = len(dense_rows)
    if initial_basis:
        for r, j in initial_basis.items():
            if not (0 <= r < len(problem.rows)) or not (0 <= j < n):
                raise ValueError("initial basis references unknown row/variable")

    def build_tableau(use_warm: bool):
        rows = [list(row) + [rhs] for row, rhs in zip(dense_rows, rhs_list)]
        basis = [-1] * m
        if use_warm:
            # Pivot the suggested columns in; caller guarantees a triangular order
            # exists, but any failure just falls back to the cold start.
            obj0 = [ZERO] * (n_std + 1)
            for r, j in sorted(initial_basis.items()):
                if rows[r][j] == 0:
                    return None, None
                _pivot(rows, obj0, basis, r, j)
            # Covered rows must carry a feasible basic value; uncovered rows
            # receive artificials below and may have either sign.
            if any(rows[r][-1] < 0 for r in initial_basis):
                return None, None
        else:
            for i in range(m):
                if rows[i][-1] < 0:
                    rows[i] = [-v for v in rows[i]]
        return rows, basis

    rows = None
    if initial_basis:
        rows, basis = build_tableau(True)
    if rows is None:
        rows, basis = build_tableau(False)

    # Attach artificials to rows that still lack a basic column.
    need_art = [i for i in range(m) if basis[i] < 0]
    n_art = len(need_art)
    art_col = {}
    for k, i in enumerate(need_art):
        art_col[i] = n_std + k
    ncols = n_std + n_art
    for i in range(m):
        pad = [ZERO] * n_art
        if i in art_col:
            if rows[i][-1] < 0:
                rows[i] = [-v for v in rows[i]]
            pad[art_col[i] - n_std] = ONE
            basis[i] = art_col[i]
        rows[i] = rows[i][:-1] + pad + [rows[i][-1]]

    enterable = [True] * ncols

    if n_art:
        # Phase 1: minimize the artificial mass.
        obj = [ZERO] * (ncols + 1)
        for i in need_art:
            obj = [a - b for a, b in zip(obj, rows[i])]
        for i in need_art:
            obj[basis[i]] = ZERO
        status = _bland(rows, obj, basis, enterable)
        assert status is LpStatus.OPTIMAL  # phase 1 is bounded below by 0
        if -obj[-1] > 0:
            return LpSolution(LpStatus.INFEASIBLE)
        # Drive remaining artificials out of the basis; drop redundant rows.
        for i in range(m - 1, -1, -1):
            if basis[i] >= n_std:
                pivot_col = next(
                    (j for j in range(n_std) if rows[i][j] != 0), None
                )
                if pivot_col is None:
                    del rows[i]
                    del basis[i]
                else:
                    obj_dummy = [ZERO] * (ncols + 1)
                    _pivot(rows, obj_dummy, basis, i, pivot_col)
        for j in range(n_std, ncols):
            enterable[j] = False

    # Phase 2.
    obj = [ZERO] * (ncols + 1)
    for j in range(n):
        obj[j] = problem.objective[j]
    for i, row in enumerate(rows):
        cb = obj[basis[i]]
        if cb != 0:
            obj = [a - cb * b for a, b in zip(obj, row)]
    status = _bland(rows, obj, basis, enterable)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED)

    y = [ZERO] * n_std
    for i, row in enumerate(rows):
        if basis[i] < n_std:
            y[basis[i]] = row[-1]
    x = [y[j] + lower[j] for j in range(n)]
    value = sum((c * v for c, v in zip(problem.objective, x)), ZERO)
    return LpSolution(LpStatus.OPTIMAL, value=value, x=x)
