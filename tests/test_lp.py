import itertools
import random

import pytest

from mvmdp.lp import LpProblem, LpStatus, solve
from mvmdp.rationals import Rat, rat


def test_single_variable_lower_bound():
    prob = LpProblem(num_vars=1, objective=[Rat(1)], lower=[Rat(3)])
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 3
    assert sol.x == [3]


def test_segment_minimum():
    prob = LpProblem(num_vars=2, objective=[Rat(-1), Rat(-1)])
    prob.add_row({0: 1, 1: 1}, 1)
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == -1


def test_contradictory_equalities_infeasible():
    prob = LpProblem(num_vars=1)
    prob.add_row({0: 1}, 1)
    prob.add_row({0: 1}, 0)
    assert solve(prob).status is LpStatus.INFEASIBLE


def test_unbounded_detection():
    prob = LpProblem(num_vars=2, objective=[Rat(-1), Rat(0)])
    prob.add_row({0: 1, 1: -1}, 0)
    assert solve(prob).status is LpStatus.UNBOUNDED


def test_upper_bounds_and_exact_rationals():
    # minimize -x - 2y with x <= 2/3, y <= 1/5 and x + y free below those caps
    prob = LpProblem(
        num_vars=2,
        objective=[Rat(-1), Rat(-2)],
        upper=[rat(2, 3), rat(1, 5)],
    )
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == [rat(2, 3), rat(1, 5)]
    assert sol.value == rat(-2, 3) - rat(2, 5)


def test_exact_residuals_on_solution():
    prob = LpProblem(num_vars=3, objective=[Rat(2), Rat(3), Rat(1)])
    prob.add_row({0: rat(1, 3), 1: 1}, rat(5, 6))
    prob.add_row({1: rat(1, 2), 2: 1}, rat(3, 4))
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    for coeffs, rhs in prob.rows:
        assert sum((c * sol.x[j] for j, c in coeffs.items()), Rat(0)) == rhs


def test_redundant_rows_are_tolerated():
    prob = LpProblem(num_vars=2, objective=[Rat(1), Rat(1)])
    prob.add_row({0: 1, 1: 1}, 1)
    prob.add_row({0: 2, 1: 2}, 2)
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 1


def test_determinism():
    prob1 = LpProblem(num_vars=3, objective=[Rat(0), Rat(-1), Rat(1)])
    prob1.add_row({0: 1, 1: 2, 2: 1}, 4)
    prob1.add_row({0: 1, 1: -1}, 1)
    sols = [solve(prob1) for _ in range(3)]
    assert all(s.x == sols[0].x and s.value == sols[0].value for s in sols)


def test_warm_start_matches_cold_start():
    prob = LpProblem(num_vars=2, objective=[Rat(1), Rat(2)])
    prob.add_row({0: 1, 1: 1}, 1)
    cold = solve(prob)
    warm = solve(prob, initial_basis={0: 1})
    assert warm.status is LpStatus.OPTIMAL
    assert warm.value == cold.value == 1


def test_bad_warm_start_falls_back():
    prob = LpProblem(num_vars=2, objective=[Rat(1), Rat(1)])
    prob.add_row({0: 1}, 1)
    # variable 1 has a zero pivot in row 0; solver must fall back silently
    sol = solve(prob, initial_basis={0: 1})
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 1


def _solve_square(matrix, rhs):
    """Exact Gaussian elimination; None if singular."""
    m = len(matrix)
    a = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(m):
        piv = next((i for i in range(col, m) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Rat(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for i in range(m):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][-1] for i in range(m)]


def test_weak_duality_against_basic_enumeration():
    # No feasible basic solution may beat the reported optimum.
    rng = random.Random(1105)
    for _ in range(25):
        n = rng.randint(3, 6)
        m = rng.randint(1, min(3, n - 1))
        prob = LpProblem(
            num_vars=n, objective=[Rat(rng.randint(-3, 3)) for _ in range(n)]
        )
        rows = []
        for _ in range(m):
            coeffs = {j: Rat(rng.randint(-3, 3)) for j in range(n)}
            rows.append(coeffs)
        point = [Rat(rng.randint(0, 3)) for _ in range(n)]  # ensures feasibility
        for coeffs in rows:
            rhs = sum((c * point[j] for j, c in coeffs.items()), Rat(0))
            prob.add_row(coeffs, rhs)
        sol = solve(prob)
        assert sol.status in (LpStatus.OPTIMAL, LpStatus.UNBOUNDED)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        best = None
        for cols in itertools.combinations(range(n), m):
            matrix = [[coeffs.get(j, Rat(0)) for j in cols] for coeffs in rows]
            rhs = [r for _, r in prob.rows]
            sub = _solve_square(matrix, rhs)
            if sub is None or any(v < 0 for v in sub):
                continue
            x = [Rat(0)] * n
            for j, v in zip(cols, sub):
                x[j] = v
            value = sum((c * v for c, v in zip(prob.objective, x)), Rat(0))
            if best is None or value < best:
                best = value
        assert best is not None
        assert sol.value <= best
        assert sol.value == best  # simplex optimum is attained at a basic solution

