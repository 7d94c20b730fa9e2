import itertools
import random

import pytest

from mvmdp.lp import LpProblem, LpStatus, solve
from mvmdp.rationals import Rat, rat


def test_single_variable_lower_bound():
    # x >= 3 as the surplus row x - s = 3
    prob = LpProblem(num_vars=2, objective={0: Rat(1)})
    prob.add_row({0: 1, 1: -1}, 3)
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 3
    assert sol.x == [3, 0]


def test_segment_minimum():
    prob = LpProblem(num_vars=2, objective={0: Rat(-1), 1: Rat(-1)})
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
    prob = LpProblem(num_vars=2, objective={0: Rat(-1)})
    prob.add_row({0: 1, 1: -1}, 0)
    assert solve(prob).status is LpStatus.UNBOUNDED


def test_upper_bounds_and_exact_rationals():
    # minimize -x - 2y with x <= 2/3, y <= 1/5 as the slack rows
    # x + s = 2/3 and y + s' = 1/5, and x + y free below those caps
    prob = LpProblem(num_vars=4, objective={0: Rat(-1), 1: Rat(-2)})
    prob.add_row({0: 1, 2: 1}, rat(2, 3))
    prob.add_row({1: 1, 3: 1}, rat(1, 5))
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == [rat(2, 3), rat(1, 5), 0, 0]
    assert sol.value == rat(-2, 3) - rat(2, 5)


def test_exact_residuals_on_solution():
    prob = LpProblem(num_vars=3, objective={0: Rat(2), 1: Rat(3), 2: Rat(1)})
    prob.add_row({0: rat(1, 3), 1: 1}, rat(5, 6))
    prob.add_row({1: rat(1, 2), 2: 1}, rat(3, 4))
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    for coeffs, rhs in prob.rows:
        assert sum((c * sol.x[j] for j, c in coeffs.items()), Rat(0)) == rhs


def test_redundant_rows_are_tolerated():
    prob = LpProblem(num_vars=2, objective={0: Rat(1), 1: Rat(1)})
    prob.add_row({0: 1, 1: 1}, 1)
    prob.add_row({0: 2, 1: 2}, 2)
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 1


def test_determinism():
    prob1 = LpProblem(num_vars=3, objective={1: Rat(-1), 2: Rat(1)})
    prob1.add_row({0: 1, 1: 2, 2: 1}, 4)
    prob1.add_row({0: 1, 1: -1}, 1)
    sols = [solve(prob1) for _ in range(3)]
    assert all(s.x == sols[0].x and s.value == sols[0].value for s in sols)


def test_warm_start_matches_cold_start():
    prob = LpProblem(num_vars=2, objective={0: Rat(1), 1: Rat(2)})
    prob.add_row({0: 1, 1: 1}, 1)
    cold = solve(prob)
    warm = solve(prob, initial_basis={0: 1})
    assert warm.status is LpStatus.OPTIMAL
    assert warm.value == cold.value == 1


def test_bad_warm_start_falls_back():
    prob = LpProblem(num_vars=2, objective={0: Rat(1), 1: Rat(1)})
    prob.add_row({0: 1}, 1)
    # variable 1 has a zero pivot in row 0; solver must fall back silently
    sol = solve(prob, initial_basis={0: 1})
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 1


def test_solve_refuses_unknown_variables_and_basis_entries():
    prob = LpProblem(num_vars=1, objective={1: 1})
    with pytest.raises(ValueError, match="unknown variable 1"):
        solve(prob)
    prob = LpProblem(num_vars=1, objective={0: 1}, rows=[({0: 1}, 1)])
    for basis in ({1: 0}, {0: 1}):
        with pytest.raises(ValueError, match="unknown row/variable"):
            solve(prob, initial_basis=basis)


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
            num_vars=n, objective={j: Rat(rng.randint(-3, 3)) for j in range(n)}
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
            value = sum((c * x[j] for j, c in prob.objective.items()), Rat(0))
            if best is None or value < best:
                best = value
        assert best is not None
        assert sol.value <= best
        assert sol.value == best  # simplex optimum is attained at a basic solution



def _basic_feasible_solutions(matrix, rhs, n):
    """Every basic feasible solution of {y >= 0 : matrix y = rhs}, by brute
    force over column subsets (redundant rows allowed)."""
    out = []
    for size in range(len(matrix) + 1):
        for cols in itertools.combinations(range(n), size):
            # Row-reduce [A_cols | rhs]; keep cols only if independent and
            # the system is consistent.
            a = [[row[j] for j in cols] + [b] for row, b in zip(matrix, rhs)]
            pivots = []
            for col in range(size):
                piv = next((i for i in range(len(pivots), len(a)) if a[i][col] != 0), None)
                if piv is None:
                    break
                k = len(pivots)
                a[k], a[piv] = a[piv], a[k]
                a[k] = [v / a[k][col] for v in a[k]]
                for i in range(len(a)):
                    if i != k and a[i][col] != 0:
                        f = a[i][col]
                        a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                pivots.append(col)
            if len(pivots) < size or any(row[-1] != 0 for row in a[size:]):
                continue
            y = [Rat(0)] * n
            for k, j in enumerate(cols):
                y[j] = a[k][-1]
            if all(v >= 0 for v in y):
                out.append(y)
    return out


def _brute_force(prob):
    """(status, optimal value) of prob from its basic solutions and rays.

    prob is min c.x over {x >= 0 : A x = b}. It is infeasible without a basic
    feasible solution, unbounded when an extreme ray (a basic feasible
    solution of {A d = 0, sum d = 1, d >= 0}) has negative cost, and
    otherwise optimal at its cheapest basic feasible solution.
    """
    n = prob.num_vars
    zero = Rat(0)
    matrix = [[coeffs.get(j, zero) for j in range(n)] for coeffs, _ in prob.rows]
    rhs = [b for _, b in prob.rows]

    def value(x):
        return sum((c * x[j] for j, c in prob.objective.items()), zero)

    points = _basic_feasible_solutions(matrix, rhs, n)
    if not points:
        return LpStatus.INFEASIBLE, None
    rays = _basic_feasible_solutions(
        matrix + [[Rat(1)] * n], [zero] * len(matrix) + [Rat(1)], n
    )
    if any(value(d) < 0 for d in rays):
        return LpStatus.UNBOUNDED, None
    return LpStatus.OPTIMAL, min(value(x) for x in points)


def _random_problem(rng):
    """Small LP with some variables capped by an explicit slack row
    x_j + s = u, negative right-hand sides, duplicated rows and, about half
    the time, a guaranteed feasible point."""
    n = rng.randint(1, 4)
    caps = {j: Rat(rng.randint(0, 3)) for j in range(n) if rng.random() < 0.4}
    prob = LpProblem(
        num_vars=n + len(caps),
        objective={j: Rat(rng.randint(-3, 3)) for j in range(n)},
    )
    point = [
        caps[j] - rng.randint(0, int(caps[j])) if j in caps else Rat(rng.randint(0, 2))
        for j in range(n)
    ]
    planted = rng.random() < 0.5
    for _ in range(rng.randint(0, 3)):
        coeffs = {j: Rat(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.8}
        if planted:
            rhs = sum((c * point[j] for j, c in coeffs.items()), Rat(0))
        else:
            rhs = Rat(rng.randint(-4, 4))
        prob.add_row(coeffs, rhs)
        if rng.random() < 0.3:
            scale = rng.choice((1, -1, 2))
            prob.add_row({j: c * scale for j, c in coeffs.items()}, rhs * scale)
    for k, (j, cap) in enumerate(caps.items()):
        prob.add_row({j: 1, n + k: 1}, cap)
    return prob


def test_status_and_value_against_basic_enumeration():
    rng = random.Random(4077)
    seen = {status: 0 for status in LpStatus}
    for _ in range(200):
        prob = _random_problem(rng)
        status, best = _brute_force(prob)
        sol = solve(prob)
        assert sol.status is status
        seen[status] += 1
        if status is not LpStatus.OPTIMAL:
            continue
        assert sol.value == best
        assert sol.value == sum(
            (c * sol.x[j] for j, c in prob.objective.items()), Rat(0)
        )
        for coeffs, rhs in prob.rows:
            assert sum((c * sol.x[j] for j, c in coeffs.items()), Rat(0)) == rhs
        assert all(v >= 0 for v in sol.x)
    assert all(count >= 10 for count in seen.values()), seen


def test_solve_leaves_problem_rows_unchanged():
    # 1 <= x1 <= 3 and x3 <= 5/2 as rows over the slack columns 4, 5, 6
    prob = LpProblem(num_vars=7, objective={0: Rat(1), 1: Rat(-2), 3: Rat(3)})
    prob.add_row({0: 1, 1: 2, 2: -1}, 4)
    prob.add_row({1: rat(1, 3), 3: 1}, -1)
    prob.add_row({0: 1, 2: 1, 3: 0}, 2)
    prob.add_row({1: 1, 4: -1}, 1)
    prob.add_row({1: 1, 5: 1}, 3)
    prob.add_row({3: 1, 6: 1}, rat(5, 2))
    snapshot = [(dict(coeffs), rhs) for coeffs, rhs in prob.rows]
    dicts = [coeffs for coeffs, _ in prob.rows]
    for basis in (None, {0: 0}, {0: 2, 2: 0}):
        solve(prob, initial_basis=basis)
        assert prob.rows == snapshot
        assert all(a is b for a, b in zip(dicts, (c for c, _ in prob.rows)))


def test_skeleton_runs_do_not_share_tableau_state():
    from corpus import integer_instances
    from mvmdp.frequency import build_polytope

    for mdp in integer_instances(10)[::4]:
        sk = build_polytope(mdp)
        rows = [(dict(coeffs), rhs) for coeffs, rhs in sk.rows]
        queries = [
            dict(objective=sk.sm_coeffs),
            dict(objective={j: -c for j, c in sk.mean_coeffs.items()}),
            dict(objective=sk.sm_coeffs, extra_rows=[(sk.mean_coeffs, 0)]),
        ]
        first = [sk.run(**query) for query in queries]
        again = [sk.run(**query) for query in queries]
        assert sk.rows == rows
        for a, b in zip(first, again):
            assert a.status is b.status
            assert (a.value, a.x) == (b.value, b.x)


@pytest.mark.parametrize(
    "coeffs, rhs",
    [({0: 0.1}, 1), ({0: 1}, 0.5), ({0: True}, 1), ({0: 1}, False)],
    ids=["coefficient-float", "rhs-float", "coefficient-bool", "rhs-bool"],
)
def test_rows_refuse_floats_and_bools(coeffs, rhs):
    # 0.1 would be stored as 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="exact rational"):
        LpProblem(num_vars=1).add_row(coeffs, rhs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"objective": {0: 0.1}},
        {"objective": {0: True}},
        {"rows": [({0: 0.5}, 1)]},
        {"rows": [({0: 1}, 0.5)]},
        {"rows": [({0: False}, 1)]},
    ],
    ids=["objective-float", "objective-bool", "row-coefficient-float",
         "row-rhs-float", "row-coefficient-bool"],
)
def test_constructor_refuses_floats_and_bools(kwargs):
    # The constructor is a door like add_row: LpProblem(num_vars=1,
    # objective={0: 0.1}) with the row x = 1 would solve to the float 0.1.
    with pytest.raises(TypeError, match="exact rational"):
        LpProblem(num_vars=1, **kwargs)


def test_constructor_takes_exact_rationals_in_every_form():
    rows = [({0: "1/3", 1: [2, 4]}, 2)]
    prob = LpProblem(num_vars=2, objective={0: 1, 1: "-1/2"}, rows=rows)
    assert prob.objective == {0: Rat(1), 1: Rat(-1, 2)}
    assert prob.rows == [({0: Rat(1, 3), 1: Rat(1, 2)}, Rat(2))]
    assert all(type(c) is Rat for c in prob.objective.values())
    assert all(type(c) is Rat for c in prob.rows[0][0].values())
    # The caller's list is read, not adopted.
    assert rows == [({0: "1/3", 1: [2, 4]}, 2)]
    sol = solve(LpProblem(num_vars=1, objective={0: 1}, rows=[({0: 1}, 1)]))
    assert sol.value == 1 and type(sol.value) is Rat


def test_rows_take_exact_rationals_in_every_form():
    prob = LpProblem(num_vars=2)
    prob.add_row({0: "1/3", 1: [2, 4]}, 2)
    assert prob.rows == [({0: Rat(1, 3), 1: Rat(1, 2)}, Rat(2))]
    assert all(type(c) is Rat for c in prob.rows[0][0].values())
