"""The value classes: plain classes whose constructors take the positional
and keyword forms their callers use, and whose equality, where defined,
compares fields."""

import pytest

from mvmdp.frequency import FrequencyVector
from mvmdp.games import ClassFeasibility, GameResult
from mvmdp.lp import LpProblem, LpSolution, LpStatus
from mvmdp.model import (
    AugmentedSpace,
    Mdp,
    PolicyEvaluation,
    PolicySpec,
    Violation,
)
from mvmdp.rationals import rat
from mvmdp.setdp import ExactFrontier
from mvmdp.tradeoff import MeanCurve, TradeoffCurve

HALF = rat(1, 2)
MDP_FIELDS = dict(
    horizon=1,
    states=("s",),
    initial_state="s",
    actions={"s": ("a",)},
    transitions={(0, "s", "a"): {"s": rat(1)}},
    rewards={(0, "s", "a"): {rat(0): rat(1)}},
)
CURVE = dict(mean_bound=rat(1), delta=HALF, epsilon=HALF, grid=(rat(-1),))

# (class, positional arguments, the same as keywords)
FORMS = [
    (Mdp, tuple(MDP_FIELDS.values()), MDP_FIELDS),
    (Violation, ((0, "s", "a"), "bad"), dict(location=(0, "s", "a"), message="bad")),
    (AugmentedSpace, (((("s", rat(0)),),),), dict(layers=((("s", rat(0)),),))),
    (PolicySpec, ("TS", {(0, "s"): "a"}),
     dict(policy_class="TS", rule={(0, "s"): "a"})),
    (PolicyEvaluation, (HALF, HALF, rat(1, 4), {HALF: rat(1)}),
     dict(mean=HALF, second_moment=HALF, variance=rat(1, 4),
          terminal={HALF: rat(1)})),
    (LpSolution, (LpStatus.OPTIMAL, HALF, [HALF]),
     dict(status=LpStatus.OPTIMAL, value=HALF, x=[HALF])),
    (ExactFrontier, (((HALF, HALF),), ((rat(1, 4), (HALF, HALF)),), HALF),
     dict(chain=((HALF, HALF),), best=((rat(1, 4), (HALF, HALF)),),
          lowest=HALF)),
    (FrequencyVector, ({}, {(0, "s", rat(0)): rat(1)}),
     dict(z_sa={}, z_x={(0, "s", rat(0)): rat(1)})),
    (GameResult, (frozenset({rat(0)}), {}),
     dict(achievable_values=frozenset({rat(0)}), winning_policy={})),
    (ClassFeasibility, (False, None, "exhaustive enumeration"),
     dict(feasible=False, witness=None, detail="exhaustive enumeration")),
    (TradeoffCurve, (*CURVE.values(), (HALF,), (HALF,), (HALF,)),
     dict(CURVE, qhat=(HALF,), uhat=(HALF,), cell_values=(HALF,))),
    (MeanCurve, (*CURVE.values(), (HALF,), (HALF,)),
     dict(CURVE, cell_caps=(HALF,), suffix_caps=(HALF,))),
]


@pytest.mark.parametrize(
    "cls, args, kwargs", FORMS, ids=[form[0].__name__ for form in FORMS]
)
def test_positional_and_keyword_forms_agree(cls, args, kwargs):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    # Only Mdp keeps a __dict__, for its cached reward_den.
    assert hasattr(by_keyword, "__dict__") == (cls is Mdp)


def test_lp_problem_forms_and_fresh_defaults():
    rows = [({0: 1, 1: 1}, 1)]
    by_keyword = LpProblem(num_vars=2, objective={0: 1}, rows=rows)
    by_position = LpProblem(2, {0: 1}, rows)
    for prob in (by_keyword, by_position):
        assert prob.num_vars == 2
        assert prob.objective == {0: rat(1)}
        assert prob.rows == [({0: rat(1), 1: rat(1)}, rat(1))]
    # Each problem owns its rows and objective; none shares a default.
    first, second = LpProblem(num_vars=1), LpProblem(1)
    first.add_row({0: 1}, 1)
    assert second.rows == [] and second.objective == {}
    assert first.objective is not second.objective
    assert rows == [({0: 1, 1: 1}, 1)]


def test_lp_solution_defaults():
    sol = LpSolution(LpStatus.INFEASIBLE)
    assert (sol.status, sol.value, sol.x) == (LpStatus.INFEASIBLE, None, None)


COMPARED = [
    form for form in FORMS
    if form[0] in (Mdp, AugmentedSpace, PolicySpec, FrequencyVector,
                   ClassFeasibility, TradeoffCurve)
]


@pytest.mark.parametrize(
    "cls, args, kwargs", COMPARED, ids=[form[0].__name__ for form in COMPARED]
)
def test_equality_compares_fields(cls, args, kwargs):
    # The classes that code or tests compare keep field-by-field equality;
    # the rest compare by identity, as nothing compares them.
    assert cls(*args) == cls(**kwargs)
    last = list(kwargs)[-1]
    assert cls(**kwargs) != cls(**dict(kwargs, **{last: None}))
    assert cls(**kwargs) != object()
