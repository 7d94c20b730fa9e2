"""Property test for MDP JSON round trips: loads(dumps(m)) == m.

Generated MDPs mix stationary and per-step dynamics (a per-step table whose
rows happen to agree is written back in stationary form), carry
zero-probability transition and reward entries, and draw rewards that are
negative and non-integer. State and action names are arbitrary text.
"""

import pytest

pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis (the [test] extra)"
)

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mvmdp.model import make_mdp, validate  # noqa: E402
from mvmdp.rationals import Rat  # noqa: E402
from mvmdp.serialize import dumps, loads  # noqa: E402

PROPERTY = settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)

names = st.text(max_size=3)
rewards = st.builds(Rat, st.integers(-6, 6), st.sampled_from((1, 2, 3, 7)))


def _pmf(draw, keys):
    """A distribution over keys; weight 0 keeps a zero-probability entry."""
    weights = draw(st.lists(st.integers(0, 3), min_size=len(keys),
                            max_size=len(keys)))
    if not any(weights):
        weights[draw(st.integers(0, len(keys) - 1))] = 1
    total = sum(weights)
    return {k: Rat(w, total) for k, w in zip(keys, weights)}


def _table(draw, horizon, pairs, row):
    """Per (s, a): one stationary entry or one entry per step."""
    table = {}
    for s, a in pairs:
        if draw(st.booleans()):
            table[(s, a)] = row()
        else:
            for t in range(horizon):
                table[(t, s, a)] = row()
    return table


@st.composite
def mdps(draw):
    horizon = draw(st.integers(1, 3))
    states = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    actions = {
        s: draw(st.lists(names, min_size=1, max_size=2, unique=True))
        for s in states
    }
    pairs = [(s, a) for s in states for a in actions[s]]

    def transition_row():
        targets = draw(st.lists(st.sampled_from(states), min_size=1,
                                max_size=len(states), unique=True))
        return _pmf(draw, targets)

    def reward_pmf():
        values = draw(st.lists(rewards, min_size=1, max_size=3, unique=True))
        return _pmf(draw, values)

    return make_mdp(
        horizon,
        states,
        draw(st.sampled_from(states)),
        actions,
        _table(draw, horizon, pairs, transition_row),
        _table(draw, horizon, pairs, reward_pmf),
    )


@PROPERTY
@given(mdps())
def test_loads_inverts_dumps(mdp):
    assert validate(mdp) == []
    text = dumps(mdp)
    again = loads(text)
    assert again == mdp
    assert dumps(again) == text
