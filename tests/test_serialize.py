import json

import pytest

from corpus import REPEATED_NAMES, VALID_DOCUMENT
from mvmdp import serialize
from mvmdp.errors import InputFormatError
from mvmdp.fixtures import forked_path, offset_chain, one_shot_two_arms
from mvmdp.rationals import rat


@pytest.mark.parametrize(
    "mdp", [one_shot_two_arms(), offset_chain(), forked_path(rat(2, 7))]
)
def test_round_trip_is_value_exact(mdp):
    text = serialize.dumps(mdp)
    again = serialize.loads(text)
    assert again == mdp
    assert serialize.dumps(again) == text


def test_stationary_entries_expand_to_all_steps():
    doc = {
        "horizon": 3,
        "states": ["s0"],
        "initial_state": "s0",
        "actions": {"s0": ["a"]},
        "transitions": [{"s": "s0", "a": "a", "rows": {"s0": [1, 1]}}],
        "rewards": [{"s": "s0", "a": "a", "pmf": [[[1, 2], [1, 1]]]}],
    }
    mdp = serialize.loads(json.dumps(doc))
    for t in range(3):
        assert mdp.transitions[(t, "s0", "a")] == {"s0": 1}
        assert mdp.rewards[(t, "s0", "a")] == {rat(1, 2): 1}


def test_nonstationary_dynamics_round_trip():
    doc = {
        "horizon": 2,
        "states": ["s0"],
        "initial_state": "s0",
        "actions": {"s0": ["a"]},
        "transitions": [{"s": "s0", "a": "a", "rows": {"s0": [1, 1]}}],
        "rewards": [
            {"t": 0, "s": "s0", "a": "a", "pmf": [[[1, 1], [1, 1]]]},
            {"t": 1, "s": "s0", "a": "a", "pmf": [[[-1, 1], [1, 1]]]},
        ],
    }
    mdp = serialize.loads(json.dumps(doc))
    assert mdp.rewards[(0, "s0", "a")] == {1: 1}
    assert mdp.rewards[(1, "s0", "a")] == {-1: 1}
    assert serialize.loads(serialize.dumps(mdp)) == mdp


_STEP0_REWARD = {"t": 0, "s": "s0", "a": "a", "pmf": [[[5, 1], [1, 1]]]}


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("horizon"), "missing keys"),
        (lambda d: d.update(horizon="two"), "horizon"),
        (lambda d: d["transitions"].append({"s": "s0", "a": "a", "rows": {"s0": [1, 1]}}), "duplicate"),
        (lambda d: d["rewards"][0]["pmf"].append([[0, 1]]), "pmf item"),
        (lambda d: d["transitions"][0]["rows"].update(s0=[1, 0]), "bad rational"),
        # A per-step entry overlapping a stationary one, in either order.
        (lambda d: d["rewards"].append(_STEP0_REWARD), "overlap"),
        (lambda d: d["rewards"].insert(0, _STEP0_REWARD), "overlap"),
    ],
)
def test_malformed_documents_raise_input_errors(mutate, needle):
    doc = {
        "horizon": 1,
        "states": ["s0"],
        "initial_state": "s0",
        "actions": {"s0": ["a"]},
        "transitions": [{"s": "s0", "a": "a", "rows": {"s0": [1, 1]}}],
        "rewards": [{"s": "s0", "a": "a", "pmf": [[[0, 1], [1, 1]]]}],
    }
    mutate(doc)
    with pytest.raises(InputFormatError) as err:
        serialize.loads(json.dumps(doc))
    assert needle in str(err.value)


def test_strict_mode_rejects_semantically_invalid_mdp():
    doc = {
        "horizon": 1,
        "states": ["s0"],
        "initial_state": "s0",
        "actions": {"s0": ["a"]},
        "transitions": [{"s": "s0", "a": "a", "rows": {"s0": [1, 2]}}],
        "rewards": [{"s": "s0", "a": "a", "pmf": [[[0, 1], [1, 1]]]}],
    }
    with pytest.raises(InputFormatError):
        serialize.loads(json.dumps(doc))
    lax = serialize.loads(json.dumps(doc), strict=False)
    assert lax.horizon == 1


@pytest.mark.parametrize("where", sorted(REPEATED_NAMES))
def test_a_repeated_name_is_an_input_error(where):
    # json.loads alone keeps the last value, so the document would depend
    # on the order of its names.
    name, text = REPEATED_NAMES[where]
    assert serialize.loads(VALID_DOCUMENT).horizon == 1
    with pytest.raises(InputFormatError) as err:
        serialize.loads(text)
    assert str(err.value) == f"name {name!r} repeated in one JSON object"


def test_not_json_raises():
    with pytest.raises(InputFormatError):
        serialize.loads("{not json")
