"""MDP JSON serialization.

Schema (all rationals are [numerator, denominator] pairs):

    {
      "horizon": 2,
      "states": ["s0", "end"],
      "initial_state": "s0",
      "actions": {"s0": ["a", "b"], "end": ["stay"]},
      "transitions": [{"t": 0, "s": "s0", "a": "a", "rows": {"end": [1, 1]}}, ...],
      "rewards": [{"t": 0, "s": "s0", "a": "b", "pmf": [[[0, 1], [1, 2]], [[2, 1], [1, 2]]]}, ...]
    }

A transitions/rewards entry without "t" is stationary: it applies to every
step. Round-trips are value-exact: loads(dumps(m)) == m, every rational
preserved. dumps emits the stationary form whenever all steps share a row.
"""

from __future__ import annotations

import json

from .errors import InputFormatError
from .model import Mdp, make_mdp, validate
from .rationals import is_integer, rat, rat_pair


def _names(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputFormatError(f"{what} must be a list of strings, got {value!r}")
    return value


def _entry_key(entry: dict, what: str) -> tuple:
    if not isinstance(entry, dict) or "s" not in entry or "a" not in entry:
        raise InputFormatError(f"{what} entry must be an object with 's' and 'a': {entry!r}")
    if not isinstance(entry["s"], str) or not isinstance(entry["a"], str):
        raise InputFormatError(f"{what} entry names must be strings: {entry!r}")
    if "t" in entry:
        t = entry["t"]
        if not is_integer(t) or t < 0:
            raise InputFormatError(f"{what} entry has bad step {t!r}")
        return (t, entry["s"], entry["a"])
    return (entry["s"], entry["a"])


def _parse_pair(value, what: str):
    # Only pairs, because that is the format: rat would also read "p/q" text.
    if not isinstance(value, list):
        raise InputFormatError(f"bad rational in {what}: {value!r} (not a pair)")
    try:
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad rational in {what}: {value!r} ({exc})") from None


def _unique_names(pairs: list) -> dict:
    """A JSON object as a dict; a repeated name raises InputFormatError,
    where json would keep its last value."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise InputFormatError(f"name {name!r} repeated in one JSON object")
            seen.add(name)
    return out


def loads(text: str, strict: bool = True) -> Mdp:
    """Parse MDP JSON. strict=True also rejects semantically invalid MDPs."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_names)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InputFormatError("JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise InputFormatError("top level must be a JSON object")
    missing = [k for k in ("horizon", "states", "initial_state", "actions", "transitions", "rewards") if k not in doc]
    if missing:
        raise InputFormatError(f"missing keys: {', '.join(missing)}")
    horizon = doc["horizon"]
    if not is_integer(horizon):
        raise InputFormatError(f"horizon must be an integer, got {horizon!r}")
    states = _names(doc["states"], "states")
    initial = doc["initial_state"]
    if not isinstance(initial, str):
        raise InputFormatError(f"initial_state must be a string, got {initial!r}")
    actions = doc["actions"]
    if not isinstance(actions, dict):
        raise InputFormatError(f"actions must be an object, got {actions!r}")
    for s, acts in actions.items():
        _names(acts, f"actions of {s!r}")
    for what in ("transitions", "rewards"):
        if not isinstance(doc[what], list):
            raise InputFormatError(f"{what} must be a list, got {doc[what]!r}")

    transitions = {}
    for entry in doc["transitions"]:
        key = _entry_key(entry, "transitions")
        if "rows" not in entry or not isinstance(entry["rows"], dict):
            raise InputFormatError(f"transitions entry missing 'rows': {entry!r}")
        if key in transitions:
            raise InputFormatError(f"duplicate transitions entry for {key}")
        transitions[key] = {
            s2: _parse_pair(p, f"transitions {key}") for s2, p in entry["rows"].items()
        }

    rewards = {}
    for entry in doc["rewards"]:
        key = _entry_key(entry, "rewards")
        if "pmf" not in entry or not isinstance(entry["pmf"], list):
            raise InputFormatError(f"rewards entry missing 'pmf': {entry!r}")
        if key in rewards:
            raise InputFormatError(f"duplicate rewards entry for {key}")
        pmf = {}
        for item in entry["pmf"]:
            if not isinstance(item, list) or len(item) != 2:
                raise InputFormatError(f"rewards pmf item must be [value, prob]: {item!r}")
            value = _parse_pair(item[0], f"rewards {key}")
            prob = _parse_pair(item[1], f"rewards {key}")
            if value in pmf:
                raise InputFormatError(f"duplicate reward value {value} at {key}")
            pmf[value] = prob
        rewards[key] = pmf

    try:
        mdp = make_mdp(horizon, states, initial, actions, transitions, rewards)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(str(exc)) from None
    if strict:
        violations = validate(mdp)
        if violations:
            lines = "; ".join(str(v) for v in violations[:8])
            raise InputFormatError(f"invalid MDP: {lines}")
    return mdp


def load(path, strict: bool = True) -> Mdp:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), strict=strict)


def _dynamics_entries(mdp: Mdp, table, encode_row):
    """Group per (s, a); emit one stationary entry when all steps share a row."""
    entries = []
    for s in mdp.states:
        for a in mdp.actions[s]:
            rows = [table.get((t, s, a)) for t in range(mdp.horizon)]
            if all(r is not None for r in rows) and all(r == rows[0] for r in rows):
                entries.append({"s": s, "a": a, **encode_row(rows[0])})
            else:
                for t, r in enumerate(rows):
                    if r is not None:
                        entries.append({"t": t, "s": s, "a": a, **encode_row(r)})
    return entries


def dumps(mdp: Mdp) -> str:
    doc = {
        "horizon": mdp.horizon,
        "states": list(mdp.states),
        "initial_state": mdp.initial_state,
        "actions": {s: list(mdp.actions[s]) for s in mdp.states},
        "transitions": _dynamics_entries(
            mdp,
            mdp.transitions,
            lambda row: {"rows": {s2: rat_pair(p) for s2, p in row.items()}},
        ),
        "rewards": _dynamics_entries(
            mdp,
            mdp.rewards,
            lambda pmf: {
                "pmf": [
                    [rat_pair(v), rat_pair(p)]
                    for v, p in sorted(pmf.items(), key=lambda vp: vp[0])
                ]
            },
        ),
    }
    return json.dumps(doc, indent=2)


def dump(mdp: Mdp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(mdp))
        fh.write("\n")
