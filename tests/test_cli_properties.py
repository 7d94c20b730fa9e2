"""Property tests for the CLI on malformed MDP documents and flag values.

One field of a valid document, at any depth, is replaced by an arbitrary JSON
value, and the document is read from stdin by `validate` and by
`frontier --exact`. Separately, the valid document is queried with drawn
numeric flag text, passed as `--flag=TEXT` or as `--flag TEXT` (where text
like `-x` reads as a flag). Every run must answer (exit 0 or 1) or fail with
exit 2 and exactly one `error:` line on stderr; no exception may escape
`cli.run`.
"""

import contextlib
import copy
import io
import json
import sys

import pytest

pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis (the [test] extra)"
)

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mvmdp.cli import run  # noqa: E402

PROPERTY = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

# Stationary and per-step entries, a self-loop and a two-point reward.
BASE = {
    "horizon": 2,
    "states": ["s0", "end"],
    "initial_state": "s0",
    "actions": {"s0": ["a", "b"], "end": ["stay"]},
    "transitions": [
        {"s": "s0", "a": "a", "rows": {"end": [1, 1]}},
        {"s": "s0", "a": "b", "rows": {"s0": [1, 2], "end": [1, 2]}},
        {"s": "end", "a": "stay", "rows": {"end": [1, 1]}},
    ],
    "rewards": [
        {"t": 0, "s": "s0", "a": "a", "pmf": [[[0, 1], [1, 1]]]},
        {"t": 1, "s": "s0", "a": "a", "pmf": [[[1, 1], [1, 1]]]},
        {"s": "s0", "a": "b", "pmf": [[[0, 1], [1, 2]], [[2, 1], [1, 2]]]},
        {"s": "end", "a": "stay", "pmf": [[[0, 1], [1, 1]]]},
    ],
}


def _paths(node, prefix=()):
    """The path of every value below node: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def _assert_answer_or_one_error(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_base_document_answers():
    text = json.dumps(BASE)
    assert _run(["validate", "-"], text) == (0, "")
    assert _run(["frontier", "--exact", "-"], text) == (0, "")


@PROPERTY
@given(st.sampled_from(PATHS), json_values)
def test_one_replaced_field_gets_an_answer_or_one_error_line(path, value):
    doc = copy.deepcopy(BASE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(doc)
    for argv in (["validate", "-"], ["frontier", "--exact", "-"]):
        _assert_answer_or_one_error(*_run(argv, text))


small = st.integers(-12, 12)
wide = st.integers(-(10**30), 10**30)
denominators = st.integers(1, 12) | st.integers(1, 10**30)
flag_text = st.one_of(
    small.map(str),
    st.tuples(small, st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.tuples(wide, denominators).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    small.map(lambda p: f"{p}/0"),
    st.floats().map(repr),
    st.sampled_from(["+3", "-0", "+1/2", "-1/2", "--1", "+-1", "1/-2", "-/2"]),
    st.text(max_size=8),
)

FLAG_QUERIES = (
    ["feasible-pair"],
    ["feasible-mean-var"],
    ["oracle", "--class", "TSW_U"],
)


def _flag(name, text, joined):
    return [f"{name}={text}"] if joined else [name, text]


@PROPERTY
@given(st.sampled_from(FLAG_QUERIES), flag_text, flag_text, st.booleans())
def test_drawn_target_flags_get_an_answer_or_one_error_line(query, lam, v, joined):
    argv = [query[0], "-", *query[1:]]
    argv += _flag("--lambda", lam, joined) + _flag("--v", v, joined)
    _assert_answer_or_one_error(*_run(argv, json.dumps(BASE)))


@PROPERTY
@given(flag_text, st.booleans())
def test_drawn_prune_budget_gets_an_answer_or_one_error_line(budget, joined):
    argv = ["min-variance", "-", *_flag("--prune-eps", budget, joined)]
    _assert_answer_or_one_error(*_run(argv, json.dumps(BASE)))
