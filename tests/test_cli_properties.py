"""Property tests for the CLI on malformed MDP documents, flag values and
command lines.

One field of a valid document, at any depth, is replaced by an arbitrary JSON
value, and the document is read from stdin by `validate` and by
`frontier --exact`. Separately, the valid document is queried with drawn
numeric flag text, passed as `--flag=TEXT` or as `--flag TEXT` (where text
like `-x` reads as a flag). Every run must answer (exit 0 or 1) or fail with
exit 2 and exactly one `error:` line on stderr; no exception may escape
`cli.run`.

Last, command lines drawn from the CLI's own table are read both by its argv
reader and by the argparse parser it replaced (`_build_parser`): the two
must agree, but for the two ways the reader is stricter or looser.
"""

import argparse
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

from mvmdp import cli  # noqa: E402
from mvmdp.cli import _cmd_augment_stats, _cmd_validate, _version, run  # noqa: E402
from mvmdp.cli_engines import (  # noqa: E402
    FORMATS,
    _cmd_discretize,
    _cmd_feasible_mean_var,
    _cmd_feasible_pair,
    _cmd_frontier,
    _cmd_gen_3sat,
    _cmd_gen_subset_sum,
    _cmd_max_variance,
    _cmd_min_variance,
    _cmd_oracle,
    _cmd_separation,
    _cmd_zero_variance,
)
from mvmdp.cli_io import _UsageError  # noqa: E402
from mvmdp.model import POLICY_CLASSES  # noqa: E402
from mvmdp.rationals import RATIONAL_TEXT  # noqa: E402

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one `error:` line, as for every exit 2
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its own argv reader, kept
    as that reader's reference."""
    parser = _Parser(
        prog="mvmdp",
        description=(
            "Exact mean-variance analysis of finite-horizon MDPs: feasibility "
            "of (mean, variance) targets, frontier computation, zero-variance "
            "forcing, policy-class comparison, and instance generators."
        ),
        epilog=FORMATS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=_version(),
        help="print the version, the Python version and the rational backend",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("input", help="MDP JSON path, or - for stdin")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("-o", "--output", help="write here instead of stdout")

    p = sub.add_parser(
        "validate",
        parents=[reads, writes],
        help="check an MDP JSON file; exit 0 iff well formed and valid",
    )
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "augment-stats",
        parents=[reads, writes],
        help="per-step counts of reachable (state, cumulative reward) nodes",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_augment_stats)

    p = sub.add_parser(
        "feasible-pair",
        parents=[reads, writes],
        help="is (mean, variance) exactly achievable? exit 0 yes / 1 no",
    )
    p.add_argument("--lambda", dest="lam", metavar="P/Q", required=True,
                   help="target mean, exact rational")
    p.add_argument("--v", metavar="P/Q", required=True,
                   help="target variance, exact rational")
    p.set_defaults(handler=_cmd_feasible_pair)

    p = sub.add_parser(
        "feasible-mean-var",
        parents=[reads, writes],
        help="mean exactly lambda with variance <= v? exit 0 yes / 1 no; "
             "achieved_variance is the least variance at mean lambda",
    )
    p.add_argument("--lambda", dest="lam", metavar="P/Q", required=True,
                   help="target mean, exact rational")
    p.add_argument("--v", metavar="P/Q", required=True,
                   help="variance cap, exact rational")
    p.set_defaults(handler=_cmd_feasible_mean_var)

    p = sub.add_parser(
        "frontier",
        parents=[reads, writes],
        help="minimum variance as a function of the mean floor",
    )
    p.add_argument("--epsilon", metavar="P/Q",
                   help="value tolerance (approximate mode)")
    p.add_argument("--nu", metavar="P/Q",
                   help="mean-axis tolerance (approximate mode)")
    p.add_argument("--exact", action="store_true",
                   help="exact boundary instead of the grid approximation")
    p.add_argument("--prune-eps", metavar="P/Q",
                   help="with --exact: prune budget for the boundary recursion")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_frontier)

    p = sub.add_parser(
        "zero-variance",
        parents=[reads, writes],
        help="all surely-forcible terminal values; exit 1 if none",
    )
    p.set_defaults(handler=_cmd_zero_variance)

    p = sub.add_parser(
        "min-variance",
        parents=[reads, writes],
        help="smallest achievable variance and a witness",
    )
    p.add_argument("--prune-eps", metavar="P/Q",
                   help="prune budget; omit for the exact answer")
    p.set_defaults(handler=_cmd_min_variance)

    p = sub.add_parser(
        "max-variance",
        parents=[reads, writes],
        help="largest achievable variance and a witness",
    )
    p.add_argument("--prune-eps", metavar="P/Q",
                   help="prune budget; omit for the exact answer")
    p.set_defaults(handler=_cmd_max_variance)

    searchy = argparse.ArgumentParser(add_help=False)
    searchy.add_argument("--lambda", dest="lam", metavar="P/Q", required=True,
                         help="mean floor, exact rational")
    searchy.add_argument("--v", metavar="P/Q", required=True,
                         help="variance cap, exact rational")
    searchy.add_argument("--grid-resolution", type=int, default=16,
                         help="randomization grid levels (default %(default)s)")

    p = sub.add_parser(
        "oracle",
        parents=[reads, writes, searchy],
        help="can one policy class reach mean >= lambda with variance <= v?",
    )
    p.add_argument("--class", dest="policy_class", required=True,
                   choices=POLICY_CLASSES)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser(
        "separation",
        parents=[reads, writes, searchy],
        help="the same question for all four policy classes at once",
    )
    p.set_defaults(handler=_cmd_separation)

    gen = sub.add_parser("gen", help="instance generators")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    p = gen_sub.add_parser(
        "subset-sum",
        parents=[writes],
        help="sign-choice chain whose zero-variance set tests a partition",
    )
    p.add_argument("--r", dest="values", metavar="N", type=int, nargs="+",
                   required=True, help="positive integer values")
    p.set_defaults(handler=_cmd_gen_subset_sum)
    p = gen_sub.add_parser(
        "3sat",
        parents=[writes],
        help="satisfiability instance over signed literals",
    )
    p.add_argument("--clauses", metavar="L,L,L[;L,L,L]", nargs="+",
                   required=True,
                   help="clauses as comma-separated signed integers; join "
                        "several with ';' so negative leads do not read as "
                        "flags, e.g. --clauses '1,-2,3;-1,2'")
    p.set_defaults(handler=_cmd_gen_3sat)

    p = sub.add_parser(
        "discretize",
        parents=[reads, writes],
        help="floor every reward to a multiple of delta",
    )
    p.add_argument("--delta", metavar="P/Q", required=True,
                   help="grid step, exact positive rational")
    p.set_defaults(handler=_cmd_discretize)

    return parser


def _leaves(node, path=()):
    """(argv path, command) for every subcommand of the table."""
    for name, sub in node.subcommands.items():
        if sub.subcommands is None:
            yield path + (name,), sub
        else:
            yield from _leaves(sub, path + (name,))


LEAVES = list(_leaves(cli.COMMANDS))
VALUE_TEXT = {
    str: st.sampled_from(["3", "-2", "7/4", "-1/2", "0.5", "-1.5", "x", "-", ""]),
    int: st.sampled_from(["16", "-5", "0", "x", "-1.5", "-1/2"]),
}


@st.composite
def command_lines(draw):
    """(argv, abbreviated): one subcommand's input and flags in any order,
    each flag as `--opt v`, `--opt v w ...` or `--opt=v`, a required one
    sometimes left out, a value sometimes outside the flag's choices or
    type, sometimes an unknown flag or a second input; abbreviated is true
    when a flag name is cut to a prefix, which argparse also read."""
    path, command = draw(st.sampled_from(LEAVES))
    groups, abbreviated = [], False
    for flag in command.flags:
        if not (draw(st.integers(0, 9)) > 0 if flag.required else draw(st.booleans())):
            continue
        name = draw(st.sampled_from(flag.names))
        if len(name) > 4 and draw(st.integers(0, 9)) == 0:
            name, abbreviated = name[:-2], True
        if flag.nargs == 0:
            groups.append([name])
            continue
        if flag.choices is not None:
            values = [draw(st.sampled_from([*flag.choices, "bogus"]))]
        else:
            most = 3 if flag.nargs == "+" else 1
            values = draw(st.lists(VALUE_TEXT[flag.convert], min_size=1, max_size=most))
        if draw(st.booleans()):
            groups.append([f"{name}={values[0]}"])
        else:
            groups.append([name, *values])
    if command.reads and draw(st.integers(0, 9)) > 0:
        groups.append([draw(st.sampled_from(["in.json", "-"]))])
    if draw(st.integers(0, 9)) == 0:
        groups.append([draw(st.sampled_from(["--bogus", "extra.json"]))])
    groups = draw(st.permutations(groups))
    return [*path, *(token for group in groups for token in group)], abbreviated


def _argparse_reads(argv):
    try:
        return _build_parser().parse_args(argv)
    except _UsageError:
        return None


@PROPERTY
@given(command_lines())
def test_the_argv_reader_reads_what_argparse_read(drawn):
    argv, abbreviated = drawn
    expected = _argparse_reads(argv)
    try:
        handler, args = cli._parse(argv)
    except _UsageError:
        handler = args = None
    if abbreviated:
        # Flag names are exact: a prefix argparse expanded is refused.
        assert handler is None, argv
    elif expected is not None:
        assert handler is expected.handler, argv
        assert vars(args) == {
            k: v for k, v in vars(expected).items() if k != "handler"
        }, argv
    elif handler is not None:
        # The other difference: argparse took `--opt -p/q` for a flag
        # without its value.
        assert any(
            t.startswith("-") and "/" in t and RATIONAL_TEXT.match(t)
            for t in argv
        ), argv
    else:
        code, err = _run(argv, "")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: mvmdp"), err
