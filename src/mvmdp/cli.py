"""Command-line front end: the subcommand table, the argv reader and the
dispatcher.

Every numeric answer is printed both ways: an exact "p/q" string and a float
rendering of the same value, or none past the float range ("float twins"
in the help). Decision subcommands (feasible-pair,
feasible-mean-var, oracle, zero-variance) use the exit code as the answer:
0 = yes / feasible, 1 = no / infeasible, 2 = bad input, a cap hit or an
internal engine disagreement. The size caps are fixed constants of the
library, not flags (see "caps:" in the help). Numeric flags are read by
`rationals.rat` in its one grammar, exact rationals like 3, -2, or 7/4;
only the tolerance flags on `frontier` also accept floats, with a warning.

argv is read against COMMANDS alone: flag names are exact (no prefix
abbreviations), a value follows as `--opt value` or `--opt=value`, and a
negative number such as -1/2 is a value, not a flag. `--` ends the flags.

This module holds the table, the reader, `run`, `main` and the two
engine-free handlers, `validate` and `augment-stats`; of mvmdp, only
cli_io, errors, model, rationals and serialize load with it. Every other
handler, and the help text, lives in `mvmdp.cli_engines`, which the table
names and `run` loads on first use, so `validate` compiles none of it.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .cli_io import (
    BAD, OK, _UsageError, _emit, _emit_json, _load_mdp, _num, _read_text,
)
from .errors import (
    AugmentationLimitError,
    EngineDisagreementError,
    EnumerationLimitError,
    InputFormatError,
)
from .model import POLICY_CLASSES
from .rationals import BACKEND, RATIONAL_TEXT
from .serialize import loads


class _Flag:
    """One flag of a subcommand. nargs is 0 for a switch (True when given),
    1 for one value, "+" for one or more; convert reads each value text."""

    __slots__ = ("names", "dest", "help", "nargs", "convert", "choices",
                 "default", "required", "metavar")

    def __init__(self, names, dest, help, *, nargs=1, convert=str,
                 choices=None, default=None, required=False, metavar=None):
        self.names = names
        self.dest = dest
        self.help = help
        self.nargs = nargs
        self.convert = convert
        self.choices = choices
        self.default = False if nargs == 0 else default
        self.required = required
        self.metavar = metavar


_OUTPUT = _Flag(("-o", "--output"), "output", "write here instead of stdout")


class _Command:
    """One node of the table. A subcommand has a handler (a function here,
    or the name of one in `mvmdp.cli_engines`), its flags, -o first, and
    reads, whether it takes the input positional. A group has subcommands,
    keyed by the name argv gives, and the dest that name is stored under."""

    __slots__ = ("help", "handler", "flags", "reads", "subcommands", "dest")

    def __init__(self, help, handler=None, flags=(), *, reads=True,
                 subcommands=None, dest=None):
        self.help = help
        self.handler = handler
        self.flags = () if subcommands else (_OUTPUT, *flags)
        self.reads = reads
        self.subcommands = subcommands
        self.dest = dest


def _cmd_validate(args) -> int:
    from .model import validate

    mdp = loads(_read_text(args.input), strict=False)
    problems = validate(mdp)
    if problems:
        _emit_json(
            {"valid": False, "violations": [str(p) for p in problems]}, args
        )
        print(
            f"error: invalid mdp: {len(problems)} violation(s)",
            file=sys.stderr,
        )
        return BAD
    _emit_json(
        {
            "valid": True,
            "horizon": mdp.horizon,
            "states": len(mdp.states),
            "integer_rewards": mdp.integer_rewards(),
            "reward_bound": _num(mdp.reward_bound),
            "mean_bound": _num(mdp.mean_bound),
        },
        args,
    )
    return OK


def _cmd_augment_stats(args) -> int:
    from .model import per_node, reach

    mdp = _load_mdp(args)
    layers = [len(layer) for layer in reach(mdp, per_node)]
    if args.format == "csv":
        lines = ["t,nodes"]
        lines.extend(f"{t},{n}" for t, n in enumerate(layers))
        _emit("\n".join(lines), args)
        return OK
    _emit_json(
        {
            "node_count": sum(layers),
            "layer_sizes": layers,
            "integer_rewards": mdp.integer_rewards(),
            "reward_bound": _num(mdp.reward_bound),
            "mean_bound": _num(mdp.mean_bound),
        },
        args,
    )
    return OK


def _version() -> str:
    python = ".".join(map(str, sys.version_info[:3]))
    return f"mvmdp {__version__} (Python {python}, rationals {BACKEND})"


def _show_version(args) -> int:
    sys.stdout.write(_version() + "\n")
    return OK


def _exact(name, dest, help, **kwargs):
    return _Flag((name,), dest, help, metavar="P/Q", **kwargs)


_TARGET = (
    _exact("--lambda", "lam", "target mean, exact rational", required=True),
    _exact("--v", "v", "target variance, exact rational", required=True),
)
_SEARCH = (
    _exact("--lambda", "lam", "mean floor, exact rational", required=True),
    _exact("--v", "v", "variance cap, exact rational", required=True),
    _Flag(("--grid-resolution",), "grid_resolution",
          "randomization grid levels", convert=int, default=16,
          metavar="N"),
)

COMMANDS = _Command(
    "Exact mean-variance analysis of finite-horizon MDPs: feasibility of "
    "(mean, variance) targets, frontier computation, zero-variance forcing, "
    "policy-class comparison, and instance generators.",
    dest="command",
    subcommands={
        "validate": _Command(
            "check an MDP JSON file; exit 0 iff well formed and valid",
            _cmd_validate,
        ),
        "augment-stats": _Command(
            "per-step counts of reachable (state, cumulative reward) nodes",
            _cmd_augment_stats,
            [_Flag(("--format",), "format", "output format",
                   choices=("json", "csv"), default="json")],
        ),
        "feasible-pair": _Command(
            "is (mean, variance) exactly achievable? exit 0 yes / 1 no",
            "_cmd_feasible_pair", _TARGET,
        ),
        "feasible-mean-var": _Command(
            "mean exactly lambda with variance <= v? exit 0 yes / 1 no; "
            "achieved_variance is the least variance at mean lambda",
            "_cmd_feasible_mean_var",
            [_TARGET[0],
             _exact("--v", "v", "variance cap, exact rational", required=True)],
        ),
        "frontier": _Command(
            "minimum variance as a function of the mean floor",
            "_cmd_frontier",
            [_exact("--epsilon", "epsilon", "value tolerance (approximate mode)"),
             _exact("--nu", "nu", "mean-axis tolerance (approximate mode)"),
             _Flag(("--exact",), "exact",
                   "exact boundary instead of the grid approximation", nargs=0),
             _exact("--prune-eps", "prune_eps",
                    "with --exact: prune budget for the boundary recursion"),
             _Flag(("--format",), "format", "output format",
                   choices=("csv", "json"), default="csv")],
        ),
        "zero-variance": _Command(
            "all surely-forcible terminal values; exit 1 if none",
            "_cmd_zero_variance",
        ),
        "min-variance": _Command(
            "smallest achievable variance and a witness",
            "_cmd_min_variance",
            [_exact("--prune-eps", "prune_eps",
                    "prune budget; omit for the exact answer")],
        ),
        "max-variance": _Command(
            "largest achievable variance and a witness",
            "_cmd_max_variance",
            [_exact("--prune-eps", "prune_eps",
                    "prune budget; omit for the exact answer")],
        ),
        "oracle": _Command(
            "can one policy class reach mean >= lambda with variance <= v?",
            "_cmd_oracle",
            [*_SEARCH,
             _Flag(("--class",), "policy_class", "policy class",
                   choices=POLICY_CLASSES, required=True)],
        ),
        "separation": _Command(
            "the same question for all four policy classes at once",
            "_cmd_separation", _SEARCH,
        ),
        "gen": _Command(
            "instance generators",
            dest="generator",
            subcommands={
                "subset-sum": _Command(
                    "sign-choice chain whose zero-variance set tests a "
                    "partition",
                    "_cmd_gen_subset_sum",
                    [_Flag(("--r",), "values", "positive integer values",
                           nargs="+", convert=int, required=True,
                           metavar="N")],
                    reads=False,
                ),
                "3sat": _Command(
                    "satisfiability instance over signed literals",
                    "_cmd_gen_3sat",
                    [_Flag(("--clauses",), "clauses",
                           "clauses as comma-separated signed integers; join "
                           "several with ';' so negative leads do not read "
                           "as flags, e.g. --clauses '1,-2,3;-1,2'",
                           nargs="+", required=True, metavar="L,L,L[;L,L,L]")],
                    reads=False,
                ),
            },
        ),
        "discretize": _Command(
            "floor every reward to a multiple of delta",
            "_cmd_discretize",
            [_exact("--delta", "delta", "grid step, exact positive rational",
                    required=True)],
        ),
    },
)

# Besides rationals such as -1/2 (RATIONAL_TEXT), the negative decimals
# argparse took as values: -1.5 or -.5, which --epsilon and --nu read.
_NEGATIVE_DECIMAL = re.compile(r"-\d*\.\d+\Z")


def _is_flag(token: str) -> bool:
    return (
        token[:1] == "-" and token != "-"
        and not RATIONAL_TEXT.match(token)
        and not _NEGATIVE_DECIMAL.match(token)
    )


def _handler(handler):
    """handler itself, or the function of that name in cli_engines."""
    if callable(handler):
        return handler
    from . import cli_engines

    return getattr(cli_engines, handler)


def _help(node: _Command, prog: str) -> tuple:
    return _handler("show_help"), SimpleNamespace(command=node, prog=prog)


def _convert(flag: _Flag, text: str, prog: str):
    label = "/".join(flag.names)
    try:
        value = flag.convert(text)
    except ValueError:
        raise _UsageError(
            f"{prog}: argument {label}: invalid {flag.convert.__name__} "
            f"value: {text!r}"
        ) from None
    if flag.choices is not None and value not in flag.choices:
        choices = ", ".join(map(repr, flag.choices))
        raise _UsageError(
            f"{prog}: argument {label}: invalid choice: {value!r} "
            f"(choose from {choices})"
        )
    return value


def _parse(argv) -> tuple:
    """(handler, namespace) for argv, read against COMMANDS left to right:
    the command names, then the subcommand's flags and input in any order.
    -h/--help and --version answer at once; a bad value raises _UsageError
    there, a missing or unknown argument at the end."""
    node, prog, args, extras = COMMANDS, "mvmdp", SimpleNamespace(), []
    i = 0
    while node.subcommands is not None:
        if i == len(argv):
            raise _UsageError(
                f"{prog}: the following arguments are required: {node.dest}"
            )
        token = argv[i]
        i += 1
        if token in ("-h", "--help"):
            return _help(node, prog)
        if token == "--version" and node is COMMANDS:
            return _show_version, None
        if _is_flag(token):
            extras.append(token)
            continue
        if token not in node.subcommands:
            choices = ", ".join(map(repr, node.subcommands))
            raise _UsageError(
                f"{prog}: argument {node.dest}: invalid choice: {token!r} "
                f"(choose from {choices})"
            )
        setattr(args, node.dest, token)
        node, prog = node.subcommands[token], f"{prog} {token}"

    flags = {name: flag for flag in node.flags for name in flag.names}
    for flag in node.flags:
        setattr(args, flag.dest, flag.default)
    wants_input, only_positionals = node.reads, False
    while i < len(argv):
        token = argv[i]
        i += 1
        if only_positionals or not _is_flag(token):
            if wants_input:
                args.input, wants_input = token, False
            else:
                extras.append(token)
            continue
        if token == "--":
            only_positionals = True
            continue
        if token in ("-h", "--help"):
            return _help(node, prog)
        name, joined, text = token.partition("=")
        flag = flags.get(name)
        if flag is None:
            extras.append(token)
            continue
        if flag.nargs == 0:
            if joined:
                raise _UsageError(
                    f"{prog}: argument {name}: ignored explicit argument {text!r}"
                )
            setattr(args, flag.dest, True)
            continue
        texts = [text] if joined else []
        while (not joined and i < len(argv) and not _is_flag(argv[i])
               and (flag.nargs == "+" or not texts)):
            texts.append(argv[i])
            i += 1
        if not texts:
            expected = "one argument" if flag.nargs == 1 else "at least one argument"
            raise _UsageError(
                f"{prog}: argument {'/'.join(flag.names)}: expected {expected}"
            )
        values = [_convert(flag, t, prog) for t in texts]
        setattr(args, flag.dest, values if flag.nargs == "+" else values[0])

    missing = ["input"] if wants_input else []
    missing += [
        "/".join(flag.names) for flag in node.flags
        if flag.required and getattr(args, flag.dest) is None
    ]
    if missing:
        raise _UsageError(
            f"{prog}: the following arguments are required: {', '.join(missing)}"
        )
    if extras:
        raise _UsageError(f"mvmdp: unrecognized arguments: {' '.join(extras)}")
    return _handler(node.handler), args


def run(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD
    except InputFormatError as exc:
        print(f"error: bad mdp input: {exc}", file=sys.stderr)
        return BAD
    except AugmentationLimitError as exc:
        print(f"error: size cap exceeded: {exc}", file=sys.stderr)
        return BAD
    except EnumerationLimitError as exc:
        print(f"error: policy cap exceeded: {exc}", file=sys.stderr)
        return BAD
    except EngineDisagreementError as exc:
        print(f"error: internal engine disagreement: {exc}", file=sys.stderr)
        return BAD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD


def main() -> None:
    try:
        code = run()
    except BrokenPipeError:
        # Downstream closed early (e.g. piping into head); die quietly the
        # way coreutils do, keeping the interpreter's exit flush off the
        # closed descriptor.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
