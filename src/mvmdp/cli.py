"""Command-line front end.

Every numeric answer is printed both ways: an exact "p/q" string and a float
rendering of the same value, or none past the float range ("float twins"
in the help). Decision subcommands (feasible-pair,
feasible-mean-var, oracle, zero-variance) use the exit code as the answer:
0 = yes / feasible, 1 = no / infeasible, 2 = bad input, a cap hit or an
internal engine disagreement. The size caps are fixed constants of the
library, not flags (see "caps:" in the help). Numeric flags are read by
`rationals.rat` in its one grammar, exact rationals like 3, -2, or 7/4;
only the tolerance flags on `frontier` also accept floats, with a warning.

Only errors, model, rationals and serialize load with this module. Each
subcommand's handler imports the engines it calls, so `validate` never
compiles the simplex and `frontier --exact` never loads the game solver.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .errors import (
    AugmentationLimitError,
    EngineDisagreementError,
    EnumerationLimitError,
    InputFormatError,
)
from .model import Mdp, POLICY_CLASSES, PolicySpec
from .rationals import BACKEND, Rat, float_twin, rat, rat_str, rationalize_float
from .serialize import dumps, loads

OK = 0
NO = 1
BAD = 2

FORMATS = """\
formats:
  MDP JSON (input to every subcommand reading an instance; output of gen
  and discretize). Rationals are [numerator, denominator] pairs:
    {"horizon": 2, "states": ["s0", "end"], "initial_state": "s0",
     "actions": {"s0": ["a", "b"], "end": ["stay"]},
     "transitions": [{"t": 0, "s": "s0", "a": "a", "rows": {"end": [1, 1]}}, ...],
     "rewards": [{"t": 0, "s": "s0", "a": "b",
                  "pmf": [[[0, 1], [1, 2]], [[2, 1], [1, 2]]]}, ...]}
  An entry without "t" is stationary and applies at every step.

  frontier CSV (approximate mode): columns lambda_lo, lambda_hi, qhat,
  uhat, vhat plus *_float twins; one row per grid cell; "inf" marks an
  infeasible cell in both its columns. For any rational rewards, vhat
  underestimates the exact frontier on the cell. With --format json, each
  of "rows" is {"lambda_lo": N, "lambda_hi": N, "qhat": N, "uhat": N,
  "vhat": N}, null marking an infeasible cell.

  frontier CSV (--exact): columns lambda, lambda_float, vstar, vstar_float;
  rows sample every boundary vertex and edge midpoint of the frontier.
  Both frontier CSVs, like augment-stats --format csv, end every line
  with LF alone, no CR.

  polygon JSON (inside min-variance / max-variance / frontier --exact
  --format json output): {"vertices": [{"mean": N, "second_moment": N,
  "variance": N}, ...]} where N = {"pq": "p/q", "float": x}; vertices walk
  the achievable (mean, second moment) polygon counterclockwise.

  float twins: x and every *_float column hold the float nearest the
  exact value. Past the float range (|value| above about 1.8e308) x is
  null and a *_float column is empty; the exact value is still there.

  feasible-mean-var JSON: on yes, "achieved_variance" is the least variance
  of any policy with mean exactly lambda, and "policy" attains it.

  policy JSON (witnesses): {"class": "TSW_U", "rules": [{"t": 0, "s": "s0",
  "w": N, "choose": {"a": N, ...}}, ...]}; deterministic classes carry
  "action" instead of "choose"; reward-blind classes omit "w". TS_U
  "choose" lists only actions of positive probability.

caps (fixed, not flags; exceeding one exits 2):
  10^6 dynamics rows when an MDP is read (two per step and (state, action)
  pair), and a horizon below 10^6; 10^6 augmented (state, reward) nodes
  for the TSW search, pruned polygons, augment-stats and the nodes a
  witness or forcing policy reaches; 10^6 (time, state) pairs for the TS
  and TS_U searches; 10^6 polygon vertices or forcible values per stage;
  10^6 TS/TSW or TS_U grid policies; 10^6 frontier grid cells.
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one `error:` line, as for every exit 2
        raise _UsageError(f"{self.prog}: {message}")


def _parse_exact(text: str, flag: str) -> Rat:
    """p/q only (`rat`'s grammar); floats are an error so answers stay exact."""
    try:
        return rat(text)
    except ValueError:
        raise _UsageError(f"{flag} needs an exact rational like 3, -2, or 7/4, got {text!r}") from None
    except ZeroDivisionError:
        raise _UsageError(f"{flag} has denominator zero: {text!r}") from None


def _parse_tolerance(text: str, flag: str) -> Rat:
    """p/q as `_parse_exact` reads it, or a float rounded with a warning."""
    try:
        return rat(text)
    except ZeroDivisionError:
        return _parse_exact(text, flag)  # p/0: its denominator-zero error
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"{flag} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _UsageError(f"{flag} must be a finite number")
    approx = rationalize_float(value)
    if value and not approx:
        raise _UsageError(
            f"{flag}={text} rounds to 0 at denominator 10^6; give it as p/q"
        )
    print(
        f"warning: {flag}={text} is a float; using nearby rational "
        f"{rat_str(approx)}",
        file=sys.stderr,
    )
    return approx


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _load_mdp(args) -> Mdp:
    return loads(_read_text(args.input), strict=True)


def _emit(text: str, args) -> None:
    output = getattr(args, "output", None)
    if output in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {output}: {exc}") from None


def _emit_json(payload, args) -> None:
    _emit(json.dumps(payload, indent=2), args)


def _num(value) -> dict:
    return {"pq": rat_str(value), "float": float_twin(value)}


def _csv_float(value) -> str:
    twin = float_twin(value)
    return "" if twin is None else repr(twin)


def _policy_json(policy: PolicySpec) -> dict:
    rules = []
    for key in sorted(policy.rule):
        entry = {"t": key[0], "s": key[1]}
        if len(key) == 3:
            entry["w"] = _num(key[2])
        choice = policy.rule[key]
        if policy.randomized:
            entry["choose"] = {a: _num(p) for a, p in sorted(choice.items())}
        else:
            entry["action"] = choice
        rules.append(entry)
    return {"class": policy.policy_class, "rules": rules}


def _polygon_json(polygon) -> dict:
    return {
        "vertices": [
            {
                "mean": _num(m),
                "second_moment": _num(q),
                "variance": _num(q - m * m),
            }
            for m, q in polygon.vertices
        ]
    }


def _prune_budget(args) -> Rat | None:
    """--prune-eps as an exact rational; None when the flag is left out."""
    if args.prune_eps is None:
        return None
    return _parse_exact(args.prune_eps, "--prune-eps")


def _witness_policy(mdp: Mdp, mean, variance, stages=None):
    from .frequency import exact_pair_feasible, frequencies_to_policy

    ok, z = exact_pair_feasible(mdp, mean, variance, stages)
    if not ok:
        return None
    return _policy_json(frequencies_to_policy(mdp, z))


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


def _cmd_feasible_pair(args) -> int:
    mdp = _load_mdp(args)
    mean = _parse_exact(args.lam, "--lambda")
    variance = _parse_exact(args.v, "--v")
    policy = _witness_policy(mdp, mean, variance)
    payload = {
        "feasible": policy is not None,
        "mean": _num(mean),
        "variance": _num(variance),
    }
    if policy is not None:
        payload["policy"] = policy
    _emit_json(payload, args)
    return NO if policy is None else OK


def _cmd_feasible_mean_var(args) -> int:
    from .frequency import frequencies_to_policy, mean_fixed_var_bounded

    mdp = _load_mdp(args)
    mean = _parse_exact(args.lam, "--lambda")
    cap = _parse_exact(args.v, "--v")
    ok, z = mean_fixed_var_bounded(mdp, mean, cap)
    payload = {
        "feasible": ok,
        "mean": _num(mean),
        "variance_cap": _num(cap),
    }
    if ok:
        second = z.terminal_second_moment(mdp.horizon)
        payload["achieved_variance"] = _num(second - mean * mean)
        payload["policy"] = _policy_json(frequencies_to_policy(mdp, z))
    _emit_json(payload, args)
    return OK if ok else NO


# One grid frontier cell: its mean interval, cheapest second moment, its
# variance estimate and the suffix minimum vhat. The CSV adds *_float twins.
GRID_COLUMNS = ("lambda_lo", "lambda_hi", "qhat", "uhat", "vhat")


def _exact_frontier_rows(frontier) -> list:
    """(lambda, v(lambda)) at every chain vertex and edge midpoint, left to
    right, in one pass: v is best[i]'s variance at vertex i, and at the
    midpoint of the edge into vertex i the chord's variance there, if
    that is less."""
    chain, best = frontier.chain, frontier.best
    rows = [(chain[0][0], best[0][0])]
    for i in range(1, len(chain)):
        (m0, q0), (m1, q1) = chain[i - 1], chain[i]
        mid = (m0 + m1) / 2
        cut = (q0 + q1) / 2 - mid * mid
        tail = best[i][0]
        rows.append((mid, cut if cut < tail else tail))
        rows.append((m1, tail))
    return rows


def _cmd_frontier(args) -> int:
    mdp = _load_mdp(args)
    if args.exact:
        if args.epsilon is not None or args.nu is not None:
            raise _UsageError("--epsilon/--nu apply to the approximate mode only")
        from .setdp import compute_pmq, exact_frontier

        prune = _prune_budget(args)
        polygon = compute_pmq(mdp, prune_eps=prune)
        frontier = exact_frontier(polygon)
        rows = _exact_frontier_rows(frontier)
        if args.format == "json":
            _emit_json(
                {
                    "pruned": prune is not None,
                    "polygon": _polygon_json(polygon),
                    "samples": [
                        {"lambda": _num(lam), "vstar": _num(v)}
                        for lam, v in rows
                    ],
                },
                args,
            )
            return OK
        lines = ["lambda,lambda_float,vstar,vstar_float"]
        lines.extend(
            f"{rat_str(lam)},{_csv_float(lam)},{rat_str(v)},{_csv_float(v)}"
            for lam, v in rows
        )
        _emit("\n".join(lines), args)
        return OK
    if args.prune_eps is not None:
        raise _UsageError("--prune-eps applies to --exact only")
    if args.epsilon is None or args.nu is None:
        raise _UsageError("the approximate mode needs --epsilon and --nu")
    eps = _parse_tolerance(args.epsilon, "--epsilon")
    slack = _parse_tolerance(args.nu, "--nu")
    from .tradeoff import approximate_v_star

    curve = approximate_v_star(mdp, eps, slack)
    cells = zip(curve.grid, curve.grid[1:], curve.qhat, curve.uhat,
                curve.cell_values)
    if args.format == "json":
        _emit_json(
            {
                "mean_bound": _num(curve.mean_bound),
                "delta": _num(curve.delta),
                "epsilon": _num(curve.epsilon),
                "rows": [
                    {name: None if v is None else _num(v)
                     for name, v in zip(GRID_COLUMNS, cell)}
                    for cell in cells
                ],
            },
            args,
        )
        return OK
    lines = [",".join(GRID_COLUMNS + tuple(f"{c}_float" for c in GRID_COLUMNS))]
    for cell in cells:
        exact = ["inf" if v is None else rat_str(v) for v in cell]
        floats = ["inf" if v is None else _csv_float(v) for v in cell]
        lines.append(",".join(exact + floats))
    _emit("\n".join(lines), args)
    return OK


def _cmd_zero_variance(args) -> int:
    from .games import zero_variance_values

    mdp = _load_mdp(args)
    result = zero_variance_values(mdp)
    values = sorted(result.achievable_values)
    _emit_json(
        {
            "values": [_num(k) for k in values],
            "policies": [
                {
                    "value": _num(k),
                    "policy": _policy_json(result.winning_policy[k]),
                }
                for k in values
            ],
        },
        args,
    )
    return OK if values else NO


def _variance_extreme(args, pick) -> int:
    from .setdp import backward_walk, compute_pmq

    mdp = _load_mdp(args)
    prune = _prune_budget(args)
    if prune is None:
        stages = dict(backward_walk(mdp))
        polygon = stages[0][(mdp.initial_state, 0)]
    else:
        polygon = compute_pmq(mdp, prune_eps=prune)
    value, (m, q) = pick(polygon)
    payload = {
        "variance": _num(value),
        "witness_mean": _num(m),
        "witness_second_moment": _num(q),
        "pruned": prune is not None,
        "polygon": _polygon_json(polygon),
    }
    if prune is None:
        payload["policy"] = _witness_policy(mdp, m, value, stages)
    _emit_json(payload, args)
    return OK


def _cmd_min_variance(args) -> int:
    from .setdp import min_variance

    return _variance_extreme(args, min_variance)


def _cmd_max_variance(args) -> int:
    from .setdp import max_variance

    return _variance_extreme(args, max_variance)


def _class_entry_json(entry) -> dict:
    return {
        "feasible": entry.feasible,
        "detail": entry.detail,
        "policy": None if entry.witness is None else _policy_json(entry.witness),
    }


def _cmd_oracle(args) -> int:
    from .games import class_feasibility

    mdp = _load_mdp(args)
    lam = _parse_exact(args.lam, "--lambda")
    cap = _parse_exact(args.v, "--v")
    entry = class_feasibility(
        mdp, args.policy_class, lam, cap, grid_resolution=args.grid_resolution
    )
    payload = {
        "class": args.policy_class,
        "mean_floor": _num(lam),
        "variance_cap": _num(cap),
    }
    payload.update(_class_entry_json(entry))
    _emit_json(payload, args)
    return OK if entry.feasible else NO


def _cmd_separation(args) -> int:
    from .games import class_separation_report

    mdp = _load_mdp(args)
    lam = _parse_exact(args.lam, "--lambda")
    cap = _parse_exact(args.v, "--v")
    report = class_separation_report(
        mdp, lam, cap, grid_resolution=args.grid_resolution
    )
    _emit_json(
        {
            "mean_floor": _num(lam),
            "variance_cap": _num(cap),
            "classes": {
                tag: _class_entry_json(report[tag]) for tag in POLICY_CLASSES
            },
        },
        args,
    )
    return OK


def _cmd_gen_subset_sum(args) -> int:
    from .games import gen_subset_sum

    _emit(dumps(gen_subset_sum(args.values)), args)
    return OK


def _cmd_gen_3sat(args) -> int:
    from .games import gen_3sat

    clauses = []
    for token in args.clauses:
        for piece in token.split(";"):
            if not piece:
                continue
            try:
                clauses.append(tuple(int(part) for part in piece.split(",")))
            except ValueError:
                raise _UsageError(
                    f"clause {piece!r} is not comma-separated integers"
                ) from None
    _emit(dumps(gen_3sat(clauses)), args)
    return OK


def _cmd_discretize(args) -> int:
    from .tradeoff import discretize_rewards

    mdp = _load_mdp(args)
    step = _parse_exact(args.delta, "--delta")
    _emit(dumps(discretize_rewards(mdp, step)), args)
    return OK


def _version() -> str:
    python = ".".join(map(str, sys.version_info[:3]))
    return f"mvmdp {__version__} (Python {python}, rationals {BACKEND})"


def _build_parser() -> argparse.ArgumentParser:
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


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return OK if exc.code in (None, 0) else BAD
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
