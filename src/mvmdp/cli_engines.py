"""The engine subcommands of `mvmdp.cli`, their JSON and CSV renderers,
and the help text.

`mvmdp.cli` holds the subcommand table and loads this module by name the
first time a query needs one of its handlers, or asks for --help; so
`validate` and `augment-stats` never compile it. Each handler imports the
engines it calls, so `frontier --exact` never loads the game solver. It
imports the shared pieces from `mvmdp.cli_io`, never from `mvmdp.cli`.
"""

from __future__ import annotations

import math
import sys

from .cli_io import NO, OK, _UsageError, _emit, _emit_json, _load_mdp, _num
from .model import Mdp, POLICY_CLASSES, PolicySpec
from .rationals import Rat, float_twin, rat, rat_str, rationalize_float
from .serialize import dumps

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


def _flag_value(flag) -> str:
    """What follows a flag's name in the help: nothing for a switch."""
    if flag.nargs == 0:
        return ""
    if flag.choices is not None:
        return f" {{{','.join(flag.choices)}}}"
    metavar = flag.metavar or flag.dest.upper()
    return f" {metavar} [{metavar} ...]" if flag.nargs == "+" else f" {metavar}"


def show_help(args) -> int:
    """Print the help of args.command, one node of `mvmdp.cli`'s table, read
    under the name args.prog: usage, help line, arguments and, at the top,
    the formats. Lines wrap at 79 columns."""
    from textwrap import fill, wrap

    node, prog = args.command, args.prog
    top = prog == "mvmdp"
    sections = {"arguments": [("-h, --help", "show this help and exit")]}
    if node.subcommands is not None:
        usage = f"{prog} [-h]{' [--version]' if top else ''} {node.dest.upper()} ..."
        if top:
            sections["arguments"].append(
                ("--version",
                 "print the version, the Python version and the rational backend")
            )
        sections["commands"] = [
            (name, sub.help) for name, sub in node.subcommands.items()
        ]
    else:
        usage = f"{prog} [-h]"
        if node.reads:
            sections["arguments"].insert(0, ("input", "MDP JSON path, or - for stdin"))
        for flag in node.flags:
            value = _flag_value(flag)
            shown = flag.names[0] + value
            usage += f" {shown}" if flag.required else f" [{shown}]"
            text = flag.help
            if flag.default not in (None, False):
                text += f" (default {flag.default})"
            sections["arguments"].append((", ".join(flag.names) + value, text))
        if node.reads:
            usage += " input"
    lines = [
        fill(f"usage: {usage}", 79, subsequent_indent=" " * 8,
             break_on_hyphens=False),
        "",
        fill(node.help, 79),
    ]
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        for label, text in rows:
            text = wrap(text, 79 - 26)
            if len(label) > 22:
                lines.append(f"  {label}")
            else:
                lines.append(f"  {label:<24}{text.pop(0)}")
            lines.extend(f"{'':26}{more}" for more in text)
    if top:
        lines += ["", FORMATS]
    sys.stdout.write("\n".join(lines).rstrip("\n") + "\n")
    return OK
