import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import REPEATED_NAMES, deep_instances, mixed_frame_mdp, rational_instances
from mvmdp import frequency, games, model, setdp
from mvmdp.cli import run
from mvmdp.errors import AugmentationLimitError
from mvmdp.model import PolicySpec, evaluate_policy
from mvmdp.fixtures import one_shot_two_arms, two_point_stage
from mvmdp.games import gen_subset_sum
from mvmdp.frequency import mean_fixed_var_bounded, policy_frequencies
from mvmdp.lp import LpSolution, LpStatus
from mvmdp.model import make_mdp
from mvmdp.rationals import Rat, rat, rat_str
from mvmdp.serialize import dumps, loads
from mvmdp.setdp import compute_pmq, exact_frontier, max_variance, min_variance
from mvmdp.tradeoff import approximate_v_star

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"

GRID_HEADER = (
    "lambda_lo,lambda_hi,qhat,uhat,vhat,"
    "lambda_lo_float,lambda_hi_float,qhat_float,uhat_float,vhat_float"
)


@pytest.fixture
def one_shot_path(tmp_path):
    path = tmp_path / "one_shot.json"
    path.write_text(dumps(one_shot_two_arms()))
    return str(path)


def _invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_feasible_pair_witness(capsys, one_shot_path):
    code, out, _ = _invoke(
        capsys, ["feasible-pair", one_shot_path, "--lambda", "0", "--v", "0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["mean"]["pq"] == "0"
    policy = payload["policy"]
    assert policy["class"] == "TSW_U"
    assert policy["rules"]
    rule0 = [r for r in policy["rules"] if r["t"] == 0][0]
    assert rule0["choose"]["a"]["pq"] == "1"


def test_feasible_pair_infeasible_exit(capsys, one_shot_path):
    code, out, _ = _invoke(
        capsys, ["feasible-pair", one_shot_path, "--lambda", "2", "--v", "0"]
    )
    assert code == 1
    assert json.loads(out)["feasible"] is False


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--lambda", "abc",
         "error: --lambda needs an exact rational like 3, -2, or 7/4, got 'abc'"),
        ("--lambda", "1/0", "error: --lambda has denominator zero: '1/0'"),
        ("--epsilon", "abc", "error: --epsilon is not a number: 'abc'"),
        ("--epsilon", "1/0", "error: --epsilon has denominator zero: '1/0'"),
    ],
)
def test_number_flag_errors(capsys, one_shot_path, flag, text, message):
    if flag == "--lambda":
        argv = ["feasible-pair", one_shot_path, f"--lambda={text}", "--v=0"]
    else:
        argv = ["frontier", one_shot_path, f"--epsilon={text}", "--nu=1/2"]
    code, out, err = _invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err == message + "\n"


def test_float_tolerance_warning_text(capsys, one_shot_path):
    code, _, err = _invoke(
        capsys, ["frontier", one_shot_path, "--epsilon=0.25", "--nu=1/2"]
    )
    assert code == 0
    assert err == (
        "warning: --epsilon=0.25 is a float; using nearby rational 1/4\n"
    )


def test_a_negative_fraction_is_a_value_in_both_flag_forms(capsys, one_shot_path):
    joined = _invoke(
        capsys, ["feasible-pair", one_shot_path, "--lambda=-1/2", "--v", "1"]
    )
    spaced = _invoke(
        capsys, ["feasible-pair", one_shot_path, "--lambda", "-1/2", "--v", "1"]
    )
    assert spaced == joined
    assert joined[0] in (0, 1) and json.loads(joined[1])["mean"]["pq"] == "-1/2"


def test_decision_flags_reject_floats(capsys, one_shot_path):
    code, _, err = _invoke(
        capsys,
        ["feasible-pair", one_shot_path, "--lambda", "0.5", "--v", "0"],
    )
    assert code == 2
    assert "exact rational" in err


def test_feasible_mean_var_agrees_with_library(capsys, one_shot_path):
    mdp = one_shot_two_arms()
    for lam, cap in (("1", "1"), ("1", "1/2"), ("1/2", "3/4"), ("1/2", "1/8")):
        code, _, _ = _invoke(
            capsys,
            ["feasible-mean-var", one_shot_path, "--lambda", lam, "--v", cap],
        )
        ok, _ = mean_fixed_var_bounded(mdp, Fraction(lam), Fraction(cap))
        assert code == (0 if ok else 1)


def test_gen_subset_sum_zero_variance_empty(capsys, monkeypatch):
    code, out, _ = _invoke(capsys, ["gen", "subset-sum", "--r", "1", "1", "3"])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = _invoke(capsys, ["zero-variance", "-"])
    assert code == 1
    assert json.loads(out)["values"] == []


def test_gen_subset_sum_balanced_has_zero(capsys, monkeypatch):
    code, out, _ = _invoke(capsys, ["gen", "subset-sum", "--r", "1", "2", "3"])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = _invoke(capsys, ["zero-variance", "-"])
    assert code == 0
    assert "0" in [v["pq"] for v in json.loads(out)["values"]]


def test_gen_validate_round_trip(capsys, monkeypatch):
    for argv in (
        ["gen", "subset-sum", "--r", "2", "5"],
        ["gen", "3sat", "--clauses", "1,-2,3;-1,2"],
    ):
        code, out, _ = _invoke(capsys, argv)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, _, _ = _invoke(capsys, ["validate", "-"])
        assert code == 0


def test_frontier_exact_matches_closed_form(capsys, one_shot_path):
    code, out, _ = _invoke(capsys, ["frontier", one_shot_path, "--exact"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,lambda_float,vstar,vstar_float"
    assert len(lines) >= 4
    for line in lines[1:]:
        lam_pq, _, vstar_pq, _ = line.split(",")
        lam = Fraction(lam_pq)
        assert Fraction(vstar_pq) == 2 * lam - lam * lam


def test_frontier_samples_are_the_frontier_at_vertices_and_midpoints():
    # The one pass over the chain must give, left to right, v at every
    # vertex mean and edge midpoint: ExactFrontier.value's values and type.
    from mvmdp.cli_engines import _exact_frontier_rows

    mdps = [mdp for mdp, _ in deep_instances(4)] + rational_instances(6)
    for mdp in mdps + [one_shot_two_arms()]:
        for eps in (None, Rat(1, 7)):
            frontier = exact_frontier(compute_pmq(mdp, eps))
            means = [m for m, _ in frontier.chain]
            lams = sorted(
                set(means) | {(a + b) / 2 for a, b in zip(means, means[1:])}
            )
            rows = _exact_frontier_rows(frontier)
            assert rows == [(lam, frontier.value(lam)) for lam in lams]
            assert all(type(c) is Rat for row in rows for c in row)


def test_frontier_needs_tolerances(capsys, one_shot_path):
    code, _, err = _invoke(capsys, ["frontier", one_shot_path])
    assert code == 2
    assert "epsilon" in err


def test_frontier_float_tolerance_warns(capsys, one_shot_path):
    code, out, err = _invoke(
        capsys,
        ["frontier", one_shot_path, "--epsilon", "0.75", "--nu", "3/4"],
    )
    assert code == 0
    assert "warning" in err and "3/4" in err
    lines = out.strip().splitlines()
    assert lines[0] == GRID_HEADER
    assert len(lines) == 34


@pytest.mark.parametrize("flag", ["--epsilon", "--nu"])
@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "nan"])
def test_frontier_rejects_non_finite_tolerance(capsys, one_shot_path, flag, text):
    tolerances = {"--epsilon": "1/2", "--nu": "1/2", flag: text}
    argv = ["frontier", one_shot_path]
    for name, value in tolerances.items():
        argv.append(f"{name}={value}")
    code, out, err = _invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be a finite number\n"


@pytest.mark.parametrize("flag", ["--epsilon", "--nu"])
def test_frontier_rejects_tolerance_rounding_to_zero(capsys, one_shot_path, flag):
    # 1e-7 is positive, but its nearest rational with denominator at most
    # 10^6 is 0: the error names the flag, not a later "must be positive".
    tolerances = {"--epsilon": "1/2", "--nu": "1/2", flag: "1e-7"}
    argv = ["frontier", one_shot_path]
    for name, value in tolerances.items():
        argv.append(f"{name}={value}")
    code, out, err = _invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {flag}=1e-7 rounds to 0 at denominator 10^6; give it as p/q\n"
    )


def test_frontier_json_format(capsys, one_shot_path):
    code, out, _ = _invoke(
        capsys,
        [
            "frontier",
            one_shot_path,
            "--epsilon",
            "3/4",
            "--nu",
            "3/4",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"]["pq"] == "1/8"
    assert len(payload["rows"]) == 33


_RATIONAL_CORPUS = rational_instances()


@pytest.mark.parametrize("eps, nu", [("1/4", "1/4"), ("1/2", "1/3"), ("1", "1")])
@pytest.mark.parametrize("index", [0, 5, 17])
def test_frontier_grid_underestimates_rational_rewards(
    capsys, tmp_path, index, eps, nu
):
    # The grid is built on the rewards as given, so every finite vhat stays
    # at or below the exact frontier; a floored grid overshot it here.
    mdp = _RATIONAL_CORPUS[index]
    path = tmp_path / "rational.json"
    path.write_text(dumps(mdp))
    code, out, _ = _invoke(
        capsys, ["frontier", str(path), "--epsilon", eps, "--nu", nu]
    )
    assert code == 0
    curve = approximate_v_star(mdp, Rat(eps), Rat(nu))
    cells = zip(curve.grid, curve.grid[1:], curve.qhat, curve.uhat,
                curve.cell_values)
    expected = [
        ["inf" if v is None else rat_str(v) for v in cell]
        + ["inf" if v is None else repr(float(v)) for v in cell]
        for cell in cells
    ]
    lines = out.splitlines()
    assert lines[0] == GRID_HEADER
    assert [line.split(",") for line in lines[1:]] == expected
    exact = exact_frontier(compute_pmq(mdp))
    for row in csv.DictReader(io.StringIO(out)):
        if row["vhat"] == "inf":
            continue
        vstar = exact.value(Rat(row["lambda_hi"]))
        assert vstar is None or Rat(row["vhat"]) <= vstar


def test_frontier_rejects_mixed_modes(capsys, one_shot_path):
    code, _, _ = _invoke(
        capsys,
        ["frontier", one_shot_path, "--exact", "--epsilon", "1", "--nu", "1"],
    )
    assert code == 2
    code, _, _ = _invoke(
        capsys,
        [
            "frontier",
            one_shot_path,
            "--epsilon",
            "1",
            "--nu",
            "1",
            "--prune-eps",
            "1/2",
        ],
    )
    assert code == 2


def test_frontier_grid_cap_exits_2(capsys, one_shot_path):
    code, out, err = _invoke(
        capsys,
        ["frontier", one_shot_path, "--epsilon", "1/1000000000", "--nu", "1"],
    )
    assert code == 2
    assert out == ""
    assert "cells" in err


def test_negative_prune_budget_exits_2(capsys, one_shot_path):
    for argv in (
        ["min-variance", one_shot_path, "--prune-eps=-1/2"],
        ["frontier", one_shot_path, "--exact", "--prune-eps=-1/2"],
        # a negative fraction after a space is the flag's value
        ["min-variance", one_shot_path, "--prune-eps", "-1/7"],
    ):
        code, out, err = _invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert "nonnegative" in err


def test_polygon_vertex_cap_exits_2(capsys, one_shot_path, monkeypatch):
    # The one-shot root polygon is a segment: two vertices at stage 0.
    monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", 1)
    for argv in (
        ["frontier", one_shot_path, "--exact"],
        ["min-variance", one_shot_path],
    ):
        code, out, err = _invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert "stage-0 moment polygons hold 2 vertices" in err
    monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", 2)
    assert _invoke(capsys, ["frontier", one_shot_path, "--exact"])[0] == 0


def test_validate_rejects_bad_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _invoke(capsys, ["validate", str(path)])
    assert code == 2
    assert "JSON" in err


def test_validate_reports_semantic_violations(capsys, tmp_path):
    doc = {
        "horizon": 1,
        "states": ["s", "end"],
        "initial_state": "s",
        "actions": {"s": ["a"], "end": ["stay"]},
        "transitions": [
            {"s": "s", "a": "a", "rows": {"end": [1, 2]}},
            {"s": "end", "a": "stay", "rows": {"end": [1, 1]}},
        ],
        "rewards": [
            {"s": "s", "a": "a", "pmf": [[[0, 1], [1, 1]]]},
            {"s": "end", "a": "stay", "pmf": [[[0, 1], [1, 1]]]},
        ],
    }
    path = tmp_path / "halfmass.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, ["validate", str(path)])
    assert code == 2
    assert "violation" in err
    assert json.loads(out)["valid"] is False


def test_validate_rejects_overlapping_dynamics(capsys, tmp_path):
    doc = {
        "horizon": 1,
        "states": ["s"],
        "initial_state": "s",
        "actions": {"s": ["a"]},
        "transitions": [{"s": "s", "a": "a", "rows": {"s": [1, 1]}}],
        "rewards": [
            {"t": 0, "s": "s", "a": "a", "pmf": [[[5, 1], [1, 1]]]},
            {"s": "s", "a": "a", "pmf": [[[0, 1], [1, 1]]]},
        ],
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    code, _, err = _invoke(capsys, ["validate", str(path)])
    assert code == 2
    assert "overlap" in err


def test_validate_accepts_generated(capsys, one_shot_path):
    code, out, _ = _invoke(capsys, ["validate", one_shot_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["mean_bound"]["pq"] == "2"


def test_oracle_split_verdicts(capsys, one_shot_path):
    code, out, _ = _invoke(
        capsys,
        [
            "oracle",
            one_shot_path,
            "--class",
            "TS",
            "--lambda",
            "1/8",
            "--v",
            "1/2",
        ],
    )
    assert code == 1
    assert json.loads(out)["feasible"] is False
    code, out, _ = _invoke(
        capsys,
        [
            "oracle",
            one_shot_path,
            "--class",
            "TS_U",
            "--lambda",
            "1/8",
            "--v",
            "1/2",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["policy"]["class"] == "TS_U"


def test_oracle_ts_u_grid_on_a_state_with_many_actions(capsys, tmp_path):
    # A grid walk that recursed once per action overflowed the stack here.
    acts = tuple(f"a{i}" for i in range(1500))
    mdp = make_mdp(
        horizon=1,
        states=("s0", "end"),
        initial_state="s0",
        actions={"s0": acts, "end": ("stay",)},
        transitions={
            **{("s0", a): {"end": 1} for a in acts},
            ("end", "stay"): {"end": 1},
        },
        rewards={
            **{("s0", a): {0: 1} for a in acts},
            ("end", "stay"): {0: 1},
        },
    )
    path = tmp_path / "wide.json"
    path.write_text(dumps(mdp))
    code, out, err = _invoke(
        capsys,
        ["oracle", str(path), "--class", "TS_U", "--grid-resolution", "1",
         "--lambda", "0", "--v", "1"],
    )
    assert code in (0, 1)
    assert json.loads(out)["class"] == "TS_U"
    assert "Traceback" not in err


def test_grid_resolution_below_one_exits_2_for_every_class(
    capsys, one_shot_path
):
    query = [one_shot_path, "--lambda", "0", "--v", "1", "--grid-resolution"]
    for argv in (
        ["oracle", *query, "-5", "--class", "TS"],
        ["oracle", *query, "0", "--class", "TSW_U"],
        ["separation", *query, "0"],
    ):
        code, out, err = _invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert "grid resolution must be at least 1" in err


def test_ts_u_grid_builds_nothing_sized_by_the_resolution(capsys, tmp_path):
    # With one action per state the grid has a single policy at any
    # resolution, so the cap check passes; nothing may then be built per level.
    mdp = make_mdp(
        horizon=1,
        states=("s0", "end"),
        initial_state="s0",
        actions={"s0": ("go",), "end": ("stay",)},
        transitions={("s0", "go"): {"end": 1}, ("end", "stay"): {"end": 1}},
        rewards={("s0", "go"): {1: 1}, ("end", "stay"): {0: 1}},
    )
    path = tmp_path / "single.json"
    path.write_text(dumps(mdp))
    query = [str(path), "--lambda", "0", "--v", "1", "--grid-resolution",
             "1000000000"]
    code, out, _ = _invoke(capsys, ["oracle", *query, "--class", "TS_U"])
    assert code == 0 and json.loads(out)["feasible"] is True
    code, _, _ = _invoke(capsys, ["separation", *query])
    assert code in (0, 1)


def test_engine_disagreement_exits_2(capsys, one_shot_path, monkeypatch):
    # Every witness subcommand, at a target the polygon holds, with an
    # occupation LP that finds it infeasible.
    monkeypatch.setattr(
        frequency, "solve", lambda *args, **kwargs: LpSolution(LpStatus.INFEASIBLE)
    )
    queries = [
        ["feasible-pair", "--lambda", "1/2", "--v", "3/4"],
        ["feasible-mean-var", "--lambda", "1/4", "--v", "1/2"],
        ["min-variance"],
        ["max-variance"],
        ["oracle", "--class", "TSW_U", "--lambda", "1/8", "--v", "1/2"],
    ]
    for query in queries:
        code, out, err = _invoke(capsys, [query[0], one_shot_path, *query[1:]])
        assert code == 2, query
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("error: internal engine disagreement: ")


def _policy_from_json(policy):
    rule = {}
    for entry in policy["rules"]:
        key = (entry["t"], entry["s"])
        if "w" in entry:
            key += (Rat(Fraction(entry["w"]["pq"])),)
        rule[key] = {
            a: Rat(Fraction(p["pq"])) for a, p in entry["choose"].items()
        }
    return PolicySpec(policy["class"], rule)


def test_oracle_tsw_u_on_deep_instance(capsys, tmp_path):
    # More than 10^6 reward-aware deterministic policies: deciding TSW_U
    # must not enumerate them. A lower-chain vertex right of the floor meets
    # the cap, so the answer is yes.
    mdp, polygon = deep_instances(1)[0]
    path = tmp_path / "deep0.json"
    path.write_text(dumps(mdp))
    chain = polygon.lower_chain()
    m, q = chain[len(chain) // 2]
    lam, cap = m - Rat(1, 3), q - m * m
    code, out, err = _invoke(
        capsys,
        ["oracle", str(path), "--class", "TSW_U",
         f"--lambda={lam}", f"--v={cap}"],
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["feasible"] is True
    ev = evaluate_policy(mdp, _policy_from_json(payload["policy"]))
    assert ev.mean >= lam
    assert ev.variance <= cap


def test_tsw_u_witness_lists_only_played_actions(capsys):
    # The LP puts zero mass on action a0 at the root; the witness must not
    # list it, and must hold rules only at nodes the policy reaches.
    path = POOL / "small-queries" / "int03.json"
    code, out, err = _invoke(
        capsys,
        ["oracle", str(path), "--class", "TSW_U", "--lambda", "-1", "--v", "5"],
    )
    assert code == 0, err
    rules = json.loads(out)["policy"]["rules"]
    assert rules
    assert all(p["pq"] != "0" for r in rules for p in r["choose"].values())
    mdp = loads(path.read_text())
    policy = _policy_from_json(json.loads(out)["policy"])
    ev = evaluate_policy(mdp, policy)
    assert ev.mean >= -1
    assert ev.variance <= 5
    z = policy_frequencies(mdp, policy)
    assert all(z.z_x[key] > 0 for key in policy.rule)


def test_separation_lists_all_classes(capsys, one_shot_path):
    code, out, _ = _invoke(
        capsys,
        ["separation", one_shot_path, "--lambda", "1/8", "--v", "1/2"],
    )
    assert code == 0
    classes = json.loads(out)["classes"]
    assert set(classes) == {"TS", "TS_U", "TSW", "TSW_U"}
    assert classes["TS"]["feasible"] is False
    assert classes["TSW_U"]["feasible"] is True


def test_max_variance_even_mixture(capsys, tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(dumps(two_point_stage()))
    code, out, _ = _invoke(capsys, ["max-variance", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["variance"]["pq"] == "1/4"
    assert payload["witness_mean"]["pq"] == "1/2"
    rule0 = [r for r in payload["policy"]["rules"] if r["t"] == 0][0]
    weights = sorted(w["pq"] for w in rule0["choose"].values())
    assert weights == ["1/2", "1/2"]
    code, out, _ = _invoke(capsys, ["min-variance", str(path)])
    assert code == 0
    assert json.loads(out)["variance"]["pq"] == "0"


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    # json.loads raises RecursionError on deep nesting; exit 1 would read
    # as "infeasible".
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = _invoke(
        capsys, ["feasible-pair", "--lambda", "0", "--v", "0", str(path)]
    )
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["augment-stats"],
        ["feasible-pair", "--lambda", "1", "--v", "0"],
        ["feasible-mean-var", "--lambda", "1", "--v", "0"],
        ["frontier", "--exact"],
        ["frontier", "--epsilon", "1/4", "--nu", "1/4"],
        ["zero-variance"],
        ["min-variance"],
        ["max-variance"],
        ["oracle", "--lambda", "1", "--v", "0", "--class", "TS"],
        ["separation", "--lambda", "1", "--v", "0"],
        ["discretize", "--delta", "1/2"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_repeated_json_name_exits_2(capsys, tmp_path, argv):
    # Every subcommand that reads an MDP reads it through serialize.loads,
    # which refuses a name given twice in one object.
    path = tmp_path / "repeated.json"
    for name, text in REPEATED_NAMES.values():
        path.write_text(text)
        code, out, err = _invoke(capsys, [*argv, str(path)])
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad mdp input: name {name!r} repeated in one JSON object\n"
        )


_JSON_QUERIES = [
    ["validate"],
    ["augment-stats"],
    ["feasible-pair", "--lambda", "1/2", "--v", "3/4"],
    ["feasible-mean-var", "--lambda", "1/2", "--v", "1"],
    ["frontier", "--exact", "--format", "json"],
    ["frontier", "--epsilon", "1/4", "--nu", "1/4", "--format", "json"],
    ["zero-variance"],
    ["min-variance"],
    ["max-variance"],
    ["oracle", "--class", "TS_U", "--lambda", "1/8", "--v", "1/2"],
    ["separation", "--lambda", "1/8", "--v", "1/2"],
]


def _strings_outside_numbers(payload):
    """Every string of a JSON payload, keys included, except the pq text of
    a {"pq", "float"} number."""
    if isinstance(payload, str):
        yield payload
    elif isinstance(payload, list):
        for item in payload:
            yield from _strings_outside_numbers(item)
    elif isinstance(payload, dict) and set(payload) != {"pq", "float"}:
        for key, value in payload.items():
            yield key
            yield from _strings_outside_numbers(value)


@pytest.mark.parametrize("argv", _JSON_QUERIES, ids=" ".join)
def test_no_number_hides_in_a_json_string(capsys, one_shot_path, argv):
    # A number is {"pq", "float"}; every other string is a name, a class
    # tag or detail text, which neither `rat` nor `float` reads.
    code, out, err = _invoke(capsys, argv[:1] + [one_shot_path] + argv[1:])
    assert code in (0, 1) and err == "", (argv, err)
    payload = json.loads(out, parse_constant=_refuse_constant)
    strings = list(_strings_outside_numbers(payload))
    assert strings
    for text in strings:
        with pytest.raises(ValueError):
            rat(text)
        with pytest.raises(ValueError):
            float(text)
    if argv[0] == "frontier" and "--exact" not in argv:
        cells = [v for row in payload["rows"] for v in row.values()]
        assert len(cells) == 5 * len(payload["rows"]) > 0
        assert None in cells
        for value in cells:
            assert value is None or (
                set(value) == {"pq", "float"}
                and float(rat(value["pq"])) == value["float"]
            )


def test_csv_lines_end_in_lf_alone(capsys, one_shot_path):
    # Every CSV the CLI prints ends each line in LF alone. The grid keeps its
    # header, and an infeasible cell reads inf in both its columns.
    outs = []
    for argv in (
        ["frontier", one_shot_path, "--epsilon", "1/4", "--nu", "1/4"],
        ["frontier", one_shot_path, "--exact"],
        ["augment-stats", one_shot_path, "--format", "csv"],
    ):
        code, out, _ = _invoke(capsys, argv)
        assert code == 0
        assert "\r" not in out, argv
        assert out.endswith("\n") and not out.endswith("\n\n"), argv
        outs.append(out)
    grid = outs[0]
    assert grid.splitlines()[0] == GRID_HEADER
    infeasible = 0
    for row in csv.DictReader(io.StringIO(grid)):
        for name in ("lambda_lo", "lambda_hi", "qhat", "uhat", "vhat"):
            exact, twin = row[name], row[f"{name}_float"]
            if exact == "inf":
                assert twin == "inf"
                infeasible += 1
            else:
                assert float(twin) == float(Fraction(exact))
    assert infeasible


def test_augment_stats_csv(capsys, one_shot_path):
    code, out, _ = _invoke(
        capsys, ["augment-stats", one_shot_path, "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,nodes"
    assert len(lines) == 3
    assert lines[1] == "0,1"


def test_discretize_floors_rewards(capsys, tmp_path):
    mdp = make_mdp(
        horizon=1,
        states=["s", "end"],
        initial_state="s",
        actions={"s": ["a"], "end": ["stay"]},
        transitions={("s", "a"): {"end": 1}, ("end", "stay"): {"end": 1}},
        rewards={
            ("s", "a"): {Rat(1, 3): Rat(1, 2), Rat(2, 3): Rat(1, 2)},
            ("end", "stay"): {0: 1},
        },
    )
    path = tmp_path / "thirds.json"
    path.write_text(dumps(mdp))
    code, out, _ = _invoke(
        capsys, ["discretize", str(path), "--delta", "1/2"]
    )
    assert code == 0
    snapped = loads(out)
    assert snapped.rewards[(0, "s", "a")] == {Rat(0): Rat(1, 2), Rat(1, 2): Rat(1, 2)}


def test_output_file_and_node_cap(capsys, tmp_path, monkeypatch):
    target = tmp_path / "gen.json"
    code, out, _ = _invoke(
        capsys, ["gen", "subset-sum", "--r", "1", "-o", str(target)]
    )
    assert code == 0 and out == ""
    code, _, _ = _invoke(capsys, ["validate", str(target)])
    assert code == 0
    # Its 8 dynamics rows load under a cap of 8; the walk passes 8 nodes
    # at layer 3.
    path = tmp_path / "halving.json"
    path.write_text(dumps(_halving_chain()))
    monkeypatch.setattr(model, "DEFAULT_NODE_CAP", 8)
    code, _, err = _invoke(capsys, ["augment-stats", str(path)])
    assert code == 2
    assert "augmented space exceeds 8 nodes" in err


def test_oversized_inputs_are_refused_before_they_are_built(capsys, tmp_path):
    # Small inputs whose stationary dynamics, expanded to every step, hold
    # millions of rows: every subcommand refuses them when they are read.
    states = [f"s{i}" for i in range(20)]
    doc = {
        "horizon": 100_000,
        "states": states,
        "initial_state": "s0",
        "actions": {s: ["a"] for s in states},
        "transitions": [{"s": s, "a": "a", "rows": {s: [1, 1]}} for s in states],
        "rewards": [{"s": s, "a": "a", "pmf": [[[0, 1], [1, 1]]]} for s in states],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "augment-stats", "min-variance"):
        code, out, err = _invoke(capsys, [command, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad mdp input:")
        assert "4000000 dynamics rows, above the cap 1000000" in err
    values = [str(v) for v in range(1, 701)]
    code, out, err = _invoke(capsys, ["gen", "subset-sum", "--r", *values])
    assert (code, out) == (2, "")
    assert "1967006 dynamics rows, above the cap 1000000" in err
    # Without actions there are no rows to build, and validate no longer
    # walks every state at every step.
    doc = {
        "horizon": 999_999,
        "states": [f"s{i}" for i in range(100)],
        "initial_state": "s0",
        "actions": {},
        "transitions": [],
        "rewards": [],
    }
    path.write_text(json.dumps(doc))
    code, out, _ = _invoke(capsys, ["validate", str(path)])
    assert code == 2
    violations = json.loads(out)["violations"]
    assert violations == [f"[s{i}] state has no actions" for i in range(100)]


def test_a_horizon_at_the_node_cap_is_refused_by_make_mdp(capsys, tmp_path):
    # make_mdp holds the one check, so a document with a huge horizon and
    # another format error reports the other error first.
    doc = {
        "horizon": 10**7,
        "states": ["s"],
        "initial_state": "s",
        "actions": {"s": []},
        "transitions": [],
        "rewards": [],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "error: bad mdp input: horizon 10000000 is not below the node cap 1000000\n"
    )
    doc["states"] = "s"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "error: bad mdp input: states must be a list of strings, got 's'\n"
    )


def _small_document():
    return {
        "horizon": 1,
        "states": ["s"],
        "initial_state": "s",
        "actions": {"s": ["a"]},
        "transitions": [{"s": "s", "a": "a", "rows": {"s": [1, 1]}}],
        "rewards": [{"s": "s", "a": "a", "pmf": [[[0, 1], [1, 1]]]}],
    }


_BAD_DOCUMENTS = {
    "horizon below 1": (
        lambda d: d.update(horizon=0),
        "invalid MDP: horizon must be >= 1, got 0",
    ),
    "duplicate states": (
        lambda d: d.update(states=["s", "s"]),
        "invalid MDP: duplicate state names",
    ),
    "duplicate actions": (
        lambda d: d.update(actions={"s": ["a", "a"]}),
        "invalid MDP: [s] duplicate action names",
    ),
    "actions of an unknown state": (
        lambda d: d["actions"].update(ghost=["a"]),
        "invalid MDP: [ghost] actions given for unknown state",
    ),
    "negative transition probability": (
        lambda d: d["transitions"][0].update(rows={"s": [-1, 1]}),
        "invalid MDP: [0, s, a] negative transition probability -1; "
        "[0, s, a] transition probabilities sum to -1, not 1",
    ),
    "entry outside the horizon": (
        lambda d: d["transitions"].append(
            {"t": 3, "s": "s", "a": "a", "rows": {"s": [1, 1]}}
        ),
        "invalid MDP: [3, s, a] dynamics entry outside horizon 0..0",
    ),
    "entry for an unknown action": (
        lambda d: d["rewards"].append(
            {"s": "s", "a": "b", "pmf": [[[0, 1], [1, 1]]]}
        ),
        "invalid MDP: [0, s, b] dynamics entry for unknown state/action",
    ),
    "top level not an object": (
        lambda d: [d],
        "top level must be a JSON object",
    ),
    "transitions not a list": (
        lambda d: d.update(transitions={}),
        "transitions must be a list, got {}",
    ),
    "rewards not a list": (
        lambda d: d.update(rewards=5),
        "rewards must be a list, got 5",
    ),
    "duplicate rewards entry": (
        lambda d: d["rewards"].append(dict(d["rewards"][0])),
        "duplicate rewards entry for ('s', 'a')",
    ),
    "duplicate reward value": (
        lambda d: d["rewards"][0].update(
            pmf=[[[0, 1], [1, 2]], [[0, 1], [1, 2]]]
        ),
        "duplicate reward value 0 at ('s', 'a')",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_DOCUMENTS))
def test_each_bad_document_exits_2_with_one_error_line(capsys, tmp_path, case):
    mutate, message = _BAD_DOCUMENTS[case]
    doc = _small_document()
    doc = mutate(doc) or doc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, ["augment-stats", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: bad mdp input: {message}\n"


def test_unreadable_and_unwritable_paths_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = _invoke(capsys, ["augment-stats", str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")
    assert err.count("\n") == 1
    target = tmp_path / "no-such-dir" / "out.json"
    code, out, err = _invoke(capsys, ["gen", "subset-sum", "--r", "1", "-o", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


def test_gen_3sat_refuses_a_non_integer_clause(capsys):
    code, out, err = _invoke(capsys, ["gen", "3sat", "--clauses", "1,-2;1,x"])
    assert (code, out) == (2, "")
    assert err == "error: clause '1,x' is not comma-separated integers\n"


def _halving_chain():
    """One state; at step t the reward is 0 or 2^-(t+1), each with
    probability 1/2. Horizon 4: 31 augmented nodes, 5 (t, state) pairs."""
    return make_mdp(
        horizon=4,
        states=("s",),
        initial_state="s",
        actions={"s": ("a",)},
        transitions={("s", "a"): {"s": 1}},
        rewards={
            (t, "s", "a"): {0: Rat(1, 2), Rat(1, 2 ** (t + 1)): Rat(1, 2)}
            for t in range(4)
        },
    )


def test_node_cap_bounds_only_the_node_level_engines(
    capsys, tmp_path, monkeypatch
):
    path = tmp_path / "halving.json"
    path.write_text(dumps(_halving_chain()))
    queries = {
        "frontier": ["frontier", str(path), "--exact"],
        "zero-variance": ["zero-variance", str(path)],
        "feasible-pair": ["feasible-pair", str(path), "--lambda", "0", "--v", "0"],
        "min-variance": ["min-variance", str(path)],
        "augment-stats": ["augment-stats", str(path)],
    }
    answers = {name: _invoke(capsys, argv) for name, argv in queries.items()}
    assert json.loads(answers["augment-stats"][1])["node_count"] == 31
    monkeypatch.setattr(model, "DEFAULT_NODE_CAP", 10)
    # The exact polygons and the game walk (t, state) pairs, not nodes.
    assert _invoke(capsys, queries["frontier"]) == answers["frontier"]
    assert answers["frontier"][0] == 0
    assert _invoke(capsys, queries["zero-variance"]) == answers["zero-variance"]
    assert answers["zero-variance"][0] == 1
    # A target outside the polygon is refused before any LP is built.
    assert _invoke(capsys, queries["feasible-pair"]) == answers["feasible-pair"]
    assert answers["feasible-pair"][0] == 1
    # The node counts list every node, and this witness's policy reaches
    # every node: one action, and rewards that never merge.
    for name in ("min-variance", "augment-stats"):
        code, out, err = _invoke(capsys, queries[name])
        assert (code, out) == (2, "")
        assert "size cap exceeded: augmented space exceeds 10 nodes" in err


def test_policy_walks_count_their_nodes_against_the_cap(monkeypatch):
    # The forward walk of a policy stops at the node cap, as reach does,
    # before it has met all 31 nodes.
    mdp = _halving_chain()
    policy = PolicySpec("TS", {(t, "s"): "a" for t in range(mdp.horizon)})
    assert len(evaluate_policy(mdp, policy).terminal) == 16
    monkeypatch.setattr(model, "DEFAULT_NODE_CAP", 10)
    for walk in (evaluate_policy, policy_frequencies):
        with pytest.raises(AugmentationLimitError,
                           match="augmented space exceeds 10 nodes"):
            walk(mdp, policy)


def test_every_exact_witness_query_builds_the_stages_once(
    capsys, tmp_path, monkeypatch
):
    # Each query that prints an exact witness walks the polygon recursion
    # once, horizon backward steps, and its witness reads those stages:
    # it lists no augmented node (frequency's reach serves the LP skeleton
    # alone).
    mdp = mixed_frame_mdp(2)
    path = tmp_path / "mixed.json"
    path.write_text(dumps(mdp))
    polygon = compute_pmq(mdp)
    low, (m0, _) = min_variance(polygon)
    high, (m1, _) = max_variance(polygon)
    steps = []
    step = setdp.backward_step

    def counted(*args):
        steps.append(args[1])
        return step(*args)

    monkeypatch.setattr(setdp, "backward_step", counted)
    monkeypatch.setattr(frequency, "reach", None)
    queries = [
        ["min-variance", str(path)],
        ["max-variance", str(path)],
        ["feasible-pair", str(path), "--lambda", rat_str(m1), "--v", rat_str(high)],
        ["feasible-mean-var", str(path), "--lambda", rat_str(m0), "--v", rat_str(low)],
        ["oracle", str(path), "--class", "TSW_U", "--lambda", rat_str(m0),
         "--v", rat_str(low)],
        ["separation", str(path), "--lambda", rat_str(m0), "--v", rat_str(low)],
    ]
    for argv in queries:
        steps.clear()
        code, out, _ = _invoke(capsys, argv)
        assert code == 0, argv
        assert "policy" in out
        assert steps == [1, 0], argv


def test_stage_cap_bounds_the_game(capsys, tmp_path, monkeypatch):
    path = tmp_path / "subset.json"
    path.write_text(dumps(gen_subset_sum([1, 2, 3])))
    code, out, _ = _invoke(capsys, ["zero-variance", str(path)])
    assert code == 0 and json.loads(out)["values"]
    monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", 1)
    code, out, err = _invoke(capsys, ["zero-variance", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: size cap exceeded: stage-")
    assert "forcible sets hold" in err and "above the cap of 1" in err


# One case per way a document used to be misread or to crash the parser.
@pytest.mark.parametrize(
    "mutate,needle",
    [
        pytest.param(
            lambda d: d["rewards"][1]["pmf"][1].__setitem__(0, [2.5, 1]),
            "two integers",
            id="float-in-pair",
        ),
        pytest.param(
            lambda d: d["rewards"][1]["pmf"][1].__setitem__(0, [True, 1]),
            "two integers",
            id="bool-in-pair",
        ),
        pytest.param(
            lambda d: d.update(states="s0"), "states must be a list",
            id="states-string",
        ),
        pytest.param(
            lambda d: d["actions"].update(s0="ab"), "actions of 's0'",
            id="actions-string",
        ),
        pytest.param(
            lambda d: d.update(horizon=True), "horizon must be an integer",
            id="horizon-bool",
        ),
        pytest.param(
            lambda d: d["rewards"][0].update(t=True), "bad step",
            id="step-bool",
        ),
        pytest.param(
            lambda d: d.update(states=[["s0"], "end"]), "states must be a list",
            id="states-nested",
        ),
        pytest.param(
            lambda d: d.update(initial_state=["s0"]), "initial_state",
            id="initial-state-list",
        ),
        pytest.param(
            lambda d: d["actions"].update(s0=[["a"], "b"]), "actions of 's0'",
            id="action-name-list",
        ),
        pytest.param(
            lambda d: d["transitions"][0].update(s=["s0"]),
            "names must be strings",
            id="entry-state-list",
        ),
        pytest.param(
            lambda d: d.update(actions=[]), "actions must be an object",
            id="actions-list",
        ),
    ],
)
def test_malformed_documents_exit_2(capsys, tmp_path, mutate, needle):
    doc = json.loads(dumps(one_shot_two_arms()))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, ["min-variance", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: bad mdp input:")
    assert needle in err


def test_policy_caps_exit_2(capsys, one_shot_path, monkeypatch):
    query = [one_shot_path, "--lambda", "0", "--v", "1"]
    code, _, err = _invoke(
        capsys,
        ["oracle", *query, "--class", "TS_U", "--grid-resolution", "1000000000"],
    )
    assert code == 2 and "policy cap exceeded" in err
    monkeypatch.setattr(games, "DEFAULT_POLICY_CAP", 1)
    code, _, err = _invoke(capsys, ["separation", *query])
    assert code == 2 and "policy cap exceeded" in err


def test_bad_flags_and_help(capsys, one_shot_path):
    bad = [
        ["frontier", one_shot_path, "--bogus"],
        # the size caps are constants, not flags
        ["augment-stats", one_shot_path, "--max-nodes", "5"],
        ["separation", one_shot_path, "--lambda", "0", "--v", "1",
         "--max-policies", "5"],
        ["no-such-command"],
        ["feasible-pair", one_shot_path, "--lambda", "-x", "--v", "1"],
    ]
    for argv in bad:
        code, out, err = _invoke(capsys, argv)
        assert (code, out) == (2, "")
        # argparse's own rejections read like every other exit 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: mvmdp"), err
    code, out, _ = _invoke(capsys, ["--help"])
    assert code == 0
    assert "formats:" in out


def test_version_names_the_python_and_the_rational_backend(capsys):
    import mvmdp
    from mvmdp.rationals import BACKEND

    code, out, err = _invoke(capsys, ["--version"])
    python = ".".join(map(str, sys.version_info[:3]))
    assert (code, err) == (0, "")
    assert out == f"mvmdp {mvmdp.__version__} (Python {python}, rationals {BACKEND})\n"
    assert BACKEND in ("fractions.Fraction", "gmpy2.mpq")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert f'version = "{mvmdp.__version__}"' in pyproject.read_text()


def _loaded_by(tmp_path, argv):
    """Exit code and every module loaded after `import mvmdp.cli` and
    `run(argv)` in a fresh interpreter."""
    import subprocess

    script = (
        "import sys, contextlib, io, json\n"
        "import mvmdp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = mvmdp.cli.run({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": src}, cwd=tmp_path, check=True,
    )
    code, modules = json.loads(done.stdout)
    return code, set(modules)


# Stdlib modules no query loads: the value classes are plain classes, so
# nothing imports dataclasses (and with it inspect) or generates methods,
# the CLI joins every CSV line itself, so nothing imports csv, and it reads
# argv against its own table, so nothing imports argparse (and with it
# gettext and locale).
STARTUP_SKIPS = {"csv", "dataclasses", "inspect", "argparse", "gettext", "locale"}


def test_version_imports_nothing_a_query_does_not(tmp_path, one_shot_path):
    # Whatever --version loads beyond `import mvmdp.cli` is among the
    # modules any query loads.
    code, version = _loaded_by(tmp_path, ["--version"])
    assert code == 0
    assert not version & STARTUP_SKIPS
    code, query = _loaded_by(tmp_path, ["validate", one_shot_path])
    assert code == 0
    assert version <= query


def test_each_subcommand_loads_only_its_engines(tmp_path, one_shot_path):
    # Module sets, not times: a query leaves unloaded every engine it never
    # calls, and loads the one it answers with; none loads STARTUP_SKIPS.
    witness_skips = {"games", "tradeoff"}
    polygon_skips = {"frequency", "lp"} | witness_skips
    reader_skips = {"cli_engines", "geometry", "setdp"} | polygon_skips
    game_skips = {"frequency", "lp"}
    grid_skips = {"frequency", "lp", "games"}
    searchy = ["--lambda", "1/8", "--v", "1/2"]
    cases = [
        (["validate", one_shot_path], reader_skips, "model"),
        (["augment-stats", one_shot_path], reader_skips, "model"),
        (["frontier", "--exact", one_shot_path], polygon_skips, "setdp"),
        (["min-variance", "--prune-eps", "1/8", one_shot_path],
         polygon_skips, "geometry"),
        (["feasible-pair", one_shot_path, "--lambda", "1/2", "--v", "3/4"],
         witness_skips, "lp"),
        (["feasible-mean-var", one_shot_path, "--lambda", "1/2", "--v", "1"],
         witness_skips, "lp"),
        (["min-variance", one_shot_path], witness_skips, "frequency"),
        (["max-variance", one_shot_path], witness_skips, "frequency"),
        (["zero-variance", one_shot_path], game_skips, "games"),
        (["gen", "subset-sum", "--r", "3", "4", "2"], game_skips, "games"),
        (["gen", "3sat", "--clauses", "1,-2,3"], game_skips, "games"),
        (["separation", one_shot_path, *searchy], {"tradeoff"}, "games"),
        (["oracle", one_shot_path, "--class", "TS_U", *searchy],
         game_skips | {"tradeoff"}, "games"),
        (["frontier", "--epsilon", "1/4", "--nu", "1/4", one_shot_path],
         grid_skips, "tradeoff"),
        (["discretize", one_shot_path, "--delta", "1/2"],
         grid_skips, "tradeoff"),
    ]
    for argv, skips, used in cases:
        code, modules = _loaded_by(tmp_path, argv)
        engines = {m[len("mvmdp."):] for m in modules if m.startswith("mvmdp.")}
        assert code == 0, argv
        assert not engines & skips, (argv, engines & skips)
        assert used in engines, argv
        assert not modules & STARTUP_SKIPS, (argv, modules & STARTUP_SKIPS)


def test_run_as_main_never_imports_the_cli_module_back(tmp_path, one_shot_path):
    # Under `python -m mvmdp.cli` the dispatcher is __main__: an engine
    # handler that imported mvmdp.cli would compile it again, and raise a
    # _UsageError class that __main__'s run does not catch.
    import subprocess

    script = (
        "import contextlib, io, json, runpy, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "sys.argv[1:] = argv\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('mvmdp.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, 'mvmdp.cli' in sys.modules,\n"
        "                  'mvmdp.cli_engines' in sys.modules]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, code in (
        (["frontier", "--exact", one_shot_path], 0),
        # an engine handler's usage error, caught by __main__'s run
        (["frontier", "--exact", "--epsilon", "1", one_shot_path], 2),
        (["validate", one_shot_path], 0),
    ):
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            capture_output=True, text=True, env={"PYTHONPATH": src},
            cwd=tmp_path, check=True,
        )
        engines = argv[0] == "frontier"
        assert json.loads(done.stdout) == [code, False, engines], argv
        if code == 2:
            assert done.stderr == (
                "error: --epsilon/--nu apply to the approximate mode only\n"
            )


BIG = 10**400  # past the float range, about 1.8e308


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _twin_pairs(payload):
    """(exact text, float twin) for every number of a JSON payload: each
    {"pq", "float"} pair."""
    if isinstance(payload, list):
        for item in payload:
            yield from _twin_pairs(item)
    elif isinstance(payload, dict):
        if set(payload) == {"pq", "float"}:
            yield payload["pq"], payload["float"]
            return
        for value in payload.values():
            yield from _twin_pairs(value)


def _fits_a_float(text) -> bool:
    try:
        float(Fraction(text))
    except OverflowError:
        return False
    return True


@pytest.mark.parametrize(
    "instance, argv, code, fmt",
    [
        ("huge", ["validate"], 0, "json"),
        ("huge", ["augment-stats"], 0, "json"),
        ("huge", ["min-variance"], 0, "json"),
        ("huge", ["max-variance", "--prune-eps", "1/7"], 0, "json"),
        ("huge", ["zero-variance"], 0, "json"),
        ("huge", ["frontier", "--exact"], 0, "csv"),
        ("huge", ["frontier", "--exact", "--format", "json"], 0, "json"),
        ("huge", ["frontier", "--epsilon", str(BIG * BIG * 10),
                  "--nu", str(BIG)], 0, "csv"),
        ("huge", ["frontier", "--epsilon", str(BIG * BIG * 10),
                  "--nu", str(BIG), "--format", "json"], 0, "json"),
        ("huge", ["feasible-pair", "--lambda", str(BIG), "--v", "0"], 0, "json"),
        ("huge", ["feasible-mean-var", "--lambda", str(BIG), "--v", "0"],
         0, "json"),
        ("huge", ["oracle", "--class", "TSW_U", "--lambda", str(BIG),
                  "--v", "0"], 0, "json"),
        ("huge", ["separation", "--lambda", str(BIG), "--v", "0"], 0, "json"),
        ("one_shot", ["feasible-pair", "--lambda", str(BIG), "--v", "0"],
         1, "json"),
        ("one_shot", ["oracle", "--class", "TS", "--lambda", "0",
                      "--v", str(-BIG)], 1, "json"),
        ("subset_sum", ["separation", "--lambda", "0", "--v", str(BIG)],
         0, "json"),
    ],
)
def test_values_past_the_float_range_keep_the_protocol(
    capsys, tmp_path, instance, argv, code, fmt
):
    # float() of such a value raises OverflowError, and Python's Infinity
    # is not JSON: the twin is null, or an empty CSV field, and the exact
    # value stays beside it.
    mdp = {
        "huge": lambda: make_mdp(
            horizon=1, states=("s",), initial_state="s",
            actions={"s": ("a",)}, transitions={("s", "a"): {"s": 1}},
            rewards={("s", "a"): {BIG: 1}},
        ),
        "one_shot": one_shot_two_arms,
        "subset_sum": lambda: gen_subset_sum([1]),
    }[instance]()
    path = tmp_path / "mdp.json"
    path.write_text(dumps(mdp))
    got, out, err = _invoke(capsys, argv[:1] + [str(path)] + argv[1:])
    assert (got, err) == (code, "")
    if fmt == "json":
        pairs = list(_twin_pairs(json.loads(out, parse_constant=_refuse_constant)))
    else:
        pairs = [
            (row[key[: -len("_float")]], value)
            for row in csv.DictReader(io.StringIO(out))
            for key, value in row.items() if key.endswith("_float")
        ]
    assert pairs
    outside = 0
    for text, twin in pairs:
        if text == "inf":  # an infeasible grid cell
            assert twin == "inf"
        elif _fits_a_float(text):
            assert float(twin) == float(Fraction(text))
        else:
            assert twin in (None, "")
            outside += 1
    assert outside
