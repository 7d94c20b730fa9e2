"""Regenerate the benchmark's instance pool and its reference answers.

    python3 perfbench/gen_pool.py

writes perfbench/pool/<workload>/*.json (MDP instances) and
perfbench/pool/<workload>/queries.json: every candidate query, the exit code
and exact-answer digest the CLI gave for it when the pool was made, and the
groups a run's seed picks from. Answers are exact, so any later commit must
reproduce every digest; regenerate only when the benchmark itself changes.
The measured cost of each instance is used once, here, to sort instances
into tiers of similar cost, so that every seed draws the same mix of cheap
and dear work.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import POOL, WORK, answer_digest, replay_witnesses, run_query  # noqa: E402
from mvmdp.errors import AugmentationLimitError  # noqa: E402
from mvmdp.games import gen_subset_sum  # noqa: E402
from mvmdp.model import augment, make_mdp  # noqa: E402
from mvmdp.rationals import Rat, rat_str  # noqa: E402
from mvmdp.serialize import dumps  # noqa: E402
from mvmdp.setdp import compute_pmq, max_variance, min_variance  # noqa: E402

# The seed of the repository's test corpora: deep-witness reuses the deep
# corpus exactly, small-queries the integer corpus distribution.
CORPUS_SEED = 20260822
STRESS_SEED = 1104
SUBSET_SEED = 5601


def _draw(rng, max_states, max_actions, horizon_range, reward_values, support_sizes):
    """The corpus sampler of tests/corpus.py, kept here so that the pool
    does not move when the tests change."""
    horizon = rng.randrange(horizon_range[0], horizon_range[1] + 1)
    n = rng.randrange(1, max_states + 1)
    states = tuple(f"s{i}" for i in range(n))
    actions = {
        s: tuple(f"a{j}" for j in range(rng.randrange(1, max_actions + 1)))
        for s in states
    }
    transitions = {}
    rewards = {}
    for t in range(horizon):
        for s in states:
            for a in actions[s]:
                targets = rng.sample(states, rng.randrange(1, n + 1))
                weights = [rng.randrange(1, 4) for _ in targets]
                total = sum(weights)
                transitions[(t, s, a)] = {
                    s2: Rat(wt, total) for s2, wt in zip(targets, weights)
                }
                size = min(rng.choice(support_sizes), len(reward_values))
                values = rng.sample(reward_values, size)
                weights = [rng.randrange(1, 4) for _ in values]
                total = sum(weights)
                rewards[(t, s, a)] = {
                    Rat(v): Rat(wt, total) for v, wt in zip(values, weights)
                }
    return make_mdp(horizon, states, "s0", actions, transitions, rewards)


def _tsw_policy_count(mdp, aug) -> int:
    count = 1
    for t in range(mdp.horizon):
        for s, _ in aug.layer(t):
            count *= len(mdp.actions[s])
            if count > 10**9:
                return count
    return count


def integer_instances(count: int) -> list:
    """tests/corpus.py integer family: rewards -2..2, |S| <= 3, |A| <= 2,
    T <= 3, at most 150 augmented nodes and 1024 TSW policies."""
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < count:
        mdp = _draw(rng, 3, 2, (1, 3), range(-2, 3), (1, 2, 3))
        try:
            aug = augment(mdp, max_nodes=150)
        except AugmentationLimitError:
            continue
        if _tsw_policy_count(mdp, aug) <= 1024:
            out.append(mdp)
    return out


def deep_instances(count: int = 10) -> list:
    """tests/corpus.py deep family: T = 5, rewards -3..3, root polygon of at
    least 20 vertices. Returns (corpus index, mdp, polygon)."""
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < count:
        mdp = _draw(rng, 3, 2, (5, 5), range(-3, 4), (2, 3))
        polygon = compute_pmq(mdp)
        if len(polygon.vertices) >= 20:
            out.append((len(out), mdp, polygon))
    return out


def stress_instance(rng, horizon):
    """3 states, 2 actions, stationary dynamics, two-point reward pmfs k/d
    with d in {2, 3, 5, 7}: the rational rewards make the augmented space and
    the moment polygons large while the LP is never asked."""
    states = ("s0", "s1", "s2")
    actions = {s: ("a0", "a1") for s in states}
    transitions, rewards = {}, {}
    for s in states:
        for a in actions[s]:
            targets = rng.sample(states, rng.randrange(1, 3))
            weights = [rng.randrange(1, 4) for _ in targets]
            transitions[(s, a)] = {
                t: Rat(w, sum(weights)) for t, w in zip(targets, weights)
            }
            d = rng.choice((2, 3, 5, 7))
            k1, k2 = rng.sample(range(-2 * d, 2 * d + 1), 2)
            p = rng.randrange(1, 4)
            rewards[(s, a)] = {Rat(k1, d): Rat(p, 4), Rat(k2, d): Rat(4 - p, 4)}
    return make_mdp(horizon, states, "s0", actions, transitions, rewards)


def _q(value) -> str:
    return rat_str(value)


class PoolWriter:
    """Runs each candidate query once through the CLI and keeps its exit
    code, answer digest and wall time."""

    def __init__(self, workload: str):
        self.dir = POOL / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        for old in self.dir.glob("*.json"):
            old.unlink()
        self.queries = {}
        self.groups = []
        self.scratch = WORK / "gen"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def instance(self, name: str, mdp) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(dumps(mdp) + "\n", encoding="utf-8")
        return name

    def query(self, qid: str, instance: str | None, stages: list, mdp_text=None):
        """stages: argv lists; "{instance}" stands for the instance path."""
        if instance is not None:
            mdp_text = (self.dir / f"{instance}.json").read_text(encoding="utf-8")
            real = [
                [str(self.dir / f"{instance}.json") if a == "{instance}" else a
                 for a in argv]
                for argv in stages
            ]
        else:
            real = stages
        res = run_query(real, self.scratch)
        if res.timed_out or res.code not in (0, 1):
            raise SystemExit(f"{qid}: exit {res.code}\n{res.stderr}")
        kind = stages[-1][0]
        if res.code == 0:
            problem = replay_witnesses(kind, res.stdout, mdp_text)
            if problem:
                raise SystemExit(f"{qid}: {problem}")
        self.queries[qid] = {
            "instance": instance,
            "stages": stages,
            "exit": res.code,
            "digest": answer_digest(res.stdout),
            "ref_wall_s": round(res.wall, 3),
        }
        if instance is None:
            self.queries[qid]["mdp_json"] = mdp_text
        print(f"{res.wall:7.3f}s exit {res.code} {qid}", flush=True)
        return res.wall

    def group(self, pick: int, options: list) -> None:
        self.groups.append({"pick": pick, "options": options})

    def save(self) -> None:
        doc = {"groups": self.groups, "queries": self.queries}
        (self.dir / "queries.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )


def _tiers(costs: dict, size: int) -> list:
    ranked = sorted(costs, key=costs.get)
    return [ranked[i:i + size] for i in range(0, len(ranked), size)]


def deep_witness() -> None:
    pool = PoolWriter("deep-witness")
    fixed = []
    for index, mdp, polygon in deep_instances():
        if augment(mdp).node_count > 100:
            continue
        name = pool.instance(f"deep{index}", mdp)
        for qid, argv in (
            (f"{name}/validate", ["validate", "{instance}"]),
            (f"{name}/augment-stats", ["augment-stats", "{instance}"]),
            (f"{name}/frontier-exact", ["frontier", "--exact", "{instance}"]),
        ):
            pool.query(qid, name, [argv])
            fixed.append(qid)
        # Each slot is one witness LP at an extreme-variance point; the seed
        # picks which subcommand asks it, so a slot costs about the same
        # whichever is picked.
        for label, pick in (("min", min_variance), ("max", max_variance)):
            value, (m, q) = pick(polygon)
            target = [f"--lambda={_q(m)}", f"--v={_q(value)}"]
            options = []
            for sub, argv in (
                (f"{label}-variance", [f"{label}-variance", "{instance}"]),
                ("feasible-pair", ["feasible-pair", "{instance}", *target]),
                ("feasible-mean-var", ["feasible-mean-var", "{instance}", *target]),
            ):
                qid = f"{name}/{label}/{sub}"
                pool.query(qid, name, [argv])
                options.append([qid])
            pool.group(1, options)
    pool.group(1, [fixed])
    pool.save()


def polygon_stress() -> None:
    """One T=5 instance (1000-2000 augmented nodes, root polygon of at
    least 100 vertices) and one T=6 instance (3000-4000 nodes, at least 300
    vertices), in every pass; small enough that two passes fit in a run. The seed picks each instance's prune budget
    from three close values, which give other answers at about the same
    cost (1/4 against 1/16 moves the cost by a fifth)."""
    pool = PoolWriter("polygon-stress")
    rng = random.Random(STRESS_SEED)
    wanted = {5: (1, 1000, 2000, 100), 6: (1, 3000, 4000, 300)}
    chosen = {5: [], 6: []}
    k = 0
    while any(len(chosen[h]) < wanted[h][0] for h in wanted):
        horizon = 5 + k % 2
        k += 1
        mdp = stress_instance(rng, horizon)
        count, lo, hi, vertices = wanted[horizon]
        nodes = augment(mdp, max_nodes=10**6).node_count
        if len(chosen[horizon]) < count and lo <= nodes <= hi:
            if len(compute_pmq(mdp).vertices) >= vertices:
                chosen[horizon].append(mdp)
    fixed = []
    for horizon in (5, 6):
        for i, mdp in enumerate(chosen[horizon]):
            name = pool.instance(f"stress-t{horizon}-{i}", mdp)
            for sub, argv in (
                ("validate", ["validate", "{instance}"]),
                ("augment-stats", ["augment-stats", "{instance}"]),
                ("frontier-exact", ["frontier", "--exact", "{instance}"]),
            ):
                qid = f"{name}/{sub}"
                pool.query(qid, name, [argv])
                fixed.append(qid)
            options = []
            for eps in ("1/7", "1/8", "1/9"):
                bundle = []
                for sub, argv in (
                    ("frontier-pruned",
                     ["frontier", "--exact", f"--prune-eps={eps}", "{instance}"]),
                    ("max-variance-pruned",
                     ["max-variance", f"--prune-eps={eps}", "{instance}"]),
                ):
                    qid = f"{name}/{sub}/{eps}"
                    pool.query(qid, name, [argv])
                    bundle.append(qid)
                options.append(bundle)
            pool.group(1, options)
    pool.group(len(fixed), [[q] for q in fixed])
    pool.save()


def small_queries(count: int = 36, tier: int = 3, heavy: int = 3) -> None:
    """One bundle of every analysis subcommand per integer-corpus instance;
    instances are ranked by bundle cost and the seed takes one per tier."""
    pool = PoolWriter("small-queries")
    rng = random.Random(CORPUS_SEED + 1)
    bundles, costs = {}, {}
    for i, mdp in enumerate(integer_instances(count)):
        name = pool.instance(f"int{i:02d}", mdp)
        polygon = compute_pmq(mdp)
        m1, q1 = rng.choice(polygon.vertices)
        m2, q2 = rng.choice(polygon.vertices)
        lower = polygon.lower_chain()
        m3, q3 = rng.choice(lower)
        pair = [f"--lambda={_q(m1)}", f"--v={_q(q1 - m1 * m1)}"]
        capped = [f"--lambda={_q(m2)}", f"--v={_q(q2 - m2 * m2)}"]
        floor = [f"--lambda={_q(m3)}", f"--v={_q(q3 - m3 * m3)}"]
        bundle = []
        cost = 0.0
        for sub, argv in (
            ("validate", ["validate", "{instance}"]),
            ("augment-stats", ["augment-stats", "{instance}"]),
            ("feasible-pair", ["feasible-pair", "{instance}", *pair]),
            ("feasible-mean-var", ["feasible-mean-var", "{instance}", *capped]),
            ("min-variance", ["min-variance", "{instance}"]),
            ("max-variance", ["max-variance", "{instance}"]),
            ("frontier-exact", ["frontier", "--exact", "{instance}"]),
            ("frontier-grid",
             ["frontier", "--epsilon=1/4", "--nu=1/4", "{instance}"]),
            ("zero-variance", ["zero-variance", "{instance}"]),
            ("separation", ["separation", "{instance}", *floor]),
        ):
            qid = f"{name}/{sub}"
            cost += pool.query(qid, name, [argv])
            bundle.append(qid)
        bundles[name] = bundle
        costs[name] = cost
    # The dearest bundles (separation's long tail) run in every pass, so the
    # tail does not depend on the seed.
    ranked = sorted(costs, key=costs.get)
    for names in _tiers({n: costs[n] for n in ranked[:-heavy]}, tier):
        pool.group(1, [bundles[n] for n in names])
    pool.group(heavy, [bundles[n] for n in ranked[-heavy:]])
    # gen subset-sum piped into zero-variance: half the vectors are doubled
    # multisets, which always balance, so both exit codes occur.
    srng = random.Random(SUBSET_SEED)
    options = []
    for k in range(8):
        if k % 2 == 0:
            half = [srng.randrange(1, 21) for _ in range(3)]
            values = half + half
        else:
            values = [srng.randrange(1, 21) for _ in range(6)]
        text = dumps(gen_subset_sum(values))
        qid = f"subset-sum/{'-'.join(map(str, values))}"
        pool.query(
            qid,
            None,
            [["gen", "subset-sum", "--r", *map(str, values)],
             ["zero-variance", "-"]],
            mdp_text=text,
        )
        options.append([qid])
    pool.group(1, options)
    pool.save()


if __name__ == "__main__":
    wanted = sys.argv[1:] or ["deep-witness", "polygon-stress", "small-queries"]
    for workload in wanted:
        {"deep-witness": deep_witness,
         "polygon-stress": polygon_stress,
         "small-queries": small_queries}[workload]()
