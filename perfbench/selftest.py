"""Self-test of the benchmark's tracer on the mvmdp.fixtures instances.

    python3 perfbench/selftest.py

Runs a traced `min-variance` (which asks the witness LP) on each fixture
twice and checks that

- spans nest as cli.run > frequency.exact_pair_feasible > lp.solve > phase,
  and every span lies inside its parent's interval;
- span and pivot counts repeat exactly across the two runs, as Bland's rule
  is deterministic, so a later claim may rest on those counts.

Every traced benchmark run calls it too. Exit 0 on success, 1 otherwise.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, run_query  # noqa: E402
from layers import load  # noqa: E402

CHAIN = ("cli.run", "frequency.exact_pair_feasible", "lp.solve", "lp.phase")


def _fixtures() -> dict:
    sys.path.insert(0, str(SRC))
    from mvmdp import fixtures
    from mvmdp.rationals import Rat
    from mvmdp.serialize import dumps

    return {
        "one_shot_two_arms": dumps(fixtures.one_shot_two_arms()),
        "offset_chain": dumps(fixtures.offset_chain()),
        "forked_path": dumps(fixtures.forked_path(Rat(1, 3))),
        "two_point_stage": dumps(fixtures.two_point_stage()),
    }


def _signature(doc) -> tuple:
    """Span counts by name plus pivot counts by kind, as a hashable value."""
    counts = Counter(rec[0] for rec in doc["spans"])
    for rec in doc["spans"]:
        for key, value in (rec[4] or {}).items():
            if key in ("pivots", "warm", "cleanup"):
                counts[f"{rec[0]}:{key}"] += value
    return tuple(sorted(counts.items()))


def _nesting_problems(name, doc) -> list:
    spans = doc["spans"]
    problems = []
    for span, parent, t0, t1, _ in spans:
        if parent >= 0 and not (spans[parent][2] <= t0 <= t1 <= spans[parent][3]):
            problems.append(f"{name}: span {span} leaves its parent's interval")
    for rec in spans:
        if rec[0] != CHAIN[-1]:
            continue
        chain = [rec[0]]
        parent = rec[1]
        while parent >= 0:
            chain.append(spans[parent][0])
            parent = spans[parent][1]
        wanted = list(reversed(CHAIN))
        got = [s for s in chain if s in CHAIN]
        if got[: len(wanted)] == wanted and chain[-1] == CHAIN[0]:
            return problems
    problems.append(f"{name}: no span chain {' > '.join(CHAIN)}")
    return problems


def run_selftest(scratch: Path) -> list:
    """Problems found; empty when the tracer is sound."""
    base = WORK / "selftest"
    base.mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True, exist_ok=True)
    problems = []
    for name, text in _fixtures().items():
        path = base / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        signatures = []
        for attempt in range(2):
            spans = base / f"{name}-{attempt}.spans.json"
            res = run_query([["min-variance", str(path)]], scratch, [spans])
            if res.code != 0:
                problems.append(f"{name}: exit {res.code}: {res.stderr.strip()}")
                break
            doc = load(spans)
            gone = set(doc["missing"]) & {*CHAIN, "lp.pivot"}
            if gone:
                problems.append(f"{name}: tracer could not resolve {sorted(gone)}")
            if attempt == 0:
                problems += _nesting_problems(name, doc)
            signatures.append(_signature(doc))
        if len(signatures) == 2 and signatures[0] != signatures[1]:
            problems.append(f"{name}: span or pivot counts differ between runs")
    return problems


if __name__ == "__main__":
    found = run_selftest(WORK / "scratch")
    for problem in found:
        print(f"selftest: {problem}")
    print("selftest: ok" if not found else f"selftest: {len(found)} problem(s)")
    raise SystemExit(1 if found else 0)
