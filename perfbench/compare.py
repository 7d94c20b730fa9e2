"""Compare two sets of benchmark run records.

    python3 perfbench/compare.py BASE_DIR_OR_FILES... -- CHANGE_DIR_OR_FILES...

Records are the JSON files perfbench/run.py writes to .perfbench/runs/. Runs
pair up by (workload, seed, trace). A pair whose input digests differ is
refused: the two sides did not run the same queries on the same instances.
For each workload and end-to-end metric it prints both medians and flags a
change median worse than the base median by more than the metric's bound in
BENCHMARK.json. For traced runs it flags any exact count (pivots, solves,
calls) that differs between the sides. host.ref_s is shown so that drift of
the host itself can be told apart from a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _records(args) -> dict:
    out = {}
    for arg in args:
        path = Path(arg)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            rec = json.loads(f.read_text(encoding="utf-8"))
            out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, change = _records(argv[:cut]), _records(argv[cut + 1:])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    pairs = sorted(set(base) & set(change))
    if not pairs:
        print("no runs pair up by (workload, seed, trace)", file=sys.stderr)
        return 2
    for key in pairs:
        if base[key]["input_digest"] != change[key]["input_digest"]:
            print(f"refused: inputs differ for {key}", file=sys.stderr)
            return 2
    worse = 0
    by_workload = defaultdict(list)
    for key in pairs:
        by_workload[(key[0], key[2])].append(key)
    for (workload, trace), keys in sorted(by_workload.items()):
        print(f"{workload} trace={trace}: {len(keys)} pair(s)")
        for side, recs in (("base", base), ("change", change)):
            refs = [recs[k]["host_ref_s_start"] for k in keys]
            print(f"  host.ref_s {side:6s} median {statistics.median(refs):.4f}")
        if trace:
            for k in keys:
                for name in sorted(counts):
                    a = base[k]["metrics"].get(name)
                    b = change[k]["metrics"].get(name)
                    if a != b:
                        print(f"  seed {k[1]} {name}: {a} -> {b}")
            continue
        for name, spec in bounds.items():
            a = statistics.median(base[k]["metrics"][name] for k in keys)
            b = statistics.median(change[k]["metrics"][name] for k in keys)
            limit = a * (1 + spec["bound"]) if spec["better"] == "lower" \
                else a * (1 - spec["bound"])
            bad = b > limit if spec["better"] == "lower" else b < limit
            worse += bad
            print(f"  {name:18s} {a:12.6g} -> {b:12.6g} {spec['unit']:5s}"
                  f" {'WORSE than bound' if bad else 'within bound'}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
