"""The mvmdp benchmark: seeded CLI query lists with exact-answer checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each query is one `python -m mvmdp.cli ...` process, run in a closed loop by
one client: the next query starts when the previous one has exited. A run
sets up (picks the seed's queries from perfbench/pool, writes the instance
files, makes one untimed warm-up call) five times and reports the median as
setup_s. It then runs whole passes of the query list while another pass fits
in S seconds, at least one. After the timed section it checks every exit
code and exact answer against the pool's reference digests and replays
every witness policy with `evaluate_policy`.

Times are reported on a nominal host. On a shared host the speed of a core
drifts by up to 1.8x within seconds, so the benchmark pins itself and its
children to one CPU and scales each query's time by a host probe taken
around it (see common.HostProbe). Raw times are kept in the run record.

--trace 1 runs one pass untraced and the same pass through
perfbench/tracer.py, and reports per-layer metrics from the spans; the gap
between the two passes is the tracing overhead. It also runs the tracer
self-test on the mvmdp.fixtures instances.

Workloads (see BENCHMARK.json for why each exists):
  deep-witness    few large witness LPs on the deep corpus
  polygon-stress  exact moment-polygon recursion, no LP
  small-queries   every analysis subcommand on small integer MDPs

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The lines above it print every metric by name and unit. A full
record of the run (input digest, git revision, Python version, rational
backend, core count, load average and host reference time at start and end,
raw and nominal query times) goes to .perfbench/runs/; perfbench/compare.py
pairs such records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    POOL,
    HostProbe,
    ROOT,
    SRC,
    WORK,
    answer_digest,
    child_env,
    replay_witnesses,
    pin_to_one_cpu,
    run_query,
)
from layers import PER_LAYER, per_layer  # noqa: E402
from layers import load as load_spans  # noqa: E402
from selftest import run_selftest  # noqa: E402

WORKLOADS = ("deep-witness", "polygon-stress", "small-queries")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "startup_ms": "ms",
    "witness_s": "s",
    "frontier_exact_s": "s",
    "peak_rss_mb": "MB",
}
# Reported where the workload has such queries; not every workload does, so
# these are not in BENCHMARK.json, which needs every metric in every run.
EXTRA = {
    "query_p90_ms": "ms",
    "frontier_grid_s": "s",
    "classes_s": "s",
    "zero_variance_s": "s",
    "failed_frac": "ratio",
}
GROUPS = {
    "witness_s": "witness",
    "frontier_exact_s": "frontier_exact",
    "frontier_grid_s": "frontier_grid",
    "classes_s": "classes",
    "zero_variance_s": "zero_variance",
}


def group_of(stages) -> str:
    argv = stages[-1]
    sub = argv[0]
    if sub == "validate":
        return "startup"
    if sub in ("min-variance", "max-variance", "feasible-pair",
               "feasible-mean-var"):
        return "witness"
    if sub == "frontier":
        return "frontier_exact" if "--exact" in argv else "frontier_grid"
    if sub in ("separation", "oracle"):
        return "classes"
    if sub == "zero-variance":
        return "zero_variance"
    return "stats"


class Query:
    def __init__(self, qid, spec, workdir):
        self.id = qid
        self.kind = spec["stages"][-1][0]
        self.group = group_of(spec["stages"])
        self.exit = spec["exit"]
        self.digest = spec["digest"]
        self.instance = spec["instance"]
        self.path = None if self.instance is None else str(
            (workdir / f"{self.instance}.json").relative_to(ROOT))
        self.stages = [[self.path if a == "{instance}" else a for a in argv]
                       for argv in spec["stages"]]
        self.mdp_json = spec.get("mdp_json")


def select(pool: dict, seed: int) -> list:
    """The seed's query ids: `pick` options from each group, shuffled."""
    rng = random.Random(seed)
    qids = []
    for group in pool["groups"]:
        for option in rng.sample(group["options"], group["pick"]):
            qids.extend(option)
    rng.shuffle(qids)
    return qids


def setup(workload: str, seed: int, scratch, probe) -> tuple:
    """Write the seed's instances and query list; one untimed warm-up call.
    Returns (queries, input digest)."""
    pool_dir = POOL / workload
    pool = json.loads((pool_dir / "queries.json").read_text(encoding="utf-8"))
    workdir = WORK / "work" / workload
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    queries = [Query(q, pool["queries"][q], workdir) for q in select(pool, seed)]
    digest = hashlib.sha256()
    for name in sorted({q.instance for q in queries if q.instance}):
        text = (pool_dir / f"{name}.json").read_text(encoding="utf-8")
        (workdir / f"{name}.json").write_text(text, encoding="utf-8")
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    listing = json.dumps([[q.id, q.stages] for q in queries])
    (workdir / "queries.json").write_text(listing, encoding="utf-8")
    digest.update(listing.encode())
    warm = next(q for q in queries if q.instance)
    probe.sample()
    res = run_query([["validate", warm.path]], scratch)
    probe.sample()
    if res.code != 0:
        raise SystemExit(f"warm-up validate failed: {res.stderr.strip()}")
    return queries, digest.hexdigest()


def host_ref_s() -> float:
    """Median of nine runs of the host probe's Fraction loop, taken at the
    start and the end of each run and recorded, not gated: it tells drift
    of the host itself apart from a change in mvmdp."""
    return statistics.median(HostProbe.loop_s() for _ in range(9))


def run_pass(queries, scratch, probe, spans_dir=None) -> list:
    records = []
    for n, q in enumerate(queries):
        spans = None
        if spans_dir is not None:
            spans = [spans_dir / f"{n}-{k}.json" for k in range(len(q.stages))]
        probe.sample()
        res = run_query(q.stages, scratch, spans)
        probe.sample()
        records.append({
            "query": q,
            "start": res.start,
            "wall": res.wall,
            "cpu": res.cpu,
            "maxrss_kb": res.maxrss_kb,
            "code": res.code,
            "timed_out": res.timed_out,
            "digest": answer_digest(res.stdout),
            "stdout": res.stdout if res.code == 0 else None,
            "stderr": res.stderr[-2000:],
        })
    return records


def nominal(records, probe) -> None:
    """Add each query's time on the nominal host (see HostProbe)."""
    for rec in records:
        rec["nominal"] = rec["wall"] * probe.scale(
            rec["start"], rec["start"] + rec["wall"])


def check(records) -> list:
    """Failures: timeout, wrong exit code, wrong exact answer, or a witness
    policy that does not replay to the moments its answer claims."""
    sys.path.insert(0, str(SRC))
    failures = []
    mdp_texts = {}
    for rec in records:
        q = rec["query"]
        problem = None
        if rec["timed_out"]:
            problem = "timeout"
        elif rec["code"] != q.exit:
            problem = f"exit {rec['code']}, expected {q.exit}: {rec['stderr']}"
        elif rec["digest"] != q.digest:
            problem = "exact answer differs from the reference"
        elif rec["stdout"] is not None:
            if q.path is not None and q.path not in mdp_texts:
                mdp_texts[q.path] = (ROOT / q.path).read_text(encoding="utf-8")
            text = q.mdp_json if q.path is None else mdp_texts[q.path]
            try:
                problem = replay_witnesses(q.kind, rec["stdout"], text)
            except Exception as exc:  # a malformed answer is a failed query
                problem = f"witness replay raised {exc!r}"
        if problem:
            failures.append({"query": q.id, "problem": problem})
    return failures


def end_to_end(passes, setup_times) -> dict:
    """Time metrics from nominal-host query times; a pass's wall time is
    the sum of its query times."""
    records = [rec for recs in passes for rec in recs]
    times = [rec["nominal"] for rec in records]
    startup = [r["nominal"] for r in records if r["query"].group == "startup"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(
            sum(r["nominal"] for r in recs) for recs in passes),
        "query_p50_ms": statistics.median(times) * 1e3,
        "startup_ms": statistics.median(startup) * 1e3 if startup else None,
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024,
    }
    if len(times) >= 100:
        metrics["query_p90_ms"] = statistics.quantiles(times, n=10)[-1] * 1e3
    for metric, group in GROUPS.items():
        totals = [
            sum(r["nominal"] for r in recs if r["query"].group == group)
            for recs in passes
        ]
        if any(totals):
            metrics[metric] = statistics.median(totals)
    return metrics


def import_ms(repeats=7) -> float:
    """Fresh `import mvmdp.cli` minus a bare interpreter, median of pairs."""

    env = child_env()
    diffs = []
    for _ in range(repeats):
        times = []
        for code in ("pass", "import mvmdp.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True)
            times.append(time.perf_counter() - start)
        diffs.append(times[1] - times[0])
    return statistics.median(diffs) * 1e3


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def backend() -> str:
    sys.path.insert(0, str(SRC))
    from mvmdp.rationals import Rat

    return f"{Rat.__module__}.{Rat.__name__}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mvmdp" / "cli.py").is_file():
        print(f"error: no mvmdp sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    scratch = WORK / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "backend": backend(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "host_ref_s_start": host_ref_s(),
    }

    with HostProbe() as probe:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            queries, digest = setup(args.workload, args.seed, scratch, probe)
            setup_times.append((start, time.perf_counter() - start))
        if args.trace:
            passes = traced_run(queries, scratch, probe)
        else:
            passes = []
            start = time.perf_counter()
            while True:
                begun = time.perf_counter()
                passes.append(run_pass(queries, scratch, probe))
                now = time.perf_counter()
                if now - start + (now - begun) > args.seconds:
                    break
    records = [rec for recs in passes for rec in recs]
    nominal(records, probe)
    setup_nominal = [wall * probe.scale(at, at + wall) for at, wall in setup_times]
    record["input_digest"] = digest
    record["queries"] = len(queries)
    record["passes"] = len(passes)
    record["host_probe_mean_s"] = probe.mean_s()
    record["host_probes"] = len(probe.samples)
    record["setup_raw_s"] = [wall for _, wall in setup_times]
    failures = check(records)
    if args.trace:
        failures += [{"query": "selftest", "problem": p}
                     for p in run_selftest(scratch)]
        metrics, missing = per_layer_metrics(passes)
        record["missing"] = missing
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = end_to_end(passes, setup_nominal)
        metrics["failed_frac"] = len(failures) / len(records)
        units = {**END_TO_END, **EXTRA}

    record["host_ref_s_end"] = host_ref_s()
    record["loadavg_end"] = os.getloadavg()
    record["attempted"] = len(records)
    record["failures"] = failures
    record["metrics"] = metrics
    record["query_times"] = [
        [r["query"].id, r["wall"], r["nominal"], r["cpu"]] for r in records]
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  backend "
          f"{record['backend']}  python {record['python']}  nproc "
          f"{record['nproc']}  input {digest[:16]}")
    print(f"host.ref_s {record['host_ref_s_start']:.4f} -> "
          f"{record['host_ref_s_end']:.4f}  loadavg "
          f"{record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    print(f"{len(records)} queries in {len(passes)} pass(es); times are "
          f"on the nominal host (probe mean {probe.mean_s():.4f} s, nominal "
          f"{HostProbe.NOMINAL_S} s, {len(probe.samples)} probes)"
          + ("" if args.trace or len(records) >= 100
             else "; query_p90_ms needs >= 100 queries"))
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units[name]}")
    for fail in failures:
        print(f"FAILED {fail['query']}: {fail['problem']}")
    print(f"record {out.relative_to(ROOT)}")

    wanted = list(PER_LAYER) if args.trace else list(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics.get(name), "unit": units[name]}
            for name in wanted
        },
    }
    for name in wanted:
        if metrics.get(name) is None:
            result["metrics"][name]["missing"] = record["missing"][name]
    print(json.dumps(result))
    return 0


def traced_run(queries, scratch, probe) -> list:
    """One untraced pass, then the same pass through the tracer."""
    spans_dir = WORK / "spans"
    if spans_dir.exists():
        shutil.rmtree(spans_dir)
    spans_dir.mkdir(parents=True)
    return [run_pass(queries, scratch, probe),
            run_pass(queries, scratch, probe, spans_dir)]


def per_layer_metrics(passes) -> tuple:
    plain, traced = (sum(r["nominal"] for r in recs) for recs in passes)
    docs = [load_spans(p) for p in sorted((WORK / "spans").glob("*.json"))]
    values, missing = per_layer(docs)
    values["cli.import_ms"] = import_ms()
    values["trace.overhead_frac"] = (traced - plain) / plain
    for name, reason in missing.items():
        values[name] = None
        print(f"warning: {name} missing: {reason}", file=sys.stderr)
    return values, missing


if __name__ == "__main__":
    raise SystemExit(main())
