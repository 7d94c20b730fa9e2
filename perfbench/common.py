"""Shared pieces of the mvmdp benchmark: launching CLI queries as child
processes, and checking their exact answers.

Every query is one `python -m mvmdp.cli ...` process (or, traced, one
`python perfbench/tracer.py ...` process) run from the checkout root with
`src` on PYTHONPATH. A query may be a pipeline of such processes, the way a
shell user pipes `mvmdp gen subset-sum` into `mvmdp zero-variance -`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
POOL = BENCH / "pool"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

QUERY_TIMEOUT_S = 60.0


class HostProbe:
    """Samples the host's own speed while queries run.

    On a shared host the same query can take 1.6 s or 2.9 s, because the
    core it runs on is at times slowed by other tenants, in stretches of
    100 ms up to minutes. A thread of the benchmark process times a fixed
    pure-Python Fraction loop every PERIOD_S seconds on the same CPU as the
    queries (the benchmark pins itself, and so its children, to one CPU).
    The loop is timed in thread CPU time, so the time slices the queries
    take meanwhile do not count, but a slowed core does.
    The loop also runs right before and after each query, for the short
    ones. A query's time times (NOMINAL_S / mean loop time around it) ** e
    is its time on a host whose loop takes NOMINAL_S: the drift cancels,
    while a change to mvmdp moves only the query. Queries of at most
    SHORT_S, mostly interpreter start-up, slow by about the 0.7th power of
    the loop's slowdown; compute-bound ones of LONG_S and more slow in
    proportion to it; e moves between the two with the log of the query's
    duration (fitted on 60 recorded runs of all three workloads on a
    2-core shared Xeon host). The loop costs about 2% of the CPU the
    queries get, the same in every run.
    """

    PERIOD_S = 0.1
    MARGIN_S = 0.02
    NOMINAL_S = 0.0025
    ITERATIONS = 1000
    SHORT_S, SHORT_EXPONENT = 0.15, 0.7
    LONG_S, LONG_EXPONENT = 1.0, 1.0

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @classmethod
    def loop_s(cls) -> float:
        from fractions import Fraction

        start = time.thread_time()
        x = Fraction(0)
        for i in range(1, cls.ITERATIONS):
            x += Fraction(i % 7 + 1, i % 11 + 2)
        return time.thread_time() - start

    def sample(self):
        at = time.perf_counter()
        self.samples.append((at, self.loop_s()))

    def _loop(self):
        while not self._stop.wait(self.PERIOD_S):
            self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean_s(self, start=None, end=None) -> float | None:
        picked = [d for at, d in self.samples
                  if (start is None or at >= start) and (end is None or at <= end)]
        return sum(picked) / len(picked) if picked else None

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured in [start, end] into nominal
        host time; uses the probes taken during the interval and the ones
        right before and after it, else the mean of every probe so far."""
        near = self.mean_s(start - self.MARGIN_S, end + self.MARGIN_S)
        if near is None:
            near = self.mean_s()
        if near is None:
            return 1.0
        span = math.log(self.LONG_S / self.SHORT_S)
        where = math.log(max(end - start, 1e-9) / self.SHORT_S) / span
        where = min(1.0, max(0.0, where))
        exponent = self.SHORT_EXPONENT + where * (
            self.LONG_EXPONENT - self.SHORT_EXPONENT)
        return (self.NOMINAL_S / near) ** exponent


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU, so that
    the host probe samples the CPU the queries run on. Returns the CPU, or
    -1 where affinity cannot be set (the probe then samples any CPU)."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return -1
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Pinned so that any hash-ordered iteration, and with it every pivot
    # sequence, repeats exactly from one run to the next.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


class QueryResult:
    """Outcome of one query: exit code of the last stage, its stdout, start
    (perf_counter) and wall time, summed child CPU time and the largest
    child max-RSS (KiB)."""

    def __init__(self, code, stdout, start, wall, cpu, maxrss_kb, timed_out,
                 stderr):
        self.code = code
        self.start = start
        self.stdout = stdout
        self.wall = wall
        self.cpu = cpu
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out
        self.stderr = stderr


def stage_command(argv, spans_path=None) -> list:
    if spans_path is None:
        return [sys.executable, "-m", "mvmdp.cli", *argv]
    return [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *argv]


def run_query(stages, scratch: Path, spans_paths=None, timeout=QUERY_TIMEOUT_S):
    """Run a pipeline of CLI stages; stage k reads stage k-1's stdout.

    Children are reaped with wait4 so each one's own rusage is known. A
    watchdog kills the whole pipeline at the timeout.
    """
    env = child_env()
    out_path = scratch / "stdout"
    err_path = scratch / "stderr"
    procs = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        prev = None
        for k, argv in enumerate(stages):
            last = k == len(stages) - 1
            cmd = stage_command(argv, None if spans_paths is None else spans_paths[k])
            proc = subprocess.Popen(
                cmd,
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL if prev is None else prev.stdout,
                stdout=out if last else subprocess.PIPE,
                stderr=err,
            )
            if prev is not None:
                prev.stdout.close()
            procs.append(proc)
            prev = proc
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            for proc in procs:
                try:
                    proc.send_signal(signal.SIGKILL)
                except ProcessLookupError:
                    pass

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        cpu = 0.0
        maxrss = 0
        codes = []
        try:
            for proc in procs:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                codes.append(proc.returncode)
                cpu += usage.ru_utime + usage.ru_stime
                maxrss = max(maxrss, usage.ru_maxrss)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return QueryResult(
        codes[-1], stdout, start, wall, cpu, maxrss, timed_out.is_set(),
        stderr
    )


# ---------------------------------------------------------------- answers


def _strip(node):
    """Exact content of a JSON answer: {"pq", "float"} numbers become their
    "pq" string; witness policies and LP-path-dependent fields are dropped,
    because another valid LP path may return another witness."""
    if isinstance(node, dict):
        if set(node) == {"pq", "float"}:
            return node["pq"]
        return {
            key: _strip(value)
            for key, value in node.items()
            if key not in ("policy", "policies", "achieved_variance", "detail")
        }
    if isinstance(node, list):
        return [_strip(item) for item in node]
    return node


def _strip_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return []
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("_float")]
    return [[row[i] for i in keep] for row in rows]


def answer_digest(stdout: str) -> str:
    """sha256 of the exact answer fields of a CLI output (JSON or CSV)."""
    try:
        exact = _strip(json.loads(stdout))
    except json.JSONDecodeError:
        exact = _strip_csv(stdout)
    blob = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _policies(kind: str, doc: dict) -> list:
    """(policy JSON or None, check) pairs for every witness the answer owes;
    check(mean, variance) -> bool."""
    from fractions import Fraction as F

    def num(node):
        return F(node["pq"])

    if kind == "feasible-pair":
        mean, var = num(doc["mean"]), num(doc["variance"])
        return [(doc.get("policy"), lambda m, v: m == mean and v == var)]
    if kind == "feasible-mean-var":
        mean, cap = num(doc["mean"]), num(doc["variance_cap"])
        achieved = num(doc["achieved_variance"])
        return [
            (doc.get("policy"), lambda m, v: m == mean and v == achieved <= cap)
        ]
    if kind in ("min-variance", "max-variance") and not doc["pruned"]:
        mean, var = num(doc["witness_mean"]), num(doc["variance"])
        return [(doc.get("policy"), lambda m, v: m == mean and v == var)]
    if kind == "separation":
        floor, cap = num(doc["mean_floor"]), num(doc["variance_cap"])
        return [
            (entry["policy"], lambda m, v: m >= floor and v <= cap)
            for entry in doc["classes"].values()
            if entry["feasible"]
        ]
    if kind == "zero-variance":
        owed = [item["value"]["pq"] for item in doc["policies"]]
        if owed != [value["pq"] for value in doc["values"]]:
            return [(None, None)]
        return [
            (item["policy"], lambda m, v, k=num(item["value"]): m == k and v == 0)
            for item in doc["policies"]
        ]
    return []


def _policy_spec(policy: dict):
    from fractions import Fraction as F

    from mvmdp.model import PolicySpec
    from mvmdp.rationals import Rat

    rule = {}
    for entry in policy["rules"]:
        key = (entry["t"], entry["s"])
        if "w" in entry:
            key = key + (Rat(F(entry["w"]["pq"])),)
        if "choose" in entry:
            rule[key] = {a: Rat(F(p["pq"])) for a, p in entry["choose"].items()}
        else:
            rule[key] = entry["action"]
    return PolicySpec(policy["class"], rule)


def replay_witnesses(kind: str, stdout: str, mdp_text: str) -> str | None:
    """Evaluate every witness policy in a successful answer on its MDP;
    None if each one the answer owes is there and reproduces the moments the
    answer claims, else a reason."""
    from mvmdp.model import evaluate_policy
    from mvmdp.serialize import loads

    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return None  # CSV answers carry no witness
    owed = _policies(kind, doc)
    if not owed:
        return None
    mdp = loads(mdp_text)
    for policy, check in owed:
        if policy is None:
            return f"{kind} answer lacks a witness policy it owes"
        ev = evaluate_policy(mdp, _policy_spec(policy))
        if not check(ev.mean, ev.variance):
            return (
                f"{policy['class']} witness replays to mean {ev.mean}, "
                f"variance {ev.variance}"
            )
    return None
