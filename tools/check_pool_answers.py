"""Check the answer of every benchmark pool query, in-process.

    PYTHONHASHSEED=0 python3 tools/check_pool_answers.py

Runs each query of perfbench/pool/*/queries.json through `mvmdp.cli.run` in
this one process, with a pipeline's stage k reading stage k-1's stdout the
way the benchmark's child processes do. It then checks the exit code and the
exact-answer digest (`perfbench/common.answer_digest`) against the stored
ones and replays every witness policy with `replay_witnesses`. It prints one
line per mismatch and a summary, and exits 1 on any mismatch. It only reads
perfbench/.

The summary ends with an identity digest: one sha256 over every stage's exit
code, full stdout and full stderr, in query order. Two trees that print the
same digest give byte-identical CLI output on the whole pool, witness
policies included, where equal answer digests only show equal answers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from common import POOL, answer_digest, replay_witnesses  # noqa: E402
from mvmdp import cli  # noqa: E402


def run_stage(argv, stdin_text: str) -> tuple:
    """(exit code, stdout, stderr) of one CLI call reading stdin_text."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_query(workload: str, spec: dict, identity) -> str | None:
    """None if the query answers as stored, else the reason it does not.
    Each stage's exit code, stdout and stderr go into the identity hash."""
    instance = spec["instance"]
    path = None if instance is None else POOL / workload / f"{instance}.json"
    stdout = ""
    for argv in spec["stages"]:
        argv = [str(path) if a == "{instance}" else a for a in argv]
        code, stdout, stderr = run_stage(argv, stdout)
        identity.update(json.dumps([code, stdout, stderr]).encode() + b"\n")
    if code != spec["exit"]:
        return f"exit {code}, expected {spec['exit']}: {stderr.strip()}"
    if answer_digest(stdout) != spec["digest"]:
        return "exact answer differs from the reference"
    text = spec["mdp_json"] if path is None else path.read_text(encoding="utf-8")
    return replay_witnesses(argv[0], stdout, text)


def main() -> int:
    start = time.perf_counter()
    count = 0
    mismatches = 0
    identity = hashlib.sha256()
    for pool in sorted(POOL.glob("*/queries.json")):
        workload = pool.parent.name
        queries = json.loads(pool.read_text(encoding="utf-8"))["queries"]
        for qid, spec in sorted(queries.items()):
            count += 1
            problem = check_query(workload, spec, identity)
            if problem:
                mismatches += 1
                print(f"{workload}/{qid}: {problem}")
    elapsed = time.perf_counter() - start
    print(
        f"{count} queries, {mismatches} mismatches, {elapsed:.1f} s,"
        f" identity {identity.hexdigest()}"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
