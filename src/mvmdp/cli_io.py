"""What every CLI handler shares: exit codes, the usage error, reading the
input and writing the answer.

`mvmdp.cli` and `mvmdp.cli_engines` both import these from here, never one
from the other: under `python -m mvmdp.cli` the dispatcher runs as
`__main__`, and importing `mvmdp.cli` back would compile it a second time,
with a second `_UsageError` class that its `run` would not catch.
"""

from __future__ import annotations

import json
import sys

from .model import Mdp
from .rationals import float_twin, rat_str
from .serialize import loads

OK = 0
NO = 1
BAD = 2


class _UsageError(Exception):
    pass


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
