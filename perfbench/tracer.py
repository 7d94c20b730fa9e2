"""Traced launcher: one mvmdp CLI query with a span around each layer call.

    python perfbench/tracer.py SPANS.json <mvmdp cli arguments...>

It wraps the public entry points of each mvmdp layer, plus `lp._bland` (one
span per simplex phase) and `lp._pivot` (a pivot counter), in every mvmdp
module that binds them, so `mvmdp.cli.compute_pmq` and
`mvmdp.frequency.solve` are traced like the definitions themselves. Then it
calls `mvmdp.cli.run(argv)` and exits with its code. Spans stay in memory and
are written to SPANS.json once, at exit. Nothing under src/ changes.

Each name is resolved at start-up. A name that no longer exists is reported
in SPANS.json under "missing", with a warning on stderr; the query still
runs, untraced at that point.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# span name -> (module, attribute, attributes recorded from (args, result))
TARGETS = {
    "cli.run": ("mvmdp.cli", "run", None),
    "serialize.loads": ("mvmdp.serialize", "loads", None),
    "model.augment": (
        "mvmdp.model", "augment", lambda a, out: {"nodes": out.node_count}),
    "model.evaluate_policy": ("mvmdp.model", "evaluate_policy", None),
    "frequency.skeleton": ("mvmdp.frequency", "build_polytope", None),
    "frequency.hull": (
        "mvmdp.frequency", "terminal_lower_hull",
        lambda a, out: {"vertices": len(out)}),
    "frequency.exact_pair_feasible": (
        "mvmdp.frequency", "exact_pair_feasible", None),
    "frequency.mean_fixed_var_bounded": (
        "mvmdp.frequency", "mean_fixed_var_bounded", None),
    "lp.solve": (
        "mvmdp.lp", "solve",
        lambda a, out: {"rows": len(a[0].rows), "cols": a[0].num_vars,
                        "status": out.status.value}),
    "lp.phase": ("mvmdp.lp", "_bland", None),
    "geometry.minkowski": ("mvmdp.geometry", "minkowski_sum", None),
    "geometry.hull": ("mvmdp.geometry", "hull_of_union", None),
    "geometry.prune": (
        "mvmdp.geometry", "prune_polygon",
        lambda a, out: {"in": len(a[0].vertices), "kept": len(out.vertices)}),
    "setdp.compute_pmq": (
        "mvmdp.setdp", "compute_pmq",
        lambda a, out: {"vertices": len(out.vertices)}),
    "setdp.backward_step": (
        "mvmdp.setdp", "backward_step",
        lambda a, out: {
            "polygons": len(out),
            "states": len({key[0] for key in out}),
            "max_vertices": max(
                (len(p.vertices) for p in out.values()), default=0),
        }),
    "tradeoff.v_star": (
        "mvmdp.tradeoff", "approximate_v_star",
        lambda a, out: {"cells": len(out.qhat)}),
    "tradeoff.v_hat": (
        "mvmdp.tradeoff", "general_reward_v_hat",
        lambda a, out: {"cells": len(out.qhat)}),
    "games.zero_variance": ("mvmdp.games", "zero_variance_values", None),
    "games.enumerate": (
        "mvmdp.games", "enumerate_policies",
        lambda a, out: {"policies": len(out)}),
    "games.separation": ("mvmdp.games", "class_separation_report", None),
}
PIVOT = ("mvmdp.lp", "_pivot")


class Tracer:
    """Spans as [name, parent index, start ns, end ns, attributes]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = {}

    def wrap(self, name, fn, describe):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if describe is not None:
                attrs = describe(args, out)
                rec[4] = attrs if rec[4] is None else {**rec[4], **attrs}
            return out

        return traced

    def count_pivots(self, fn):
        spans, stack = self.spans, self.stack

        def counted(*args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                attrs = rec[4] if rec[4] is not None else {}
                rec[4] = attrs
                if rec[0] == "lp.solve":
                    # Pivots before the first phase are the warm start; the
                    # ones after it drive artificials out of the basis.
                    key = "cleanup" if attrs.get("phases") else "warm"
                else:
                    key = "pivots"
                attrs[key] = attrs.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def note_phase(self, fn):
        """Mark the enclosing lp.solve span once a phase has started."""
        spans, stack = self.spans, self.stack

        def phase(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "lp.solve":
                rec = spans[stack[-1]]
                attrs = rec[4] if rec[4] is not None else {}
                attrs["phases"] = attrs.get("phases", 0) + 1
                rec[4] = attrs
            return fn(*args, **kwargs)

        return phase

    def install(self):
        import mvmdp  # noqa: F401  (loads every layer module)

        for name, (module, attr, describe) in TARGETS.items():
            original = self._resolve(name, module, attr)
            if original is None:
                continue
            wrapped = self.wrap(name, original, describe)
            if name == "lp.phase":
                wrapped = self.note_phase(wrapped)
            self._rebind(original, wrapped)
        original = self._resolve("lp.pivot", *PIVOT)
        if original is not None:
            self._rebind(original, self.count_pivots(original))

    def _resolve(self, name, module, attr):
        try:
            return getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing[name] = f"{module}.{attr} not found"
            print(
                f"perfbench tracer: warning: {module}.{attr} not found; "
                f"metrics built on span {name} read missing",
                file=sys.stderr,
            )
            return None

    @staticmethod
    def _rebind(original, replacement):
        """Replace the function in every mvmdp module that binds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "mvmdp" or modname.startswith("mvmdp.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "missing": self.missing},
                handle,
                separators=(",", ":"),
            )


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import mvmdp.cli

    code = 2
    try:
        code = mvmdp.cli.run(cli_argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
