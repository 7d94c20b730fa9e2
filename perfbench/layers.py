"""Per-layer metrics from the span files that perfbench/tracer.py writes.

One span file per traced process. Times are span durations summed over the
traced pass; a layer's self time is its spans' duration minus the part its
child spans cover. Counts are exact and repeat from run to run, because the
simplex uses Bland's rule and every input is pinned.
"""

from __future__ import annotations

import json
from collections import defaultdict

NS = 1e-9

# metric -> (unit, spans it is built on); a metric whose span could not be
# resolved by the tracer reads missing, never 0.
PER_LAYER = {
    "lp.solve_s": ("s", ["lp.solve"]),
    "lp.solves": ("count", ["lp.solve"]),
    "lp.phase1_s": ("s", ["lp.solve", "lp.phase"]),
    "lp.phase2_s": ("s", ["lp.solve", "lp.phase"]),
    "lp.pivots_phase1": ("count", ["lp.solve", "lp.phase", "lp.pivot"]),
    "lp.pivots_phase2": ("count", ["lp.solve", "lp.phase", "lp.pivot"]),
    "lp.pivots_warm": ("count", ["lp.solve", "lp.phase", "lp.pivot"]),
    "lp.s_per_pivot": ("s", ["lp.solve", "lp.phase", "lp.pivot"]),
    "lp.rows": ("count", ["lp.solve"]),
    "lp.cols": ("count", ["lp.solve"]),
    "frequency.skeleton_s": ("s", ["frequency.skeleton"]),
    "frequency.skeleton_builds": ("count", ["frequency.skeleton"]),
    "frequency.skeleton_builds_per_query": ("ratio", ["frequency.skeleton"]),
    "frequency.hull_s": ("s", ["frequency.hull"]),
    "frequency.hull_vertices": ("count", ["frequency.hull"]),
    "frequency.lp_solves_per_hull_vertex": (
        "ratio", ["frequency.hull", "lp.solve"]),
    "geometry.minkowski_s": ("s", ["geometry.minkowski"]),
    "geometry.minkowski_calls": ("count", ["geometry.minkowski"]),
    "geometry.hull_s": ("s", ["geometry.hull"]),
    "geometry.hull_calls": ("count", ["geometry.hull"]),
    "geometry.prune_s": ("s", ["geometry.prune"]),
    "geometry.prune_kept_ratio": ("ratio", ["geometry.prune"]),
    "setdp.compute_pmq_s": ("s", ["setdp.compute_pmq"]),
    "setdp.polygons_built": ("count", ["setdp.backward_step"]),
    "setdp.polygons_per_state": ("ratio", ["setdp.backward_step"]),
    "setdp.stage_vertices_max": ("count", ["setdp.backward_step"]),
    "setdp.root_vertices": ("count", ["setdp.compute_pmq"]),
    "model.augment_s": ("s", ["model.augment"]),
    "model.augment_calls": ("count", ["model.augment"]),
    "model.augment_nodes": ("count", ["model.augment"]),
    "model.evaluate_policy_s": ("s", ["model.evaluate_policy"]),
    "model.evaluate_policy_calls": ("count", ["model.evaluate_policy"]),
    "tradeoff.grid_s": ("s", ["tradeoff.v_star", "tradeoff.v_hat"]),
    "tradeoff.grid_cells": ("count", ["tradeoff.v_star", "tradeoff.v_hat"]),
    "games.zero_variance_s": ("s", ["games.zero_variance"]),
    "games.enumerate_s": ("s", ["games.enumerate"]),
    "games.policies_enumerated": ("count", ["games.enumerate"]),
    "games.separation_lp_solves": ("count", ["games.separation", "lp.solve"]),
    "cli.import_ms": ("ms", []),
    "cli.self_s": ("s", ["cli.run"]),
    "serialize.loads_s": ("s", ["serialize.loads"]),
    "serialize.loads_calls": ("count", ["serialize.loads"]),
    "trace.overhead_frac": ("ratio", []),
}


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _ratio(num, den):
    return num / den if den else 0.0


class _Doc:
    """Index over one process's spans."""

    def __init__(self, doc):
        self.spans = doc["spans"]
        self.child_ns = [0] * len(self.spans)
        self.children = [[] for _ in self.spans]
        for i, (_, parent, t0, t1, _) in enumerate(self.spans):
            if parent >= 0:
                self.child_ns[parent] += t1 - t0
                self.children[parent].append(i)

    def dur(self, i):
        return self.spans[i][3] - self.spans[i][2]

    def self_ns(self, i):
        return self.dur(i) - self.child_ns[i]

    def attrs(self, i):
        return self.spans[i][4] or {}

    def named(self, *names):
        return [i for i, rec in enumerate(self.spans) if rec[0] in names]

    def under(self, i, name):
        parent = self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False


def per_layer(docs: list) -> tuple:
    """(values, missing) over the span documents of one traced pass."""
    missing_spans = {}
    for doc in docs:
        missing_spans.update(doc.get("missing", {}))
    t = defaultdict(int)
    for raw in docs:
        d = _Doc(raw)
        for i in d.named("lp.solve"):
            a = d.attrs(i)
            phases = [c for c in d.children[i] if d.spans[c][0] == "lp.phase"]
            if len(phases) == 1:
                # A lone phase is phase 1 if it proved infeasibility, else the
                # warm start covered every row and only phase 2 ran.
                p1, p2 = (phases[0], None) if a.get("status") == "infeasible" \
                    else (None, phases[0])
            elif phases:
                p1, p2 = phases[0], phases[-1]
            else:
                p1 = p2 = None
            t["solve"] += d.dur(i)
            t["solves"] += 1
            t["rows"] += a.get("rows", 0)
            t["cols"] += a.get("cols", 0)
            t["warm"] += a.get("warm", 0)
            t["piv1"] += a.get("cleanup", 0)
            if p1 is not None:
                t["p1"] += d.dur(p1)
                t["piv1"] += d.attrs(p1).get("pivots", 0)
            if p2 is not None:
                t["p2"] += d.dur(p2)
                t["piv2"] += d.attrs(p2).get("pivots", 0)
            if d.under(i, "frequency.hull"):
                t["hull_solves"] += 1
            if d.under(i, "games.separation"):
                t["sep_solves"] += 1
        builds = d.named("frequency.skeleton")
        t["skel"] += sum(d.dur(i) for i in builds)
        t["builds"] += len(builds)
        t["build_queries"] += bool(builds)
        for i in d.named("frequency.hull"):
            t["hull"] += d.dur(i)
            t["hull_vertices"] += d.attrs(i).get("vertices", 0)
        for key, name in (("mink", "geometry.minkowski"),
                          ("ghull", "geometry.hull"),
                          ("aug", "model.augment"),
                          ("ev", "model.evaluate_policy"),
                          ("zv", "games.zero_variance"),
                          ("loads", "serialize.loads")):
            spans = d.named(name)
            t[key] += sum(d.dur(i) for i in spans)
            t[key + "_calls"] += len(spans)
        for i in d.named("geometry.prune"):
            t["prune"] += d.dur(i)
            t["prune_in"] += d.attrs(i).get("in", 0)
            t["prune_kept"] += d.attrs(i).get("kept", 0)
        for i in d.named("setdp.compute_pmq"):
            t["pmq"] += d.dur(i)
            t["pmq_calls"] += 1
            t["root"] += d.attrs(i).get("vertices", 0)
        for i in d.named("setdp.backward_step"):
            a = d.attrs(i)
            t["polys"] += a.get("polygons", 0)
            t["states"] += a.get("states", 0)
            t["stage_max"] = max(t["stage_max"], a.get("max_vertices", 0))
        for i in d.named("model.augment"):
            t["nodes"] += d.attrs(i).get("nodes", 0)
        grids = d.named("tradeoff.v_star", "tradeoff.v_hat")
        for i in grids:
            t["grid"] += d.self_ns(i)
            if not d.under(i, "tradeoff.v_hat"):
                t["cells"] += d.attrs(i).get("cells", 0)
        for i in d.named("games.enumerate"):
            t["enum"] += d.dur(i)
            t["policies"] += d.attrs(i).get("policies", 0)
        t["cli_self"] += sum(d.self_ns(i) for i in d.named("cli.run"))
    pivots = t["piv1"] + t["piv2"] + t["warm"]
    values = {
        "lp.solve_s": t["solve"] * NS,
        "lp.solves": t["solves"],
        "lp.phase1_s": t["p1"] * NS,
        "lp.phase2_s": t["p2"] * NS,
        "lp.pivots_phase1": t["piv1"],
        "lp.pivots_phase2": t["piv2"],
        "lp.pivots_warm": t["warm"],
        "lp.s_per_pivot": _ratio(t["solve"] * NS, pivots),
        "lp.rows": _ratio(t["rows"], t["solves"]),
        "lp.cols": _ratio(t["cols"], t["solves"]),
        "frequency.skeleton_s": t["skel"] * NS,
        "frequency.skeleton_builds": t["builds"],
        "frequency.skeleton_builds_per_query": _ratio(
            t["builds"], t["build_queries"]),
        "frequency.hull_s": t["hull"] * NS,
        "frequency.hull_vertices": t["hull_vertices"],
        "frequency.lp_solves_per_hull_vertex": _ratio(
            t["hull_solves"], t["hull_vertices"]),
        "geometry.minkowski_s": t["mink"] * NS,
        "geometry.minkowski_calls": t["mink_calls"],
        "geometry.hull_s": t["ghull"] * NS,
        "geometry.hull_calls": t["ghull_calls"],
        "geometry.prune_s": t["prune"] * NS,
        "geometry.prune_kept_ratio": _ratio(t["prune_kept"], t["prune_in"]),
        "setdp.compute_pmq_s": t["pmq"] * NS,
        "setdp.polygons_built": t["polys"],
        "setdp.polygons_per_state": _ratio(t["polys"], t["states"]),
        "setdp.stage_vertices_max": t["stage_max"],
        "setdp.root_vertices": _ratio(t["root"], t["pmq_calls"]),
        "model.augment_s": t["aug"] * NS,
        "model.augment_calls": t["aug_calls"],
        "model.augment_nodes": t["nodes"],
        "model.evaluate_policy_s": t["ev"] * NS,
        "model.evaluate_policy_calls": t["ev_calls"],
        "tradeoff.grid_s": t["grid"] * NS,
        "tradeoff.grid_cells": t["cells"],
        "games.zero_variance_s": t["zv"] * NS,
        "games.enumerate_s": t["enum"] * NS,
        "games.policies_enumerated": t["policies"],
        "games.separation_lp_solves": t["sep_solves"],
        "cli.self_s": t["cli_self"] * NS,
        "serialize.loads_s": t["loads"] * NS,
        "serialize.loads_calls": t["loads_calls"],
    }
    missing = {}
    for metric, (_, needs) in PER_LAYER.items():
        gone = [missing_spans[s] for s in needs if s in missing_spans]
        if gone:
            missing[metric] = "; ".join(gone)
            values.pop(metric, None)
    return values, missing
