import importlib
import importlib.util
from pathlib import Path

from mvmdp.fixtures import offset_chain
from mvmdp.lp import LpProblem
from mvmdp.model import per_node, per_state, reach
from mvmdp.rationals import Rat
from mvmdp.setdp import backward_walk, compute_pmq

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # A renamed target would blank every per-layer metric built on its span.
    tracer = _tracer()
    names = [(module, attr) for module, attr, _ in tracer.TARGETS.values()]
    names.append(tracer.PIVOT)
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _described_calls():
    """Arguments for one call of each target the tracer describes, on the
    offset chain; backward_step gets the last step, as the walk makes it."""
    mdp = offset_chain()
    stages = dict(backward_walk(mdp))
    last = mdp.horizon - 1
    keys = reach(mdp, per_state)[last]
    return mdp, {
        "model.augment": (mdp,),
        "frequency.hull": (mdp,),
        "lp.solve": (LpProblem(1, {0: 1}, [({0: 1}, 1)]),),
        "geometry.prune": (compute_pmq(mdp), Rat(1, 16)),
        "setdp.compute_pmq": (mdp,),
        "setdp.backward_step": (mdp, last, stages[mdp.horizon], keys, per_state),
        "tradeoff.v_star": (mdp, Rat(1, 4), Rat(1, 4)),
        "tradeoff.v_hat": (mdp, Rat(1, 4), Rat(1, 4)),
        "games.enumerate": (mdp, "TS"),
    }


def test_every_describe_reads_its_targets_real_output():
    # A describe that no longer fits its target's output would crash every
    # traced query that calls the target.
    tracer = _tracer()
    mdp, calls = _described_calls()
    described = {
        name for name, (_, _, describe) in tracer.TARGETS.items() if describe
    }
    assert described == set(calls)
    attrs = {}
    for name in sorted(described):
        module, attr, describe = tracer.TARGETS[name]
        args = calls[name]
        out = getattr(importlib.import_module(module), attr)(*args)
        attrs[name] = describe(args, out)
        assert isinstance(attrs[name], dict), name
    nodes = sum(map(len, reach(mdp, per_node)))
    assert attrs["model.augment"] == {"nodes": nodes}
