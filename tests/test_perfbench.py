import importlib
import importlib.util
from pathlib import Path

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
