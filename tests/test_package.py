"""The package root: lazy names with the surface of eager imports."""

import contextlib
import importlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mvmdp

ROOT = Path(__file__).resolve().parents[1]


def _fresh(script: str):
    """Run script in a fresh interpreter; return what it prints as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src")}, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout)


def test_bare_import_loads_no_submodule():
    loaded = _fresh(
        "import sys, json, mvmdp\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('mvmdp'))))\n"
    )
    assert loaded == ["mvmdp"]


def test_submodules_resolve_as_attributes():
    # As when the package imported every module: `mvmdp.games` works after
    # a bare `import mvmdp`, and loads that module alone with its imports.
    loaded = _fresh(
        "import sys, json, mvmdp\n"
        "assert mvmdp.lp.solve is sys.modules['mvmdp.lp'].solve\n"
        "assert 'mvmdp.games' not in sys.modules\n"
        "assert mvmdp.games.zero_variance_values.__module__ == 'mvmdp.games'\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('mvmdp'))))\n"
    )
    assert "mvmdp.frequency" not in loaded
    assert {"mvmdp.games", "mvmdp.lp"} <= set(loaded)


def test_star_import_binds_every_public_name():
    bound = _fresh(
        "import json\n"
        "from mvmdp import *\n"
        "import mvmdp\n"
        "print(json.dumps([n for n in mvmdp.__all__ if n not in globals()]))\n"
    )
    assert bound == []


def test_every_public_name_is_its_home_modules_object():
    assert len(mvmdp.__all__) == len(set(mvmdp.__all__))
    for module, names in mvmdp._EXPORTS.items():
        home = importlib.import_module(f"mvmdp.{module}")
        for name in names:
            value = getattr(mvmdp, name)
            assert value is getattr(home, name), name
            defined_in = getattr(value, "__module__", None) or ""
            if defined_in.startswith("mvmdp"):  # not Rat, ints or tuples
                assert defined_in == home.__name__, name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mvmdp.no_such_name
    assert not hasattr(mvmdp, "compute_pmq_fast")
    with pytest.raises(ImportError):
        from mvmdp import no_such_name  # noqa: F401


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(mvmdp))
    assert set(mvmdp.__all__) <= listed
    assert {"setdp", "games", "lp", "__version__"} <= listed


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(
        r"## Library quick start\n\n```python\n(.*?)```", readme, re.S
    )
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    assert out.getvalue() == "3/4\n"
