"""The gmpy2 and Fraction rational backends give identical answers.

rationals.Rat is gmpy2's mpq when gmpy2 imports and fractions.Fraction
otherwise, chosen once at import. Each backend therefore runs in its own
interpreter: the Fraction side blocks the gmpy2 import before mvmdp loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

# Prints the backend type and, for a few corpus instances, the exact and
# pruned root polygons and one witness LP at the least-variance vertex.
SCRIPT = r"""
import json
import sys

if sys.argv[1] == "fraction":
    sys.modules["gmpy2"] = None  # makes "from gmpy2 import mpq" fail

import corpus
from mvmdp.frequency import mean_fixed_var_bounded
from mvmdp.rationals import Rat, rat_str
from mvmdp.setdp import compute_pmq, min_variance


def poly(p):
    return [[rat_str(x), rat_str(y)] for x, y in p.vertices]


answers = []
mdps = corpus.integer_instances(5) + corpus.rational_instances(3)
mdps.append(corpus.deep_instances(1)[0][0])
for mdp in mdps:
    exact = compute_pmq(mdp)
    value, (m, q) = min_variance(exact)
    ok, z = mean_fixed_var_bounded(mdp, m, value)
    answers.append({
        "exact": poly(exact),
        "pruned": poly(compute_pmq(mdp, prune_eps=Rat(1, 4))),
        "witness": ok and sorted(
            [t, s, rat_str(w), a, rat_str(mass)]
            for (t, s, w, a), mass in z.z_sa.items()
        ),
    })
print(json.dumps({"backend": Rat.__name__, "answers": answers}))
"""


def _answers(backend: str) -> dict:
    paths = [
        str(HERE.parent / "src"), str(HERE), os.environ.get("PYTHONPATH")
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, backend],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout)


def test_gmpy2_and_fraction_backends_agree():
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        pytest.skip(
            "gmpy2 is not installed, so only the Fraction backend can run"
        )
    mpq = _answers("gmpy2")
    fraction = _answers("fraction")
    assert mpq["backend"] == "mpq"
    assert fraction["backend"] == "Fraction"
    assert all(a["witness"] for a in fraction["answers"])
    assert mpq["answers"] == fraction["answers"]
