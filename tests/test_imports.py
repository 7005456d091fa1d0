"""What ``import concentra, concentra.cli`` loads: NumPy, orjson and
SciPy's HiGHS core, loaded from its extension file, but no SciPy
subpackage. Each case runs in a fresh interpreter, since this one has
SciPy loaded already."""
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

UNUSED = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse")

LP_SOLVES = """
from concentra import DiscreteMeasure, FiniteMetricSpace, wasserstein_exact
space = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
mu = DiscreteMeasure((0, 1), [0.5, 0.5], space=space)
nu = DiscreteMeasure((1, 2), [0.25, 0.75], space=space)
value, plan = wasserstein_exact(mu, nu, 2.0)
assert abs(value**2 - 1.75) <= 1e-12, value  # the monotone plan's cost
"""


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_import_loads_no_scipy_subpackage_and_linprog_shares_the_highs_core():
    _run(f"""
import sys
import concentra, concentra.cli
from concentra import transport
loaded = [m for m in {UNUSED!r} if m in sys.modules]
assert not loaded, loaded
core = sys.modules["scipy.optimize._highspy._core"]
assert transport._highs is core
{LP_SOLVES}
assert not [m for m in {UNUSED!r} if m in sys.modules]
import scipy.optimize
from scipy.optimize import linprog
assert sys.modules["scipy.optimize._highspy._core"] is core
assert transport.linprog is scipy.optimize.linprog
assert "linprog" in vars(transport)  # cached, so the bench tracer can rebind it
{LP_SOLVES}
res = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=(0, None), method="highs")
assert res.status == 0 and abs(res.fun - 1.0) <= 1e-12, res
""")


def test_an_already_imported_highs_core_is_reused():
    _run(f"""
import sys
from scipy.optimize._highspy import _core
from concentra import transport
assert transport._highs is _core
{LP_SOLVES}
""")


def test_plain_import_when_no_extension_file_matches():
    _run(f"""
import importlib.machinery, sys
importlib.machinery.EXTENSION_SUFFIXES[:] = [".no-such-suffix"]
from concentra import transport
assert "scipy.optimize" in sys.modules  # the fallback runs the package import
assert transport._highs is sys.modules["scipy.optimize._highspy._core"]
{LP_SOLVES}
""")


def test_import_loads_no_numpy_polynomial_module_beyond_numpy_itself():
    """No route needs ``numpy.polynomial``: the package loads none of its
    modules beyond those a bare ``import numpy`` loads (none on NumPy 2,
    all of them on NumPy 1.24, which imports it eagerly)."""
    _run("""
import sys
import numpy

def polynomial():
    return {m for m in sys.modules if m == "numpy.polynomial" or m.startswith("numpy.polynomial.")}

base = polynomial()
import concentra, concentra.cli
extra = sorted(polynomial() - base)
assert not extra, extra
""")
