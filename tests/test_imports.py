"""Which parts of scipy each entry point loads.

Every case runs a fresh interpreter on the package's ``src``, so modules
imported by other tests do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import MODELS

SRC = Path(__file__).resolve().parent.parent / "src"
BATTERY = str(MODELS / "battery.json")


def scipy_modules_after(code: str) -> set[str]:
    """Names of the scipy modules loaded once ``code`` has run."""
    script = code + """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def cli_calls(*argvs) -> str:
    """Code that runs ``cli.main`` on each argv and checks it exits 0."""
    lines = ["import contextlib, io", "from hpng import cli"]
    for argv in argvs:
        lines += [
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert cli.main({list(argv)!r}) == 0, {list(argv)!r}",
        ]
    return "\n".join(lines) + "\n"


def test_importing_hpng_loads_no_scipy():
    assert scipy_modules_after("import hpng, hpng.cli") == set()


def test_commands_on_uniform_and_exponential_delays_load_no_scipy():
    code = cli_calls(
        ["validate", BATTERY],
        ["plt", BATTERY, "--tau-max", "8"],
        ["simulate", BATTERY, "--tau-max", "8", "--time", "4", "--runs", "50"],
        ["transient", BATTERY, "--tau-max", "8", "--time", "4",
         "--method", "direct", "--samples", "2000"],
    )
    assert scipy_modules_after(code) == set()


def test_intervals_route_loads_scipy_special_alone():
    loaded = scipy_modules_after(cli_calls(
        ["transient", BATTERY, "--tau-max", "8", "--time", "4"]))
    assert "scipy.special" in loaded
    assert not any(m.startswith(("scipy.optimize", "scipy.spatial")) for m in loaded)


def test_exact_simplex_route_loads_qhull_alone():
    # Battery regions at tau = 8 reach three dimensions, so the route
    # triangulates through qhull, and scipy.spatial's own imports
    # (scipy.special among them) come with it.  The Grundmann-Moeller rule
    # adds nothing to them: no scipy module beyond what importing qhull
    # loads, and no scipy.optimize.
    loaded = scipy_modules_after(cli_calls(
        ["transient", BATTERY, "--tau-max", "8", "--time", "8", "--method", "simplex"]))
    assert "scipy.spatial" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)
    assert loaded == scipy_modules_after("from scipy.spatial import Delaunay, QhullError")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "hpng", "validate", BATTERY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ok:")
