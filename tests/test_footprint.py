"""What a fresh process loads: a 1D solve imports no part of scipy, and
only a triangulated mesh loads scipy.spatial."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hjbsl

SRC = str(Path(hjbsl.__file__).resolve().parent.parent)

# the scipy modules loaded so far, comma-separated, or "-" for none
LOADED = 'print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")) or "-")\n'
# every 1D entry a solve goes through: import, mesh build, sweep, one
# query, an exact policy cost and a sojourn estimate
ONE_D = ("import sys\n"
         "import hjbsl\n" + LOADED +
         "from hjbsl.markov import estimate_sojourn, policy_cost\n"
         "bench = hjbsl.get_benchmark('test1_eps', eps=0.05)\n"
         "mesh = hjbsl.build_interval_mesh(0.0, 1.0, 0.1)\n"
         "params = hjbsl.SchemeParams(dt=0.1, c_bar=bench.c_bar)\n"
         "vf = hjbsl.sweep(bench.problem, mesh, params)\n"
         "vf(0.0, [0.5])\n"
         "policy_cost(bench.problem, mesh, lambda m, j: (0, 0), 0, 5, params)\n"
         "estimate_sojourn(bench.problem, mesh, lambda m, j: (0, 0), params, n_paths=4)\n"
         + LOADED)
TWO_D = ("import sys\n"
         "import hjbsl\n"
         "hjbsl.build_disk_mesh((0.0, 0.0), 1.0, 0.5)\n" + LOADED)


def scipy_loaded(code: str) -> list:
    """The scipy modules in sys.modules at each print of code, as a list of
    names per print, run in a fresh interpreter that imports hjbsl from this
    source tree."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return [[] if line == "-" else line.split(",") for line in run.stdout.split()]


@pytest.mark.parametrize("code, loaded", [(ONE_D, [False, False]), (TWO_D, [True])],
                         ids=["interval-solve", "disk-mesh"])
def test_scipy_spatial_loads_only_when_a_mesh_is_triangulated(code, loaded):
    assert ["scipy.spatial" in names for names in scipy_loaded(code)] == loaded


def test_import_and_a_1d_solve_load_no_scipy():
    # after import hjbsl, and after the 1D build, sweep, query and chain calls
    assert scipy_loaded(ONE_D) == [[], []]
