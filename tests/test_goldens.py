"""Frozen nodal values at report_index for coarse levels of every benchmark.

Refactors of the location, classification or apply layers must reproduce
these values to GOLDEN_ATOL.  Regenerate only in a change that means to
alter the solver's outputs:

    PYTHONPATH=src python tests/test_goldens.py --freeze
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hjbsl.cli import build_mesh_for
from hjbsl.problems import get_benchmark
from hjbsl.scheme import SchemeParams, sweep

GOLDEN_PATH = Path(__file__).with_name("goldens.json")
GOLDEN_ATOL = 1e-12

# name -> (benchmark, eps, dx, dt); c_bar is the benchmark default
CASES = {
    "test1_eps0": ("test1_eps", 0.0, 0.05, 0.05),
    "test1_eps005": ("test1_eps", 0.05, 0.05, 0.05),
    "test2_neumann": ("test2_neumann", 0.0, 0.25, 0.25),
    "test2_oblique": ("test2_oblique", 0.0, 0.25, 0.25),
    "test3_exit": ("test3_exit", 0.0, 0.2, 0.1),
    # the rect_exit and disk_oblique benchmark workload configurations
    "test3_exit_dx01": ("test3_exit", 0.0, 0.1, 0.05),
    "test2_oblique_dx0125": ("test2_oblique", 0.0, 0.125, 0.125),
}


def _solve(case):
    name, eps, dx, dt = CASES[case]
    bench = get_benchmark(name, eps=eps)
    mesh = build_mesh_for(bench, dx)
    vf = sweep(bench.problem, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
    return vf.values[vf.report_index]


def freeze():
    data = {case: _solve(case).tolist() for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_values(case):
    expected = np.array(json.loads(GOLDEN_PATH.read_text())[case])
    got = _solve(case)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= GOLDEN_ATOL


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python tests/test_goldens.py --freeze")
    freeze()
