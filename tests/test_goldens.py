"""Frozen nodal values at report_index for coarse levels of every benchmark,
and frozen Markov-chain results under one fixed policy on three of them.

Refactors of the location, classification or apply layers must reproduce
these values to GOLDEN_ATOL.  Freezing writes only the entries that
goldens.json lacks, from the current solver, and leaves every entry it has
as it is:

    PYTHONPATH=src python tests/test_goldens.py --freeze

To regenerate an entry, in a change that means to alter the solver's
outputs, delete it from goldens.json first.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hjbsl.cli import build_mesh_for
from hjbsl.markov import estimate_sojourn, policy_cost
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

# chain cases, on CASES names: the policy (j % n_a, 0) at every step, costs
# from two vertices, SEED for every draw
CHAIN_CASES = ("test1_eps005", "test2_oblique", "test3_exit")
SEED = 3
MC_PATHS = 50
SOJOURN_PATHS = 20


def _setup(case):
    name, eps, dx, dt = CASES[case]
    bench = get_benchmark(name, eps=eps)
    return bench, build_mesh_for(bench, dx), SchemeParams(dt=dt, c_bar=bench.c_bar)


def _solve(case):
    bench, mesh, params = _setup(case)
    vf = sweep(bench.problem, mesh, params)
    return vf.values[vf.report_index]


def _chain(case):
    """[exact cost, MC mean, MC stderr] from vertices 0 and n // 2, then
    the sojourn's (mean, stderr)."""
    bench, mesh, params = _setup(case)
    pr = bench.problem
    na = len(pr.controls_a)

    def policy(m, j):
        return (j % na, 0)

    out = []
    for i in (0, mesh.n_vertices // 2):
        out.append(policy_cost(pr, mesh, policy, 0, i, params))
        out.extend(policy_cost(pr, mesh, policy, 0, i, params, mode="monte_carlo",
                               n_paths=MC_PATHS, seed=SEED))
    out.extend(estimate_sojourn(pr, mesh, policy, params, SOJOURN_PATHS, seed=SEED))
    return np.array(out)


def freeze():
    """Add the nodal and chain entries that GOLDEN_PATH lacks; the entries
    it has are written back as they were read, bit for bit."""
    data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for case in CASES:
        if case not in data:
            data[case] = _solve(case).tolist()
    chain = data.setdefault("chain", {})
    for case in CHAIN_CASES:
        if case not in chain:
            chain[case] = _chain(case).tolist()
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_values(case):
    expected = np.array(json.loads(GOLDEN_PATH.read_text())[case])
    got = _solve(case)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= GOLDEN_ATOL


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_golden_chain_results(case):
    expected = np.array(json.loads(GOLDEN_PATH.read_text())["chain"][case])
    got = _chain(case)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= GOLDEN_ATOL


def test_freeze_adds_missing_entries_and_keeps_the_rest(tmp_path, monkeypatch):
    """Freezing a copy of the goldens that lacks a nodal and a chain case
    adds those two from the solver and leaves every other entry equal to
    the committed one, float for float."""
    kept = json.loads(GOLDEN_PATH.read_text())
    del kept["test1_eps0"], kept["chain"]["test1_eps005"]
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(kept, indent=1) + "\n")
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_PATH", path)
    freeze()
    frozen = json.loads(path.read_text())
    assert frozen.pop("test1_eps0") == _solve("test1_eps0").tolist()
    assert frozen["chain"].pop("test1_eps005") == _chain("test1_eps005").tolist()
    assert frozen == kept


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python tests/test_goldens.py --freeze")
    freeze()
