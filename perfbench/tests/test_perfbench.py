"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hjbsl  # noqa: E402

import freeze  # noqa: E402
import gate  # noqa: E402
import harness  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

TINY_DISK = dataclasses.replace(
    wl.WORKLOADS["disk_oblique"], name="tiny_disk", dx=0.25, dt=0.25,
    n_query=40, starts=((0.0, 0.0), (0.5, 0.3)), mc_paths=200,
    sojourn_paths=50, e_inf_band=(0.0, 1.0))
TINY_RECT = dataclasses.replace(
    wl.WORKLOADS["rect_exit"], name="tiny_rect", dx=0.25, dt=0.25,
    n_query=40, starts=((0.0, 0.0),), mc_paths=200, sojourn_paths=50)


def _benchmark_names(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


@pytest.fixture(scope="module")
def disk_ref():
    return freeze.reference(hjbsl, TINY_DISK)


def test_untraced_and_traced_runs_end_to_end(disk_ref):
    run = harness.Run(hjbsl, TINY_DISK, 5, disk_ref, tr.NullTracer())
    metrics, _ = harness.run_untraced(run, 0.0)
    assert run.ops.attempted > 0 and run.ops.failed == 0, run.ops.messages
    assert set(metrics) == _benchmark_names("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())

    run = harness.Run(hjbsl, TINY_DISK, 6, disk_ref, tr.Tracer())
    metrics, _ = harness.run_traced(run, 0.0)
    assert run.ops.failed == 0, run.ops.messages
    assert set(metrics) == _benchmark_names("per_layer")
    assert metrics["mesh.locate_per_point"][0] == 2.0
    assert metrics["problems.f_per_node_step"][0] == 1.0
    assert metrics["markov.policy_cost.calls"][0] == 2 * len(TINY_DISK.starts)


def test_perturbed_values_fail_the_gate(disk_ref):
    bad = dict(disk_ref, values=list(disk_ref["values"]))
    bad["values"][3] += 1e-6
    run = harness.Run(hjbsl, TINY_DISK, 5, bad, tr.NullTracer())
    run.build()
    before = run.ops.failed
    run.solve()
    assert run.ops.failed == before + 1
    assert run.ops.messages[-1].startswith("sweep: nodal values")


def test_traced_sweep_is_bit_identical():
    bench, mesh = wl.make_problem(hjbsl, TINY_RECT, TINY_RECT.dx)
    params = hjbsl.SchemeParams(dt=TINY_RECT.dt, c_bar=bench.c_bar)
    plain = hjbsl.sweep(bench.problem, mesh, params).values
    tracer = tr.Tracer()
    harness.install_boundaries(tracer, bench.problem)
    try:
        traced = hjbsl.sweep(bench.problem, mesh, params).values
    finally:
        tracer.restore()
    assert np.array_equal(plain, traced)
    assert tracer.stats["scheme.classify"].extra["dirichlet_hits"] > 0
    assert not tracer.absent
    assert not hasattr(hjbsl.mesh.Mesh.try_locate, "__wrapped__")


def test_missing_boundary_is_reported_absent():
    tracer = tr.Tracer()
    assert not tracer.patch(hjbsl.scheme, "no_such_function", "scheme.gone")
    assert tracer.absent == {"scheme.gone"}


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rect_exit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
