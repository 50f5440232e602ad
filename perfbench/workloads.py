"""The three sweep workloads, their seeded inputs and exact solutions.

Sizes are fixed; the seed changes only the query points and the Monte Carlo
seed, never the mesh, the time step or the control grid.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    eps: float
    dx: float
    dt: float
    n_query: int
    # Markov-chain phase under a fixed steering feedback: exact and Monte
    # Carlo policy_cost from each start, starting chain_steps before the end
    # of the horizon (None: from step 0), then estimate_sojourn.
    starts: tuple
    chain_steps: int | None
    mc_paths: int
    sojourn_paths: int
    # e_inf against the exact solution must stay in this band (None: the
    # benchmark has no exact solution).
    e_inf_band: tuple | None

    @property
    def warmup_dx(self) -> float:
        """Coarse level swept once before timing (same code paths)."""
        return 2.0 * self.dx


WORKLOADS = {
    # Point location dominates; rotated-normal closed-form projection, no
    # Dirichlet portions.  Middle level of acceptance criterion 4
    # (c_bar = 0.25: 1.56e-1 within a factor 2.5).
    "disk_oblique": Workload(
        name="disk_oblique", benchmark="test2_oblique", eps=0.0,
        dx=0.125, dt=0.125, n_query=1000,
        starts=((0.0, 0.0), (0.5, 0.3), (-0.4, -0.6)), chain_steps=None,
        mc_paths=300, sojourn_paths=300,
        e_inf_band=(1.56e-1 / 2.5, 1.56e-1 * 2.5)),
    # Dirichlet first-crossing classification competes with location; the
    # apply step is cheap because f is cached.  Acceptance criterion 6's
    # configuration.
    "rect_exit": Workload(
        name="rect_exit", benchmark="test3_exit", eps=0.0,
        dx=0.1, dt=0.05, n_query=1000,
        starts=((0.0, 0.0), (0.5, 0.2), (-0.1, -0.3)), chain_steps=None,
        mc_paths=300, sojourn_paths=300,
        e_inf_band=None),
    # The per-step apply and the Python f handle dominate; location is a
    # few percent, so location or geometry changes must predict no change.
    # Finer than acceptance criterion 2's ladder, so e_inf must stay below
    # that ladder's finest band (1.17e-2 at dx = 0.0125, +35%).
    "interval_fine": Workload(
        name="interval_fine", benchmark="test1_eps", eps=0.05,
        dx=0.001, dt=0.001, n_query=4000,
        starts=((0.3,), (0.7,)), chain_steps=50,
        mc_paths=300, sojourn_paths=20,
        e_inf_band=(0.0, 1.35 * 1.17e-2)),
}


def make_problem(hjbsl, w: Workload, dx: float,
                 mesh_span=contextlib.nullcontext()):
    """Problem construction plus mesh build: what a user pays before sweep."""
    bench = hjbsl.get_benchmark(w.benchmark, eps=w.eps)
    dom = bench.problem.domain
    with mesh_span:
        if dom.kind == "interval":
            mesh = hjbsl.build_interval_mesh(dom.a, dom.b, dx)
        elif dom.kind == "disk":
            mesh = hjbsl.build_disk_mesh(dom.center, dom.radius, dx)
        else:
            mesh = hjbsl.build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                                   dom.hole_radius, dx)
    return bench, mesh


def _inside(w: Workload, x) -> bool:
    """Membership in the continuous domain, independent of the solver."""
    if w.benchmark == "test2_oblique":
        return x[0] * x[0] + x[1] * x[1] <= 1.0
    if w.benchmark == "test3_exit":
        return math.hypot(x[0] + 0.5, x[1]) >= 0.2
    return True


def _box(w: Workload):
    if w.benchmark == "test2_oblique":
        return np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    if w.benchmark == "test3_exit":
        return np.array([-1.0, -0.5]), np.array([1.0, 0.5])
    return np.array([0.0]), np.array([1.0])


def query_points(w: Workload, seed: int) -> np.ndarray:
    """Uniform points in the domain by rejection sampling."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    lo, hi = _box(w)
    pts = []
    while len(pts) < w.n_query:
        x = rng.uniform(lo, hi)
        if _inside(w, x):
            pts.append(x)
    return np.array(pts)


def mc_seed(seed: int) -> int:
    """Seed handed to the Monte Carlo diagnostics."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    return int(rng.integers(0, 2**31 - 1))


def _phi_1d(eps: float):
    lp = (1.0 + math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    lm = (1.0 - math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    den = math.exp(lp) - math.exp(lm)
    cp = (math.exp(lm) - 1.0) / (lp * den)
    cm = (1.0 - math.exp(lp)) / (lm * den)
    return lambda x: x + cp * np.exp(lp * x) + cm * np.exp(lm * x)


def exact_values(w: Workload, t: float, vertices: np.ndarray):
    """Exact solution at the vertices, or None when the benchmark has none."""
    if w.benchmark == "test2_oblique":
        return (1.5 - t) * np.sin(vertices[:, 0]) * np.sin(vertices[:, 1])
    if w.benchmark == "test1_eps":
        return 0.5 * (3.0 - t) * _phi_1d(w.eps)(vertices[:, 0])
    return None


def steering_policy(problem, mesh, w: Workload) -> list:
    """Fixed feedback: the control whose drift points closest to a target.

    rect_exit steers to the nearer door, disk_oblique to the centre,
    interval_fine has a single control.
    """
    pairs = []
    for x in mesh.vertices:
        if w.benchmark == "test3_exit":
            target = np.array([-1.0 if x[0] < 0.0 else 1.0, 0.0])
        elif w.benchmark == "test2_oblique":
            target = np.zeros(2)
        else:
            target = np.array([0.5])
        drifts = [np.atleast_1d(problem.mu(0.0, x, a)) for a in problem.controls_a]
        ia = int(np.argmax([float(np.dot(d, target - x)) for d in drifts]))
        pairs.append((ia, 0))
    return pairs


def start_nodes(mesh, w: Workload) -> list:
    return [int(np.argmin(np.linalg.norm(mesh.vertices - np.array(p), axis=1)))
            for p in w.starts]
