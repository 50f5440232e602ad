"""Markov-chain reading of the scheme: transition laws, policy costs, and
brute-force / Monte-Carlo oracles for the backward sweep.

Policies assign to each (step, vertex) a pair of indices into the
discretized control lists.  The chain moves by drawing one of the 2*N_sigma
characteristic branches uniformly and then one of the simplex vertices of
the landing point with its barycentric weight; Dirichlet exits absorb.
Every row of the chain is a row of build_node_table.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, TooLarge
from .mesh import Mesh
from .scheme import (
    NodeTable,
    Problem,
    SchemeParams,
    build_node_table,
    n_steps,
    step_time,
)

@dataclass
class TransitionLaw:
    """Sparse probability row p_{k,i,.}(a,b) over vertex indices."""

    indices: np.ndarray
    probs: np.ndarray

    def sum(self) -> float:
        return float(self.probs.sum())


@dataclass
class _Walk:
    """One chain row as Python lists, for the Monte Carlo loop.

    Slot q = s*width + v of the flattened (branch, simplex vertex) grid
    leads to verts[q]; it is drawn when a uniform draw times total falls
    below cuts[q] and not below cuts[q-1].  A Dirichlet branch puts its
    whole mass on its first slot and absorbs with value[s]; an oblique exit
    pays refl_d[s] * g(t, refl_p[s], b).
    """

    layer: bool              # some branch exits
    cuts: list
    total: float
    width: int
    verts: list
    dirichlet: list
    value: list
    refl_d: list
    refl_p: np.ndarray


class _Rows:
    """One control pair's rows over all mesh vertices, copied from
    build_node_table tables as the chain reaches them; built marks the rows
    copied so far.  Reflections are dense here: refl_d[j, s] is 0 off the
    oblique exits."""

    def __init__(self, n: int, S: int, dim: int):
        self.built = np.zeros(n, dtype=bool)
        self.verts = np.zeros((n, S, dim + 1), dtype=int)
        self.weights = np.zeros((n, S, dim + 1))
        self.const = np.zeros((n, S))
        self.dirichlet = np.zeros((n, S), dtype=bool)
        self.refl_d = np.zeros((n, S))
        self.refl_p = np.zeros((n, S, dim))

    def fill(self, part: NodeTable):
        J = part.nodes
        self.verts[J], self.weights[J] = part.verts, part.weights
        self.const[J], self.dirichlet[J] = part.const, part.dirichlet
        r, s = np.divmod(part.refl, self.const.shape[1])
        self.refl_d[J[r], s] = part.refl_d
        self.refl_p[J[r], s] = part.refl_p
        self.built[J] = True

    def table(self, J: np.ndarray, dt: float, a, b) -> NodeTable:
        """The rows of the vertices J as a NodeTable."""
        refl_d = self.refl_d[J].reshape(-1)
        refl = np.flatnonzero(refl_d)
        return NodeTable(nodes=J, verts=self.verts[J], weights=self.weights[J],
                         const=self.const[J], dirichlet=self.dirichlet[J], refl=refl,
                         refl_d=refl_d[refl],
                         refl_p=self.refl_p[J].reshape(len(refl_d), -1)[refl],
                         dt=dt, a=a, b=b)

    def walk(self, j: int) -> _Walk:
        mass = self.weights[j].copy()
        mass[self.dirichlet[j], 0] = 1.0
        cum = np.cumsum(mass.ravel())
        return _Walk(layer=bool(self.dirichlet[j].any() or self.refl_d[j].any()),
                     cuts=cum[:-1].tolist(), total=float(cum[-1]), width=mass.shape[1],
                     verts=self.verts[j].ravel().tolist(),
                     dirichlet=self.dirichlet[j].tolist(), value=self.const[j].tolist(),
                     refl_d=self.refl_d[j].tolist(), refl_p=self.refl_p[j])


class _ChainModel:
    """The chain's rows per (vertex, control pair), taken from
    build_node_table as the chain reaches them, the missing rows of one
    request in one call.  Rows are built at the step's time and shared
    across steps only when the dynamics are time-independent, as in the
    sweep.
    """

    def __init__(self, problem: Problem, mesh: Mesh, params: SchemeParams):
        self.problem = problem
        self.mesh = mesh
        self.params = params
        self.N = n_steps(problem.T, params.dt)
        self.S = 2 * problem.n_sigma
        self.times = [step_time(problem, m, params.dt) for m in range(self.N)]
        self._rows = {}       # (step or None, ia, ib) -> _Rows
        self._walks = {}      # (step or None, ia, ib, vertex) -> _Walk

    def _key(self, m: int, ia: int, ib: int) -> tuple:
        return (None if self.problem.time_independent_dynamics else m, ia, ib)

    def rows(self, m: int, ia: int, ib: int, nodes: np.ndarray) -> _Rows:
        """Pair (ia, ib)'s rows at step m, with those of nodes built."""
        key = self._key(m, ia, ib)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = _Rows(self.mesh.n_vertices, self.S, self.mesh.dim)
        missing = nodes[~rows.built[nodes]]
        if len(missing):
            pr, params = self.problem, self.params
            rows.fill(build_node_table(pr, self.mesh, pr.controls_a[ia],
                                       pr.controls_b[ib], params.dt, params.c_bar,
                                       self.times[m], missing))
        return rows

    def walk(self, m: int, ia: int, ib: int, j: int) -> _Walk:
        key = self._key(m, ia, ib) + (j,)
        w = self._walks.get(key)
        if w is None:
            w = self._walks[key] = self.rows(m, ia, ib, np.array([j])).walk(j)
        return w

    def tables(self, m: int, policy, nodes: np.ndarray) -> list:
        """nodes grouped by their control pair at step m, one table each."""
        pr = self.problem
        groups = {}
        for j in nodes.tolist():
            groups.setdefault(tuple(_policy_at(policy, m, j)), []).append(j)
        out = []
        for (ia, ib), J in groups.items():
            J = np.array(J)
            out.append(self.rows(m, ia, ib, J).table(
                J, self.params.dt, pr.controls_a[ia], pr.controls_b[ib]))
        return out


def _policy_at(policy, m: int, i: int):
    if callable(policy):
        return policy(m, i)
    return policy[m][i]


def transition_law(problem: Problem, mesh: Mesh, k: int, i: int, a, b,
                   params: SchemeParams) -> TransitionLaw:
    """p_{k,i,j}(a,b) = (1/2Ns) sum_s psi_j(y_tilde^s) over its support.

    Rows are probability distributions; Dirichlet-absorbed branches make
    the row substochastic by their mass.
    """
    t = step_time(problem, k, params.dt)
    table = build_node_table(problem, mesh, a, b, params.dt, params.c_bar, t, [i])
    probs = np.bincount(table.verts.ravel(), weights=table.weights.ravel(),
                        minlength=mesh.n_vertices) / (2 * problem.n_sigma)
    idx = np.flatnonzero(probs)
    return TransitionLaw(indices=idx, probs=probs[idx])


def policy_cost(problem: Problem, mesh: Mesh, policy, k: int, i: int,
                params: SchemeParams, mode: str = "exact",
                n_paths: int = None, seed: int = 0):
    """Cost J_{k,i}(pi): running dt*f, crossing costs, terminal psi.

    exact mode propagates the full distribution vector and returns a float;
    monte_carlo simulates n_paths chains and returns (mean, stderr).
    """
    model = _ChainModel(problem, mesh, params)
    if mode == "exact":
        return _exact_cost(model, policy, k, i)
    if mode == "monte_carlo":
        if not n_paths or n_paths <= 0:
            raise BadParams("n_paths must be positive")
        vals = np.array([_simulate_path(model, policy, k, i, seed, path)[0]
                         for path in range(n_paths)])
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))
    raise BadParams(f"unknown mode {mode!r}")


def _exact_cost(model: _ChainModel, policy, k: int, i: int) -> float:
    pr, mesh = model.problem, model.mesh
    n = mesh.n_vertices
    rho = np.zeros(n)
    rho[i] = 1.0
    total = 0.0
    for m in range(k, model.N):
        nxt = np.zeros(n)
        for table in model.tables(m, policy, np.flatnonzero(rho)):
            w = rho[table.nodes]
            # the expected one-step cost is the operator applied to zero
            total += float(w @ table.apply(pr, mesh, np.zeros(n), model.times[m])[0])
            nxt += np.bincount(table.verts.ravel(),
                               weights=(w[:, None, None] * table.weights).ravel(),
                               minlength=n)
        rho = nxt / model.S
    J = np.flatnonzero(rho)
    return float(total + rho[J] @ np.array([float(pr.psi(x)) for x in mesh.vertices[J]]))


def _simulate_path(model: _ChainModel, policy, k: int, i: int,
                   seed: int, path: int):
    """One chain trajectory; returns (cost, boundary-layer step count)."""
    rng = np.random.Generator(np.random.Philox(key=[seed, path]))
    pr, mesh = model.problem, model.mesh
    dt = model.params.dt
    state = i
    cost = 0.0
    layer_steps = 0
    for m in range(k, model.N):
        t = model.times[m]
        ia, ib = _policy_at(policy, m, state)
        w = model.walk(m, ia, ib, state)
        layer_steps += w.layer
        cost += dt * float(pr.f(t, mesh.vertices[state], pr.controls_a[ia]))
        q = bisect.bisect(w.cuts, rng.random() * w.total)
        s = q // w.width
        if w.dirichlet[s]:
            return cost + w.value[s], layer_steps
        if w.refl_d[s]:
            cost += w.refl_d[s] * float(pr.g(t, w.refl_p[s], pr.controls_b[ib]))
        state = w.verts[q]
    return cost + float(pr.psi(mesh.vertices[state])), layer_steps


def dp_oracle(problem: Problem, mesh: Mesh, params: SchemeParams,
              limit: float = 1e6) -> np.ndarray:
    """Min over all policies of the exact cost at k=0, by enumeration."""
    model = _ChainModel(problem, mesh, params)
    n = mesh.n_vertices
    P = len(problem.controls_a) * len(problem.controls_b)
    slots = n * model.N
    if P ** slots > limit:
        raise TooLarge(f"{P}^{slots} policies exceed the enumeration limit")
    nb = len(problem.controls_b)
    pairs = [(ia, ib) for ia in range(len(problem.controls_a)) for ib in range(nb)]
    best = np.full(n, np.inf)
    for flat in itertools.product(range(P), repeat=slots):
        policy = [[pairs[flat[m * n + j]] for j in range(n)]
                  for m in range(model.N)]
        vals = _policy_values(model, policy)
        best = np.minimum(best, vals)
    return best


def _policy_values(model: _ChainModel, policy) -> np.ndarray:
    """J_{0,i} for all i under one fixed policy (backward evaluation)."""
    pr, mesh = model.problem, model.mesh
    nodes = np.arange(mesh.n_vertices)
    J = np.array([float(pr.psi(x)) for x in mesh.vertices])
    for m in range(model.N - 1, -1, -1):
        new = np.empty_like(J)
        for table in model.tables(m, policy, nodes):
            new[table.nodes] = table.apply(pr, mesh, J, model.times[m])[0]
        J = new
    return J


def estimate_sojourn(problem: Problem, mesh: Mesh, policy,
                     params: SchemeParams, n_paths: int, seed: int = 0):
    """Expected number of steps spent in the boundary layer Gamma_m(a).

    Gamma_m(a) holds the vertices with at least one exiting characteristic.
    Returns (mean, stderr) over n_paths simulated chains started at the
    vertex closest to the domain barycenter.
    """
    if not n_paths or n_paths <= 0:
        raise BadParams("n_paths must be positive")
    model = _ChainModel(problem, mesh, params)
    center = mesh.vertices.mean(axis=0)
    start = int(np.argmin(np.linalg.norm(mesh.vertices - center, axis=1)))
    counts = np.array([_simulate_path(model, policy, 0, start, seed, path)[1]
                       for path in range(n_paths)], dtype=float)
    return float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(len(counts)))
