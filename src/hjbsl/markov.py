"""Markov-chain reading of the scheme: transition laws, policy costs, and
brute-force / Monte-Carlo oracles for the backward sweep.

Policies assign to each (step, vertex) a pair of indices into the
discretized control lists.  The chain moves by drawing one of the 2*N_sigma
characteristic branches uniformly and then one of the simplex vertices of
the landing point with its barycentric weight; Dirichlet exits absorb.
Every row of the chain is a row of build_node_table.
"""
from __future__ import annotations

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
    check_shape,
    check_time_independent_dynamics,
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


class _Rows:
    """Every control pair's rows over all mesh vertices at one step key,
    copied from build_node_table tables as the chain reaches them; [c, j]
    is the row of vertex j under pair code c = ia*len(controls_b) + ib, and
    built marks the rows copied so far.  Reflections are dense here:
    refl_d[c, j, s] is 0 off the oblique exits.

    For the Monte Carlo draw, slot q = s*(dim+1) + v of a row's flattened
    (branch, simplex vertex) grid is drawn when a uniform draw times
    cum[c, j, -1] falls below cum[c, j, q] and not below cum[c, j, q-1]; a
    Dirichlet branch puts its whole mass on its first slot.  layer marks
    the rows with an exiting branch.
    """

    def __init__(self, P: int, n: int, S: int, dim: int):
        self.built = np.zeros((P, n), dtype=bool)
        self.verts = np.zeros((P, n, S, dim + 1), dtype=int)
        self.weights = np.zeros((P, n, S, dim + 1))
        self.const = np.zeros((P, n, S))
        self.dirichlet = np.zeros((P, n, S), dtype=bool)
        self.refl_d = np.zeros((P, n, S))
        self.refl_p = np.zeros((P, n, S, dim))
        self.cum = np.zeros((P, n, S * (dim + 1)))
        self.layer = np.zeros((P, n), dtype=bool)

    def fill(self, c: int, part: NodeTable):
        J = part.nodes
        self.verts[c, J], self.weights[c, J] = part.verts, part.weights
        self.const[c, J], self.dirichlet[c, J] = part.const, part.dirichlet
        r, s = np.divmod(part.refl, self.const.shape[2])
        self.refl_d[c, J[r], s] = part.refl_d
        self.refl_p[c, J[r], s] = part.refl_p
        mass = part.weights.copy()
        mass[part.dirichlet, 0] = 1.0
        self.cum[c, J] = np.cumsum(mass.reshape(len(J), -1), axis=1)
        self.layer[c, J] = part.dirichlet.any(axis=1) | self.refl_d[c, J].any(axis=1)
        self.built[c, J] = True

    def table(self, c: int, J: np.ndarray, dt: float, a, b) -> NodeTable:
        """Pair c's rows of the vertices J as a NodeTable."""
        refl_d = self.refl_d[c, J].reshape(-1)
        refl = np.flatnonzero(refl_d)
        return NodeTable(nodes=J, verts=self.verts[c, J], weights=self.weights[c, J],
                         const=self.const[c, J], dirichlet=self.dirichlet[c, J],
                         refl=refl, refl_d=refl_d[refl],
                         refl_p=self.refl_p[c, J].reshape(len(refl_d), -1)[refl],
                         dt=dt, a=a, b=b)


class _ChainModel:
    """The chain's rows per (vertex, control pair), taken from
    build_node_table as the chain reaches them, the missing rows of one
    request in one call per pair, and psi at every vertex.  Rows are built
    at the step's time and shared across steps only when the dynamics are
    time-independent, as in the sweep.
    """

    def __init__(self, problem: Problem, mesh: Mesh, params: SchemeParams):
        self.problem = problem
        self.mesh = mesh
        self.params = params
        self.N = n_steps(problem.T, params.dt)
        self.S = 2 * problem.n_sigma
        self.nb = len(problem.controls_b)
        self.times = [step_time(problem, m, params.dt) for m in range(self.N)]
        if problem.time_independent_dynamics:
            check_time_independent_dynamics(problem, mesh, params.dt)
        self.psi = check_shape("psi", problem.psi(mesh.vertices), (mesh.n_vertices,))
        self._rows = {}       # step, or None when shared by all steps -> _Rows

    def code(self, m: int, policy, nodes) -> np.ndarray:
        """The pair code of each vertex of nodes under policy at step m."""
        return np.array([ia * self.nb + ib
                         for ia, ib in (_policy_at(policy, m, j) for j in nodes)],
                        dtype=int)

    def rows(self, m: int, codes: np.ndarray, nodes: np.ndarray) -> _Rows:
        """The rows at step m, with row [codes[r], nodes[r]] built for each
        r; one build_node_table call per pair with missing rows."""
        pr, params, mesh = self.problem, self.params, self.mesh
        key = None if pr.time_independent_dynamics else m
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = _Rows(len(pr.controls_a) * self.nb,
                                           mesh.n_vertices, self.S, mesh.dim)
        missing = ~rows.built[codes, nodes]
        for c in np.unique(codes[missing]).tolist():
            ia, ib = divmod(c, self.nb)
            rows.fill(c, build_node_table(pr, mesh, pr.controls_a[ia], pr.controls_b[ib],
                                          params.dt, params.c_bar, self.times[m],
                                          np.unique(nodes[missing & (codes == c)])))
        return rows

    def tables(self, m: int, policy, nodes: np.ndarray) -> list:
        """nodes grouped by their control pair at step m, one table each, in
        the order the pairs first occur."""
        pr = self.problem
        codes = self.code(m, policy, nodes.tolist())
        rows = self.rows(m, codes, nodes)
        _, first = np.unique(codes, return_index=True)
        out = []
        for c in codes[np.sort(first)].tolist():
            ia, ib = divmod(c, self.nb)
            out.append(rows.table(c, nodes[codes == c], self.params.dt,
                                  pr.controls_a[ia], pr.controls_b[ib]))
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
        vals = _simulate_paths(model, policy, k, i, seed, n_paths)[0]
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
    return float(total + rho[J] @ model.psi[J])


def _simulate_paths(model: _ChainModel, policy, k: int, i: int, seed: int,
                    n_paths: int):
    """n_paths chain trajectories from vertex i at step k, advanced together
    one step at a time; returns (costs, boundary-layer step counts).

    Path p draws from its own Philox(key=[seed, p]) stream, one uniform per
    step while it lives, as when it is simulated alone.  Each step builds
    the live states' missing rows with one build_node_table call per
    control pair and makes one f call per control a over the live states
    and one g call per control b over the drawn reflections.
    """
    pr, mesh, nb = model.problem, model.mesh, model.nb
    dt, width = model.params.dt, mesh.dim + 1
    steps = model.N - k
    draws = np.array([np.random.Generator(np.random.Philox(key=[seed, p])).random(steps)
                      for p in range(n_paths)]).reshape(n_paths, steps)
    state = np.full(n_paths, i)
    cost = np.zeros(n_paths)
    layer = np.zeros(n_paths, dtype=int)
    live = np.arange(n_paths)
    for m in range(k, model.N):
        if not len(live):
            break
        t = model.times[m]
        here = state[live]
        uniq, inv = np.unique(here, return_inverse=True)
        ucode = model.code(m, policy, uniq.tolist())
        rows = model.rows(m, ucode, uniq)
        f, ua = np.empty(len(uniq)), ucode // nb
        for ia in np.unique(ua).tolist():
            own = np.flatnonzero(ua == ia)
            f[own] = check_shape("f", pr.f(t, mesh.vertices[uniq[own]], pr.controls_a[ia]),
                                 (len(own),))
        cost[live] += dt * f[inv]
        code = ucode[inv]
        cum = rows.cum[code, here]
        q = np.count_nonzero(cum[:, :-1] <= (draws[live, m - k] * cum[:, -1])[:, None],
                             axis=1)
        s = q // width
        layer[live] += rows.layer[code, here]
        absorbed = rows.dirichlet[code, here, s]
        refl_d = rows.refl_d[code, here, s]
        refl = ~absorbed & (refl_d != 0.0)
        for ib in np.unique(code[refl] % nb).tolist():
            sel = np.flatnonzero(refl & (code % nb == ib))
            g = check_shape("g", pr.g(t, rows.refl_p[code[sel], here[sel], s[sel]],
                                      pr.controls_b[ib]), (len(sel),))
            cost[live[sel]] += refl_d[sel] * g
        cost[live[absorbed]] += rows.const[code, here, s][absorbed]
        state[live] = rows.verts.reshape(rows.built.shape + (-1,))[code, here, q]
        live = live[~absorbed]
    cost[live] += model.psi[state[live]]
    return cost, layer


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
    J = model.psi.copy()
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
    counts = _simulate_paths(model, policy, 0, start, seed, n_paths)[1].astype(float)
    return float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(len(counts)))
