"""Markov-chain reading of the scheme: transition laws, policy costs, and
brute-force / Monte-Carlo oracles for the backward sweep.

Policies assign to each (step, vertex) a pair of indices into the
discretized control lists.  The chain moves by drawing one of the 2*N_sigma
characteristic branches uniformly and then one of the simplex vertices of
the landing point with its barycentric weight; Dirichlet exits absorb.
Every row of the chain is a row of the scheme's Operator.
"""
from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import BadParams, TooLarge
from .mesh import Mesh
from .scheme import (
    Operator,
    Problem,
    SchemeParams,
    check_integer,
    check_shape,
    control_groups,
    per_control,
    whole_steps,
)

# most policies dp_oracle enumerates
ENUMERATION_LIMIT = 1e6


@dataclass
class TransitionLaw:
    """Sparse probability row p_{k,i,.}(a,b) over vertex indices."""

    indices: np.ndarray
    probs: np.ndarray

    def sum(self) -> float:
        return float(self.probs.sum())


class _ChainModel(Operator):
    """The scheme operator with the chain's terminal cost psi at every
    vertex, its policy lookup and its latest Monte Carlo draws; like sweep,
    it solves the whole horizon."""

    def __init__(self, problem: Problem, mesh: Mesh, params: SchemeParams):
        whole_steps(problem.T, params.dt)
        super().__init__(problem, mesh, params)
        self.psi = check_shape("psi", problem.psi(mesh.vertices), (mesh.n_vertices,))
        self._draws = (None, None)

    def draws(self, seed: int, n_paths: int, steps: int) -> np.ndarray:
        """The (n_paths, steps) uniforms whose row p is the start of the
        Philox(key=[seed, p]) stream, read-only; only the latest matrix is
        kept."""
        if self._draws[0] != (seed, n_paths, steps):
            mat = np.array([np.random.Generator(np.random.Philox(key=[seed, p])).random(steps)
                            for p in range(n_paths)]).reshape(n_paths, steps)
            mat.flags.writeable = False
            self._draws = ((seed, n_paths, steps), mat)
        return self._draws[1]

    def code(self, m: int, policy, nodes) -> np.ndarray:
        """The pair code of each vertex of nodes under policy at step m."""
        return np.array([ia * self.nb + ib
                         for ia, ib in (_policy_at(policy, m, j) for j in nodes)],
                        dtype=int)


# this thread's latest chain model, with the inputs it was built from
_latest = threading.local()


def _chain_model(problem: Problem, mesh: Mesh, params: SchemeParams) -> _ChainModel:
    """This thread's latest _ChainModel if it was built from the same
    problem and mesh objects, the same object in every field of the problem
    and at every position of controls_a and controls_b, and a dt and c_bar
    of equal value; otherwise a new model, built after the old one is
    dropped.  Rows and draws thus carry over between calls on one problem."""
    objs = (problem, mesh, *(getattr(problem, f.name) for f in fields(problem)),
            *problem.controls_a, *problem.controls_b)
    values = (len(problem.controls_a), len(problem.controls_b), params.dt, params.c_bar)
    entry = getattr(_latest, "entry", None)
    if (entry is None or entry[1] != values or len(entry[0]) != len(objs)
            or not all(map(operator.is_, entry[0], objs))):
        _latest.entry = None
        _latest.entry = (objs, values, _ChainModel(problem, mesh, params))
    return _latest.entry[2]


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
    op = Operator(replace(problem, controls_a=[a], controls_b=[b],
                          time_independent_dynamics=False), mesh, params)
    i = check_integer("vertex", i, 0, mesh.n_vertices - 1)
    probs = op.rows(k, [0], [i]).matrix([0], [i]).toarray()[0]
    idx = np.flatnonzero(probs)
    return TransitionLaw(indices=idx, probs=probs[idx])


def policy_cost(problem: Problem, mesh: Mesh, policy, k: int, i: int,
                params: SchemeParams, mode: str = "exact",
                n_paths: int = None, seed: int = 0):
    """Cost J_{k,i}(pi): running dt*f, crossing costs, terminal psi.

    exact mode propagates the full distribution vector and returns a float;
    monte_carlo simulates n_paths >= 2 chains and returns (mean, stderr).
    """
    model = _chain_model(problem, mesh, params)
    i = check_integer("vertex", i, 0, mesh.n_vertices - 1)
    k = check_integer("step k", k, 0, model.N)
    if mode == "exact":
        return _exact_cost(model, policy, k, i)
    if mode == "monte_carlo":
        check_integer("n_paths", n_paths, 2)
        vals = _simulate_paths(model, policy, k, i, seed, n_paths)[0]
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))
    raise BadParams(f"unknown mode {mode!r}")


def _exact_cost(model: _ChainModel, policy, k: int, i: int) -> float:
    n = model.mesh.n_vertices
    rho = np.zeros(n)
    rho[i] = 1.0
    total = 0.0
    for m in range(k, model.N):
        nodes = np.flatnonzero(rho)
        if not len(nodes):
            break   # every path was absorbed at a Dirichlet exit
        w = rho[nodes]
        # the expected one-step cost is the operator applied to zero
        cost, _, P = model.apply(m, np.zeros(n), model.code(m, policy, nodes.tolist()), nodes)
        total += float(w @ cost)
        rho = P.T @ w
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
    draws = model.draws(seed, n_paths, model.N - k)
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
        groups = control_groups(pr.controls_a, ucode // nb, mesh.vertices[uniq])
        f = per_control("f", pr.f, t, groups, len(uniq))
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
        sel = np.flatnonzero(refl)
        groups = control_groups(pr.controls_b, code[sel] % nb,
                                rows.refl_p[code[sel], here[sel], s[sel]])
        g = per_control("g", pr.g, t, groups, len(sel))
        cost[live[sel]] += refl_d[sel] * g
        cost[live[absorbed]] += rows.const[code, here, s][absorbed]
        state[live] = rows.verts.reshape(rows.built.shape + (-1,))[code, here, q]
        live = live[~absorbed]
    cost[live] += model.psi[state[live]]
    return cost, layer


def dp_oracle(problem: Problem, mesh: Mesh, params: SchemeParams) -> np.ndarray:
    """Min over all policies of the exact cost at k=0, by enumeration;
    TooLarge beyond ENUMERATION_LIMIT policies."""
    model = _ChainModel(problem, mesh, params)
    n = mesh.n_vertices
    P = len(problem.controls_a) * len(problem.controls_b)
    slots = n * model.N
    if P ** slots > ENUMERATION_LIMIT:
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
    nodes = np.arange(model.mesh.n_vertices)
    J = model.psi.copy()
    for m in range(model.N - 1, -1, -1):
        J = model.apply(m, J, model.code(m, policy, nodes.tolist()), nodes)[0]
    return J


def estimate_sojourn(problem: Problem, mesh: Mesh, policy,
                     params: SchemeParams, n_paths: int, seed: int = 0):
    """Expected number of steps spent in the boundary layer Gamma_m(a).

    Gamma_m(a) holds the vertices with at least one exiting characteristic.
    Returns (mean, stderr) over n_paths >= 2 simulated chains started at the
    vertex closest to the domain barycenter.
    """
    check_integer("n_paths", n_paths, 2)
    model = _chain_model(problem, mesh, params)
    center = mesh.vertices.mean(axis=0)
    start = int(np.argmin(np.linalg.norm(mesh.vertices - center, axis=1)))
    counts = _simulate_paths(model, policy, 0, start, seed, n_paths)[1].astype(float)
    return float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(len(counts)))
