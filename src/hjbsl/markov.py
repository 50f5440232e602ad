"""Markov-chain reading of the scheme: transition laws, exact and Monte
Carlo policy costs, and boundary-layer sojourns.

Policies assign to each (step, vertex) a pair of indices into the
discretized control lists.  The chain moves by drawing one of the 2*N_sigma
characteristic branches uniformly and then one of the simplex vertices of
the landing point with its barycentric weight; Dirichlet exits absorb.
Every row of the chain is a row of the scheme's Operator.
"""
from __future__ import annotations

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
    check_inputs,
    check_integer,
    control_groups,
    per_control,
    terminal_values,
    whole_steps,
)

# most 8-byte words (800 MB) the paths of one Monte Carlo run hold
DRAW_LIMIT = 1e8
# words a path holds besides its draws and one step's cumulative slot
# masses: its state, its cost or layer count and its share of a step's
# temporaries
PATH_WORDS = 32
# draw matrices a chain model keeps: a Monte Carlo cost's and a sojourn's
DRAW_MEMO = 2
# largest seed: a seed is the first word of a Philox key of 64-bit words
SEED_MAX = 2 ** 64 - 1


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
    it solves the whole horizon, and BadParams when psi is not finite."""

    def __init__(self, problem: Problem, mesh: Mesh, params: SchemeParams):
        whole_steps(problem.T, params.dt)
        super().__init__(problem, mesh, params)
        self.psi = terminal_values(problem, mesh)
        self._draws = {}

    def draws(self, seed: int, n_paths: int, steps: int) -> np.ndarray:
        """The (steps, n_paths) uniforms whose column p is the start of the
        Philox(key=[seed, p]) stream, read-only and step-major, so that a
        step reads one row; the matrices of the DRAW_MEMO latest (seed,
        n_paths, steps) are kept."""
        key = (seed, n_paths, steps)
        mat = self._draws.pop(key, None)
        if mat is None:
            mat = np.empty((steps, n_paths))
            for p in range(n_paths):
                mat[:, p] = np.random.Generator(np.random.Philox(key=[seed, p])).random(steps)
            mat.flags.writeable = False
        self._draws[key] = mat
        if len(self._draws) > DRAW_MEMO:
            del self._draws[next(iter(self._draws))]
        return mat

    def policy_rows(self, m: int, policy, nodes: np.ndarray) -> np.ndarray:
        """The stacked row (ia*len(controls_b) + ib)*n + j of each vertex j
        of nodes under its pair (ia, ib) at step m, as intp.  policy is a
        callable policy(m, j) or a nested sequence read as step = policy[m]
        once, then step[j].  The first vertex, in nodes' order, whose lookup
        finds no pair (or finds the policy or its step not subscriptable)
        or whose pair is not two integers (_integer) in
        0..len(controls_a)-1 x 0..len(controls_b)-1 raises BadParams naming
        the step and the vertex; no later vertex is looked up."""
        na, nb, n = len(self.problem.controls_a), self.nb, self.mesh.n_vertices
        call = callable(policy)
        if not call:
            try:
                step = policy[m]
            except (LookupError, TypeError):
                step = ()   # no step m: its first vertex has no pair
        rows = []
        for j in nodes.tolist():
            if call:
                pair = policy(m, j)
            else:
                try:
                    pair = step[j]
                except (LookupError, TypeError):
                    raise BadParams(f"policy has no pair at step {m}, vertex {j}") from None
            try:
                ia, ib = pair
            except (TypeError, ValueError):
                ia = ib = None
            if not (type(ia) is int and type(ib) is int and 0 <= ia < na and 0 <= ib < nb):
                ia, ib = _integer(ia), _integer(ib)
                if ia is None or ib is None or not (0 <= ia < na and 0 <= ib < nb):
                    raise BadParams(f"policy at step {m}, vertex {j}: {pair!r} is not an "
                                    f"integer pair (ia, ib) in 0..{na - 1} x 0..{nb - 1}")
            rows.append((ia * nb + ib) * n + j)
        return np.array(rows, dtype=np.intp)


def _integer(v):
    """int(v) if v is one integer, a 0-d value of integer or bool dtype (an
    int, a bool, a numpy scalar or a 0-d array), else None.  As an int, a
    narrow numpy integer (int8, uint8) cannot wrap in a row's product."""
    try:
        if isinstance(v, (int, np.integer, np.bool_)) or (
                np.ndim(v) == 0 and np.asarray(v).dtype.kind in "biu"):
            return int(v)
    except (TypeError, ValueError):
        pass
    return None


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


def transition_law(problem: Problem, mesh: Mesh, k: int, i: int, a, b,
                   params: SchemeParams) -> TransitionLaw:
    """p_{k,i,j}(a,b) = (1/2Ns) sum_s psi_j(y_tilde^s) over its support.

    Rows are probability distributions; Dirichlet-absorbed branches make
    the row substochastic by their mass.
    """
    check_inputs(problem, mesh, params)
    op = Operator(replace(problem, controls_a=[a], controls_b=[b]), mesh, params)
    k = check_integer("step k", k, 0, op.N - 1)
    i = check_integer("vertex", i, 0, mesh.n_vertices - 1)
    rows = op.rows(k)
    # a vertex's slots added in slot order
    probs = np.bincount(rows.verts[:, i], weights=rows.probs[:, i], minlength=mesh.n_vertices)
    idx = np.flatnonzero(probs)
    return TransitionLaw(indices=idx, probs=probs[idx])


def policy_cost(problem: Problem, mesh: Mesh, policy, k: int, i: int,
                params: SchemeParams, mode: str = "exact",
                n_paths: int = None, seed: int = 0):
    """Cost J_{k,i}(pi): running dt*f, crossing costs, terminal psi.

    exact mode propagates the full distribution vector and returns a float;
    monte_carlo simulates n_paths >= 2 chains and returns (mean, stderr);
    TooLarge when their paths would exceed DRAW_LIMIT words.
    """
    check_inputs(problem, mesh, params)
    model = _chain_model(problem, mesh, params)
    i = check_integer("vertex", i, 0, mesh.n_vertices - 1)
    k = check_integer("step k", k, 0, model.N)
    if mode == "exact":
        return _exact_cost(model, policy, k, i)
    if mode == "monte_carlo":
        check_integer("n_paths", n_paths, 2)
        seed = check_integer("seed", seed, 0, SEED_MAX)
        _check_draws(model, n_paths, model.N - k)
        vals = _simulate_paths(model, policy, k, i, seed, n_paths)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))
    raise BadParams(f"unknown mode {mode!r}")


def _check_draws(model: _ChainModel, n_paths: int, steps: int):
    """TooLarge, before anything is allocated, unless n_paths paths of
    steps steps fit DRAW_LIMIT words: each path holds its steps draws, the
    cumulative masses of its row's slots and PATH_WORDS more."""
    if n_paths * (steps + model.S * (model.mesh.dim + 1) + PATH_WORDS) > DRAW_LIMIT:
        raise TooLarge(f"{n_paths} paths of {steps} steps exceed the Monte Carlo "
                       f"draw limit of {DRAW_LIMIT:g} words")


def _exact_cost(model: _ChainModel, policy, k: int, i: int) -> float:
    n = model.mesh.n_vertices
    rho = np.zeros(n)
    rho[i] = 1.0
    total = 0.0
    for m in range(k, model.N):
        nodes = rho.nonzero()[0]
        if not len(nodes):
            break   # every path was absorbed at a Dirichlet exit
        w = rho.take(nodes)
        # the expected one-step cost is the operator applied to zero
        cost, _, (verts, probs) = model.apply(m, None, model.policy_rows(m, policy, nodes))
        total += float(w @ cost)
        rho = _move(verts, probs, w, n)
    J = rho.nonzero()[0]
    return float(total + rho.take(J) @ model.psi.take(J))


def _move(verts, probs, w, n: int) -> np.ndarray:
    """P[rows].T @ w for the rows' columns (verts, probs) of Operator.apply:
    each slot's probs*w added to its vertex in row and slot order, as a
    transposed CSR product adds them."""
    return np.bincount(verts.T.ravel(), weights=(probs * w).T.ravel(), minlength=n)


def _walk(model: _ChainModel, policy, k: int, state: np.ndarray, seed: int):
    """The chain's draw-and-move core: the paths at the vertices state from
    step k, advanced together one step at a time, state updated in place
    with -1 for an absorbed path.

    Path p draws from its own Philox(key=[seed, p]) stream, one uniform per
    step while it lives, as when it is simulated alone.  At each step m
    with a live path, yields (m, live, inv, urow, rows, slot) before the
    move: the live paths, the stacked rows urow of the distinct vertices
    they occupy under the policy, path p's at urow[inv[p]], the step's
    store, and the drawn (row, branch) of each path as slot.
    """
    n, width = model.mesh.n_vertices, model.mesh.dim + 1
    draws = model.draws(seed, len(state), model.N - k)
    live = np.arange(len(state))
    # np.unique(here, return_inverse=True) by marking the vertices
    seen, position = np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
    for m in range(k, model.N):
        if not len(live):
            return
        here = state.take(live)
        seen[here] = True
        uniq = seen.nonzero()[0]
        seen[uniq] = False
        position[uniq] = np.arange(len(uniq))
        inv = position.take(here)
        urow = model.policy_rows(m, policy, uniq)
        rows = model.rows(m)
        r = urow.take(inv)
        cum = rows.cum.take(r, axis=1)
        q = (cum[:-1] <= draws[m - k].take(live) * cum[-1]).sum(axis=0)
        slot = (r, q // width)
        yield m, live, inv, urow, rows, slot
        absorbed = rows.dirichlet[slot]
        if absorbed.any():
            state[live] = np.where(absorbed, -1, rows.verts[q, r])
            live = live[~absorbed]
        else:
            state[live] = rows.verts[q, r]


def _simulate_paths(model: _ChainModel, policy, k: int, i: int, seed: int,
                    n_paths: int):
    """The costs of n_paths chain trajectories from vertex i at step k (see
    _walk).  Each step takes f on the live states' rows from
    Operator.running_cost, as the applies do, and makes one g call per
    control b over the drawn reflections."""
    pr, nb, dt = model.problem, model.nb, model.params.dt
    n = model.mesh.n_vertices
    state = np.full(n_paths, i)
    cost = np.zeros(n_paths)
    for m, live, inv, urow, rows, slot in _walk(model, policy, k, state, seed):
        t = model.times[m]
        r, s = slot
        cost[live] += dt * model.running_cost(m, urow).take(inv)
        absorbed = rows.dirichlet[slot]
        refl_d = rows.refl_d[slot]
        sel = (~absorbed & (refl_d != 0.0)).nonzero()[0]
        rsel = r.take(sel)
        groups = control_groups(pr.controls_b, rsel // n % nb, rows.refl_p[rsel, s.take(sel)])
        g = per_control("g", pr.g, t, groups, len(sel))
        cost[live[sel]] += refl_d[sel] * g
        cost[live[absorbed]] += rows.const[slot][absorbed]
    end = (state >= 0).nonzero()[0]
    cost[end] += model.psi.take(state.take(end))
    return cost


def _layer_steps(model: _ChainModel, policy, i: int, seed: int, n_paths: int):
    """The boundary-layer step counts of n_paths chain trajectories from
    vertex i at step 0 (see _walk): the steps at which a path's row has an
    exiting branch, with no f or g call."""
    layer = np.zeros(n_paths, dtype=int)
    for _, live, _, _, rows, (r, _) in _walk(model, policy, 0, np.full(n_paths, i), seed):
        layer[live] += rows.layer.take(r)
    return layer


def estimate_sojourn(problem: Problem, mesh: Mesh, policy,
                     params: SchemeParams, n_paths: int, seed: int = 0):
    """Expected number of steps spent in the boundary layer Gamma_m(a).

    Gamma_m(a) holds the vertices with at least one exiting characteristic.
    Returns (mean, stderr) over n_paths >= 2 simulated chains started at the
    vertex closest to the domain barycenter; TooLarge when their paths
    would exceed DRAW_LIMIT words.
    """
    check_inputs(problem, mesh, params)
    check_integer("n_paths", n_paths, 2)
    seed = check_integer("seed", seed, 0, SEED_MAX)
    model = _chain_model(problem, mesh, params)
    _check_draws(model, n_paths, model.N)
    center = mesh.vertices.mean(axis=0)
    start = int(np.argmin(np.linalg.norm(mesh.vertices - center, axis=1)))
    counts = _layer_steps(model, policy, start, seed, n_paths).astype(float)
    return float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(len(counts)))
