"""Fully-discrete semi-Lagrangian scheme with reflected characteristics.

One step of the controlled diffusion is emulated by 2*N_sigma Euler
characteristics; characteristics leaving the domain are pulled back inside
along the oblique field, past the projection point by c_bar*sqrt(dt), and
the boundary cost enters weighted by the algebraic crossing distance.
Dirichlet-tagged exits take the exit datum instead (extrapolation-free,
first-order imposition).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, LocationFailure, OutsideTube, Unstable
from .geometry import (
    TOL_BOUNDARY,
    Domain,
    ObliqueField,
    as_point,
    oblique_projection_many,
)
from .mesh import Mesh

# tolerance on the unit sum of each branch's interpolation weights
WEIGHT_TOL = 1e-12
PULLED_OUTSIDE = ("reflected point left the domain; dt too large "
                  "for the drift/diffusion magnitudes")


@dataclass
class Problem:
    """Data tuple (sigma, mu, f, gamma, g, psi, T, A, B) on a domain.

    Handles take physical time.  orientation 'backward' means psi is the
    terminal datum and values are reported at t=0; 'forward' means psi is
    the initial datum, the sweep runs in reversed time internally, and
    values are reported at t=T.
    """

    domain: Domain
    T: float
    n_sigma: int
    sigma: callable          # (t, x, a) -> (dim, n_sigma)
    mu: callable             # (t, x, a) -> (dim,)
    f: callable              # (t, x, a) -> float
    g: callable              # (t, p, b) -> float
    psi: callable            # (x,) -> float
    gamma: ObliqueField
    controls_a: list
    controls_b: list
    orientation: str = "backward"
    exact_solution: callable = None   # (t, x) -> float
    time_independent_dynamics: bool = False
    time_independent_cost: bool = False

    def __post_init__(self):
        if self.T <= 0 or self.n_sigma < 1:
            raise BadParams("need T > 0 and n_sigma >= 1")
        if not self.controls_a or not self.controls_b:
            raise BadParams("control sets must be nonempty")
        if self.orientation not in ("backward", "forward"):
            raise BadParams(f"unknown orientation {self.orientation!r}")


@dataclass
class SchemeParams:
    dt: float
    c_bar: float
    blowup_guard: float = None

    def __post_init__(self):
        if self.dt <= 0 or self.c_bar <= 0:
            raise BadParams("need dt > 0 and c_bar > 0")


@dataclass
class ReflectedPoint:
    """Classification of a batch of characteristics, one row each.

    exited rows left the domain.  Dirichlet rows stop at their first
    boundary crossing y_tilde and take the exit datum value; the other
    exited rows are pulled back to y_tilde, past their boundary projection
    point p by c_bar*sqrt(dt), with crossing distance d_tilde.
    """

    y_tilde: np.ndarray
    d_tilde: np.ndarray
    exited: np.ndarray
    p: np.ndarray
    dirichlet: np.ndarray
    value: np.ndarray


def n_steps(T: float, dt: float) -> int:
    return int(math.floor(T / dt + 1e-9))


def step_time(problem: Problem, k: int, dt: float) -> float:
    """Physical time at which step k samples the data handles.

    Step k advances the solution across the physical slab
    [k*dt, (k+1)*dt] (backward) or [t_end-(k+1)*dt, t_end-k*dt]
    (forward, t_end = n_steps*dt); data is evaluated at the left endpoint
    in both cases.
    """
    if problem.orientation == "backward":
        return k * dt
    return n_steps(problem.T, dt) * dt - (k + 1) * dt


def _characteristics(problem: Problem, t: float, X, a, dt: float) -> np.ndarray:
    """Points y^{+,1}, y^{-,1}, ..., y^{+,Ns}, y^{-,Ns} of each row of X in
    fixed order, as an (n, 2*Ns, dim) array; mu and sigma are called once
    per row."""
    dim, ns = problem.domain.dim, problem.n_sigma
    mu = np.array([as_point(problem.mu(t, x, a)) for x in X]).reshape(-1, dim)
    sg = np.array([np.asarray(problem.sigma(t, x, a), dtype=float).reshape(dim, ns)
                   for x in X]).reshape(-1, dim, ns)
    base = X + dt * mu
    # base +- sqrt(Ns*dt) * sigma_l for each column l, interleaved
    step = math.sqrt(ns * dt) * np.swapaxes(sg, -1, -2)
    out = np.empty((len(base), 2 * ns, dim))
    out[:, 0::2] = base[:, None, :] + step
    out[:, 1::2] = base[:, None, :] - step
    return out


def _classify_many(problem: Problem, X, Y, b, dt: float,
                   c_bar: float) -> ReflectedPoint:
    """Route each characteristic Y[j] from its vertex X[j] to the interior,
    a Dirichlet exit or a reflection, in one batched pass.

    p is set on reflected rows and zero elsewhere; the boundary cost
    g(t, p, b) is left to the caller, since it depends on the step's time.
    """
    dom = problem.domain
    m = len(Y)
    exited = ~(dom.signed_distance_many(Y) <= TOL_BOUNDARY)
    y_tilde = np.array(Y, dtype=float)
    d_tilde = np.zeros(m)
    p = np.zeros_like(y_tilde)
    dirichlet = np.zeros(m, dtype=bool)
    value = np.zeros(m)
    rows = np.flatnonzero(exited)
    if dom.has_dirichlet and len(rows):
        q = dom.first_crossing_many(X[rows], Y[rows])
        hit, data = dom.boundary_kind_many(q)
        dirichlet[rows[hit]] = True
        value[rows[hit]] = data[hit]
        y_tilde[rows[hit]] = q[hit]
        rows = rows[~hit]
    if len(rows):
        # the nominal tube radius can be exceeded by coarse steps; rely on
        # the containment check on the pulled-back points instead
        proj = oblique_projection_many(dom, problem.gamma, b, Y[rows], r_max=math.inf)
        push = c_bar * math.sqrt(dt)
        y_tilde[rows] = proj.p - push * proj.gamma
        if not np.all(dom.signed_distance_many(y_tilde[rows]) <= TOL_BOUNDARY):
            raise OutsideTube(PULLED_OUTSIDE)
        d_tilde[rows] = proj.d + push
        p[rows] = proj.p
    return ReflectedPoint(y_tilde=y_tilde, d_tilde=d_tilde, exited=exited, p=p,
                          dirichlet=dirichlet, value=value)


def apply_S_control(problem: Problem, mesh: Mesh, next_values, k: int,
                    i: int, a, b, params: SchemeParams) -> float:
    """One-step operator S_{k,i}[Phi](a,b): row i of NodeTable.apply."""
    t = step_time(problem, k, params.dt)
    table = build_node_table(problem, mesh, a, b, params.dt, params.c_bar, t, [i])
    return float(table.apply(problem, mesh, next_values, t)[0][0])


def apply_S(problem: Problem, mesh: Mesh, next_values, k: int, i: int,
            params: SchemeParams) -> float:
    """Minimum of apply_S_control over the finite control grid (tie: first)."""
    best = None
    for a in problem.controls_a:
        for b in problem.controls_b:
            v = apply_S_control(problem, mesh, next_values, k, i, a, b, params)
            if best is None or v < best:
                best = v
    return best


@dataclass
class NodeTable:
    """Classified, located characteristics of one control pair at the
    vertices nodes; row r belongs to vertex nodes[r] and holds its 2*Ns
    branches.

    Valid for every step when the dynamics handles are time-independent.
    Branch (r, s) has the flat index r*2*Ns + s.  A Dirichlet branch has
    zero weights and its exit datum in const.
    """

    nodes: np.ndarray       # (n,) vertex index of each row
    verts: np.ndarray       # (n, 2*Ns, dim+1) vertex indices
    weights: np.ndarray     # (n, 2*Ns, dim+1) interpolation weights
    const: np.ndarray       # (n, 2*Ns) additive constants (dirichlet data)
    dirichlet: np.ndarray   # (n, 2*Ns) Dirichlet exits
    refl: np.ndarray        # (r,) flat branch indices of the oblique exits
    refl_d: np.ndarray      # (r,) their algebraic crossing distances d_tilde
    refl_p: np.ndarray      # (r, dim) their boundary projection points
    dt: float
    a: object = None
    b: object = None

    def apply(self, problem: Problem, mesh: Mesh, next_values, t: float,
              f_cache: np.ndarray = None):
        """S[next_values](a, b) at every row, plus the f array used."""
        contrib = (next_values[self.verts] * self.weights).sum(axis=2) + self.const
        if len(self.refl):
            g = np.array([float(problem.g(t, p, self.b)) for p in self.refl_p])
            contrib.reshape(-1)[self.refl] += self.refl_d * g
        if f_cache is None:
            f_cache = np.array([float(problem.f(t, x, self.a))
                                for x in mesh.vertices[self.nodes]])
        return contrib.mean(axis=1) + self.dt * f_cache, f_cache


def check_weights(weights: np.ndarray):
    """Raise LocationFailure unless every row of weights (..., dim+1) is a
    convex combination: entries >= 0 summing to 1 within WEIGHT_TOL."""
    if weights.size == 0:
        return
    bad = (weights.min(axis=-1) < 0.0) | (np.abs(weights.sum(axis=-1) - 1.0) > WEIGHT_TOL)
    if bad.any():
        raise LocationFailure(f"{int(bad.sum())} interpolation weight rows are "
                              f"not convex combinations")


def build_node_table(problem: Problem, mesh: Mesh, a, b, dt: float,
                     c_bar: float, t: float, nodes) -> NodeTable:
    """The only path from characteristics to classified, located branches:
    the rows of pair (a, b) at time t for the vertex indices nodes, formed,
    classified and located in one batched pass."""
    nodes = np.asarray(nodes, dtype=int)
    n, dim = len(nodes), mesh.dim
    S = 2 * problem.n_sigma
    V = mesh.vertices[nodes]
    X = np.repeat(V, S, axis=0)
    Y = _characteristics(problem, t, V, a, dt).reshape(-1, dim)
    rp = _classify_many(problem, X, Y, b, dt, c_bar)
    # non-Dirichlet branches land in the closed domain
    located = ~rp.dirichlet
    simplex, bary = mesh.locate_many(rp.y_tilde[located])
    verts = np.zeros((n * S, dim + 1), dtype=int)
    weights = np.zeros((n * S, dim + 1))
    verts[located] = mesh.simplices[simplex]
    weights[located] = bary
    check_weights(weights[located])
    refl = np.flatnonzero(rp.exited & located)
    return NodeTable(nodes=nodes, verts=verts.reshape(n, S, dim + 1),
                     weights=weights.reshape(n, S, dim + 1),
                     const=rp.value.reshape(n, S), dirichlet=rp.dirichlet.reshape(n, S),
                     refl=refl, refl_d=rp.d_tilde[refl], refl_p=rp.p[refl],
                     dt=dt, a=a, b=b)


@dataclass
class ValueFunction:
    """Nodal values indexed by physical time: values[k] ~ u(k*dt)."""

    values: np.ndarray       # (N+1, n)
    dt: float
    mesh: Mesh
    problem: Problem

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])

    @property
    def report_index(self) -> int:
        return 0 if self.problem.orientation == "backward" else len(self.values) - 1

    def __call__(self, t: float, x) -> float:
        k = min(max(int(math.floor(t / self.dt + 1e-9)), 0), len(self.values) - 1)
        return self.mesh.interpolate(self.values[k], x)


def sweep(problem: Problem, mesh: Mesh, params: SchemeParams) -> ValueFunction:
    """Backward recursion U_N = Psi, U_k = inf_{a,b} S_{k}[U_{k+1}]."""
    dt, c_bar = params.dt, params.c_bar
    N = n_steps(problem.T, dt)
    if N < 1:
        raise BadParams("dt larger than the horizon")
    n = mesh.n_vertices
    nodes = np.arange(n)
    W = np.empty((N + 1, n))
    W[N] = [float(problem.psi(x)) for x in mesh.vertices]
    pairs = [(a, b) for a in problem.controls_a for b in problem.controls_b]
    tables = None
    if problem.time_independent_dynamics:
        t0 = step_time(problem, N - 1, dt)
        tables = [build_node_table(problem, mesh, a, b, dt, c_bar, t0, nodes)
                  for a, b in pairs]
    f_caches = [None] * len(pairs)
    max_psi = float(np.max(np.abs(W[N])))
    max_f = 0.0
    for k in range(N - 1, -1, -1):
        t = step_time(problem, k, dt)
        if tables is None:
            step_tables = [build_node_table(problem, mesh, a, b, dt, c_bar, t, nodes)
                           for a, b in pairs]
        else:
            step_tables = tables
        best = None
        for j, table in enumerate(step_tables):
            cache = f_caches[j] if problem.time_independent_cost else None
            vals, f_used = table.apply(problem, mesh, W[k + 1], t, f_cache=cache)
            if problem.time_independent_cost:
                f_caches[j] = f_used
            max_f = max(max_f, float(np.max(np.abs(f_used))))
            best = vals if best is None else np.where(vals < best, vals, best)
        W[k] = best
        guard = params.blowup_guard
        if guard is None:
            guard = 1e3 * (max_psi + problem.T * max_f + 1.0)
        if not np.all(np.isfinite(W[k])) or np.max(np.abs(W[k])) > guard:
            raise Unstable(f"values exceeded the blow-up guard {guard:.3g} "
                           f"at step {k}")
    values = W if problem.orientation == "backward" else W[::-1].copy()
    return ValueFunction(values=values, dt=dt, mesh=mesh, problem=problem)


def consistency_residual(problem: Problem, mesh, phi, k: int, x, a, b,
                         params: SchemeParams, boundary: bool = False) -> float:
    """Remainder of the one-step expansion at x for a smooth probe.

    phi = (value, gradient, hessian) handles of a time-independent test
    function.  Interior probes return S[phi] - phi(x) + dt*H_a; boundary
    probes additionally remove the reconstructed crossing term, leaving
    O(dt^{3/2} + dx^2) in both cases.  Pass mesh=None to evaluate phi
    exactly (isolates the dt order).  A Dirichlet exit contributes its
    datum, as in the sweep.
    """
    phi_v, phi_g, phi_h = phi
    dt = params.dt
    t = step_time(problem, k, dt)
    x = as_point(x)
    if mesh is not None:
        nodal = np.array([phi_v(xi) for xi in mesh.vertices])
        interp = lambda z: mesh.interpolate(nodal, z)
    else:
        interp = lambda z: float(phi_v(z))
    ns = problem.n_sigma
    sg = np.asarray(problem.sigma(t, x, a), dtype=float).reshape(problem.domain.dim, ns)
    grad = as_point(phi_g(x))
    hess = np.atleast_2d(phi_h(x))
    Y = _characteristics(problem, t, x[None, :], a, dt)[0]
    rp = _classify_many(problem, np.repeat(x[None, :], len(Y), axis=0), Y, b,
                        dt, params.c_bar)
    acc = float(rp.value[rp.dirichlet].sum())
    crossing = 0.0
    for s in np.flatnonzero(~rp.dirichlet):
        acc += interp(rp.y_tilde[s])
        if rp.exited[s]:
            d = rp.d_tilde[s]
            g = float(problem.g(t, rp.p[s], b))
            acc += d * g
            gt = as_point(problem.gamma(rp.p[s], b))
            l_term = float(np.dot(gt, grad)) - g
            sign = -1.0 if s % 2 == 0 else 1.0   # -/+ for the +/- branch
            k_term = (d / (2.0 * math.sqrt(dt)) * float(gt @ hess @ gt)
                      + sign * math.sqrt(ns) * float(gt @ hess @ sg[:, s // 2]))
            crossing += d * (l_term - math.sqrt(dt) * k_term)
    S = acc / (2 * ns) + dt * float(problem.f(t, x, a))
    mu = as_point(problem.mu(t, x, a))
    H = (-0.5 * float(np.trace(sg @ sg.T @ hess)) - float(np.dot(mu, grad))
         - float(problem.f(t, x, a)))
    r = S - float(phi_v(x)) + dt * H
    if boundary:
        r += crossing / (2 * ns)
    return float(r)
