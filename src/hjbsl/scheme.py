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

    Handles take physical time and rows: X is (n, dim) and P is (r, dim);
    each returns one result per row (see check_shape).  orientation
    'backward' means psi is the terminal datum and values are reported at
    t=0; 'forward' means psi is the initial datum, the sweep runs in
    reversed time internally, and values are reported at t=T.
    """

    domain: Domain
    T: float
    n_sigma: int
    sigma: callable          # (t, X, a) -> (n, dim, n_sigma)
    mu: callable             # (t, X, a) -> (n, dim)
    f: callable              # (t, X, a) -> (n,)
    g: callable              # (t, P, b) -> (r,)
    psi: callable            # (X,) -> (n,)
    gamma: ObliqueField
    controls_a: list
    controls_b: list
    orientation: str = "backward"
    exact_solution: callable = None   # (t, X) -> (n,)
    time_independent_dynamics: bool = False

    def __post_init__(self):
        if self.T <= 0 or self.n_sigma < 1:
            raise BadParams("need T > 0 and n_sigma >= 1")
        if not self.controls_a or not self.controls_b:
            raise BadParams("control sets must be nonempty")
        if self.orientation not in ("backward", "forward"):
            raise BadParams(f"unknown orientation {self.orientation!r}")


def check_shape(name: str, value, shape: tuple) -> np.ndarray:
    """A handle's result as a float array of exactly shape; BadParams
    otherwise.  Nothing is broadcast: a one-point handle given a batch of
    rows returns one value, which would fill every row."""
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise BadParams(f"{name} returned shape {out.shape} for {shape[0]} rows; "
                        f"expected {shape}")
    return out


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
    on all rows."""
    n, dim, ns = len(X), problem.domain.dim, problem.n_sigma
    mu = check_shape("mu", problem.mu(t, X, a), (n, dim))
    sg = check_shape("sigma", problem.sigma(t, X, a), (n, dim, ns))
    base = X + dt * mu
    # base +- sqrt(Ns*dt) * sigma_l for each column l, interleaved
    step = math.sqrt(ns * dt) * np.swapaxes(sg, -1, -2)
    out = np.empty((n, 2 * ns, dim))
    out[:, 0::2] = base[:, None, :] + step
    out[:, 1::2] = base[:, None, :] - step
    return out


def check_time_independent_dynamics(problem: Problem, mesh: Mesh, dt: float):
    """BadParams unless mu and sigma agree on every vertex at the first and
    last step times, for each control a; readers that share one table
    across steps call this first."""
    N = n_steps(problem.T, dt)
    times = (step_time(problem, 0, dt), step_time(problem, N - 1, dt))
    X = mesh.vertices
    for a in problem.controls_a:
        for name in ("mu", "sigma"):
            handle = getattr(problem, name)
            first, last = (np.asarray(handle(t, X, a), dtype=float) for t in times)
            if not np.array_equal(first, last):
                raise BadParams(f"time_independent_dynamics is set, but {name} "
                                f"differs between t={times[0]:g} and t={times[1]:g}")


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

    def apply(self, problem: Problem, mesh: Mesh, next_values, t: float):
        """S[next_values](a, b) at every row, plus the f values used; one f
        call on the rows' vertices and one g call on all reflections."""
        contrib = (next_values[self.verts] * self.weights).sum(axis=2) + self.const
        if len(self.refl):
            g = check_shape("g", problem.g(t, self.refl_p, self.b), (len(self.refl),))
            contrib.reshape(-1)[self.refl] += self.refl_d * g
        f = check_shape("f", problem.f(t, mesh.vertices[self.nodes], self.a),
                        (len(self.nodes),))
        return contrib.mean(axis=1) + self.dt * f, f


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
    W[N] = check_shape("psi", problem.psi(mesh.vertices), (n,))
    pairs = [(a, b) for a in problem.controls_a for b in problem.controls_b]
    tables = None
    if problem.time_independent_dynamics:
        check_time_independent_dynamics(problem, mesh, dt)
        t0 = step_time(problem, N - 1, dt)
        tables = [build_node_table(problem, mesh, a, b, dt, c_bar, t0, nodes)
                  for a, b in pairs]
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
        for table in step_tables:
            vals, f_used = table.apply(problem, mesh, W[k + 1], t)
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
    ns, dim = problem.n_sigma, problem.domain.dim
    X = x[None, :]
    sg = check_shape("sigma", problem.sigma(t, X, a), (1, dim, ns))[0]
    mu = check_shape("mu", problem.mu(t, X, a), (1, dim))[0]
    f = float(check_shape("f", problem.f(t, X, a), (1,))[0])
    grad = as_point(phi_g(x))
    hess = np.atleast_2d(phi_h(x))
    Y = _characteristics(problem, t, X, a, dt)[0]
    rp = _classify_many(problem, np.repeat(X, len(Y), axis=0), Y, b,
                        dt, params.c_bar)
    acc = float(rp.value[rp.dirichlet].sum())
    crossing = 0.0
    for s in np.flatnonzero(~rp.dirichlet):
        acc += interp(rp.y_tilde[s])
        if rp.exited[s]:
            d = rp.d_tilde[s]
            g = float(check_shape("g", problem.g(t, rp.p[s][None, :], b), (1,))[0])
            acc += d * g
            gt = as_point(problem.gamma(rp.p[s], b))
            l_term = float(np.dot(gt, grad)) - g
            sign = -1.0 if s % 2 == 0 else 1.0   # -/+ for the +/- branch
            k_term = (d / (2.0 * math.sqrt(dt)) * float(gt @ hess @ gt)
                      + sign * math.sqrt(ns) * float(gt @ hess @ sg[:, s // 2]))
            crossing += d * (l_term - math.sqrt(dt) * k_term)
    S = acc / (2 * ns) + dt * f
    H = -0.5 * float(np.trace(sg @ sg.T @ hess)) - float(np.dot(mu, grad)) - f
    r = S - float(phi_v(x)) + dt * H
    if boundary:
        r += crossing / (2 * ns)
    return float(r)
