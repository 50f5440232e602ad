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
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParams, LocationFailure, OutsideDomain, OutsideTube, Unstable
from .geometry import (
    TOL_BOUNDARY,
    Domain,
    ObliqueField,
    as_point,
    oblique_projection_many,
    point_shape,
    real_array,
    real_scalar,
    rows_shape,
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
    each returns real numbers of exactly the shape noted below, one result
    per row, and nothing is broadcast: a one-point handle given a batch of
    rows returns one value, which would fill every row.  orientation
    'backward' means psi is the terminal datum and values are reported at
    t=0; 'forward' means psi is the initial datum, the sweep runs in
    reversed time internally, and values are reported at t=T.
    control_free_cost promises that f does not read its control a, so one
    f call serves every control (Operator.running_cost checks it); it and
    time_independent_dynamics are bools.  Each control set is any nonempty
    sequence, an array included, and is held as a list.  The
    points kept across steps and the vertices mu, sigma and psi read are
    read-only.
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
    control_free_cost: bool = False

    def __post_init__(self):
        check_type("domain", self.domain, Domain)
        check_type("gamma", self.gamma, ObliqueField)
        for name in ("sigma", "mu", "f", "g", "psi", "exact_solution"):
            handle = getattr(self, name)
            if not (callable(handle) or name == "exact_solution" and handle is None):
                raise BadParams(f"{name} must be callable, got {handle!r}")
        self.T = real_scalar(self.T, "T")
        if not 0 < self.T < math.inf:
            raise BadParams(f"T must be positive and finite, got {self.T!r}")
        check_integer("n_sigma", self.n_sigma, 1)
        for name in ("controls_a", "controls_b"):
            # a list, so that its controls stay the same objects across calls
            try:
                controls = list(getattr(self, name))
            except TypeError:
                raise BadParams(f"{name} must be a sequence of controls") from None
            if not controls:
                raise BadParams("control sets must be nonempty")
            setattr(self, name, controls)
        for name in ("time_independent_dynamics", "control_free_cost"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise BadParams(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.orientation not in ("backward", "forward"):
            raise BadParams(f"unknown orientation {self.orientation!r}")


def check_type(name: str, value, kind: type):
    """BadParams unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise BadParams(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")


def check_inputs(problem: Problem, mesh: Mesh, params: SchemeParams):
    """BadParams unless problem is a Problem, mesh a Mesh and params a
    SchemeParams: what an entry point checks before it reads any of them."""
    check_type("problem", problem, Problem)
    check_type("mesh", mesh, Mesh)
    check_type("params", params, SchemeParams)


def check_integer(name: str, value, lo: int, hi=math.inf) -> int:
    """value as an int; BadParams unless it is an integer in lo..hi, bools
    excluded."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value <= hi):
        raise BadParams(f"{name} must be an integer in {lo}..{hi}, got {value!r}")
    return int(value)


@dataclass
class SchemeParams:
    dt: float
    c_bar: float

    def __post_init__(self):
        self.dt, self.c_bar = real_scalar(self.dt, "dt"), real_scalar(self.c_bar, "c_bar")
        if not (0 < self.dt < math.inf and 0 < self.c_bar < math.inf):
            raise BadParams(f"dt and c_bar must be positive and finite, got "
                            f"dt={self.dt!r}, c_bar={self.c_bar!r}")


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


def whole_steps(T: float, dt: float) -> int:
    """n_steps(T, dt) for a solve of the whole horizon: BadParams unless
    dt divides T to within 1e-9 steps, at least once."""
    N = n_steps(T, dt)
    if N < 1:
        raise BadParams("dt larger than the horizon")
    if abs(T / dt - N) > 1e-9:
        raise BadParams(f"dt={dt:g} does not divide the horizon T={T:g}")
    return N


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
    mu = real_array(problem.mu(t, X, a), "mu", (n, dim))
    sg = real_array(problem.sigma(t, X, a), "sigma", (n, dim, ns))
    for name, value in (("mu", mu), ("sigma", sg)):
        if not np.isfinite(value).all():
            raise BadParams(f"{name} returned a value that is not finite at t={t:g}")
    base = X + dt * mu
    # base +- sqrt(Ns*dt) * sigma_l for each column l, interleaved
    step = math.sqrt(ns * dt) * np.swapaxes(sg, -1, -2)
    out = np.empty((n, 2 * ns, dim))
    out[:, 0::2] = base[:, None, :] + step
    out[:, 1::2] = base[:, None, :] - step
    return out


def _classify_many(problem: Problem, X, Y, ib, dt: float,
                   c_bar: float) -> ReflectedPoint:
    """Route each characteristic Y[j] from its vertex X[j] to the interior,
    a Dirichlet exit or a reflection, in one batched pass; ib is the index
    into problem.controls_b of each row's control b, or one index for every
    row, and the reflected rows make one oblique projection call per
    control b among them.

    p is set on reflected rows and zero elsewhere; the boundary cost
    g(t, p, b) is left to the caller, since it depends on the step's time.
    """
    dom = problem.domain
    m = len(Y)
    exited = ~(dom.signed_distance_many(Y) <= TOL_BOUNDARY)
    y_tilde = Y.copy()
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
        push = c_bar * math.sqrt(dt)
        ib = np.broadcast_to(ib, (m,))
        for b, sel, P in control_groups(problem.controls_b, ib[rows], Y[rows]):
            # the nominal tube radius can be exceeded by coarse steps; rely
            # on the containment check on the pulled-back points instead
            proj = oblique_projection_many(dom, problem.gamma, b, P, r_max=math.inf)
            y_tilde[rows[sel]] = proj.p - push * proj.gamma
            d_tilde[rows[sel]] = proj.d + push
            p[rows[sel]] = proj.p
        if not np.all(dom.signed_distance_many(y_tilde[rows]) <= TOL_BOUNDARY):
            raise OutsideTube(PULLED_OUTSIDE)
    return ReflectedPoint(y_tilde=y_tilde, d_tilde=d_tilde, exited=exited, p=p,
                          dirichlet=dirichlet, value=value)


def apply_S(problem: Problem, mesh: Mesh, next_values, k: int, i: int,
            params: SchemeParams) -> float:
    """Minimum of S_{k,i}[Phi](a,b) over the finite control grid: the
    minimum of vertex i's rows under every pair, read from the every-row
    apply, as the sweep reads them."""
    check_inputs(problem, mesh, params)
    op = Operator(problem, mesh, params)
    k = check_integer("step k", k, 0, op.N - 1)
    i = check_integer("vertex", i, 0, mesh.n_vertices - 1)
    U = real_array(next_values, "next_values", (mesh.n_vertices,))
    return float(op.apply(k, U)[0][i::mesh.n_vertices].min())


def check_weights(weights: np.ndarray):
    """Raise LocationFailure unless every row of weights (..., dim+1) is a
    convex combination: entries >= 0 summing to 1 within WEIGHT_TOL; a NaN
    or infinite entry fails one of the two tests.  The least entry and the
    sum are taken column by column, not as numpy's slow reductions over a
    short last axis."""
    if weights.size == 0:
        return
    low = total = weights[..., 0]
    for k in range(1, weights.shape[-1]):
        low = np.minimum(low, weights[..., k])
        total = total + weights[..., k]
    bad = ~((low >= 0.0) & (np.abs(total - 1.0) <= WEIGHT_TOL))
    if bad.any():
        raise LocationFailure(f"{int(bad.sum())} interpolation weight rows are "
                              f"not convex combinations")


@dataclass(eq=False)
class Rows:
    """Every control pair's rows over all mesh vertices at one step key.

    Every array is indexed by stacked row r = c*n + j, the row of vertex j
    under pair code c = ia*len(controls_b) + ib.  Each of a row's 2*Ns
    branches holds the simplex vertices and P1 weights of its landing
    point; slot q = s*(dim+1) + v is vertex v of branch s, and the row's P
    entries are its slots' probs = weight/(2*Ns), duplicate vertices not
    summed, held slot-major.  A Dirichlet branch has zero probs and its
    exit datum in const, and const_mean is each row's const summed over
    its branches and divided by 2*Ns; an oblique exit has its crossing
    distance d_tilde in refl_d (0 off the oblique exits) and its boundary
    projection point in refl_p.

    For the Monte Carlo draw, slot q of row r is drawn when a uniform draw
    times cum[-1, r] falls below cum[q, r] and not below cum[q-1, r], cum
    being the running sums of the weights; a Dirichlet branch puts its
    whole mass on its first slot.  layer marks the rows with an exiting
    branch.
    """

    verts: np.ndarray        # (K, pairs*n) int, K = 2*Ns*(dim+1)
    probs: np.ndarray        # (K, pairs*n)
    cum: np.ndarray          # (K, pairs*n)
    const: np.ndarray        # (pairs*n, S)
    const_mean: np.ndarray   # (pairs*n,)
    dirichlet: np.ndarray    # (pairs*n, S) bool
    refl_d: np.ndarray       # (pairs*n, S)
    refl_p: np.ndarray       # (pairs*n, S, dim)
    layer: np.ndarray        # (pairs*n,) bool
    terms: tuple = None      # every row's terms, at the first every-row apply


def stacked_product(slots: tuple, U) -> np.ndarray:
    """P @ U on every row for the store's (verts, probs) and float U (n,),
    added slot by slot from zero as a CSR product adds them: numpy reduces
    the leading axis of a C-contiguous block (take's order) row by row once
    it has two columns or more, as every store has, but sums one column
    pairwise, so no gathered row is given a product."""
    verts, probs = slots
    out = U.take(verts)
    out *= probs
    return np.add.reduce(out, axis=0, initial=0.0)


def build_node_table(problem: Problem, mesh: Mesh, params: SchemeParams,
                     times: list) -> Rows:
    """The only path from characteristics to classified, located branches:
    the store of every pair over every vertex at time times[0], formed,
    classified and located in one batched pass.  Characteristics take one
    mu and one sigma call per control a and per time, on a read-only view
    of the vertices, classification one _classify_many call and location
    one locate_many call.  A row depends on mu and sigma only through its
    characteristics, so BadParams unless those at times[1:] equal those at
    times[0], which the rows then serve."""
    na, nb = len(problem.controls_a), len(problem.controls_b)
    dim, S = mesh.dim, 2 * problem.n_sigma
    n = na * nb * mesh.n_vertices
    X = read_only(mesh.vertices.view())
    # a branch's characteristic does not depend on its pair's control b
    Y = np.empty((na, nb, mesh.n_vertices, S, dim))
    for ia, a in enumerate(problem.controls_a):
        Y[ia] = first = _characteristics(problem, times[0], X, a, params.dt)
        for t in times[1:]:
            if not np.array_equal(first, _characteristics(problem, t, X, a, params.dt)):
                raise BadParams(f"time_independent_dynamics is set, but the characteristics "
                                f"differ between t={times[0]:g} and t={t:g}")
    # each branch's vertex and control b, in stacked row order
    rp = _classify_many(problem, np.broadcast_to(X[:, None], Y.shape).reshape(-1, dim),
                        Y.reshape(-1, dim),
                        np.broadcast_to(np.arange(nb)[:, None, None], Y.shape[:-1]).ravel(),
                        params.dt, params.c_bar)
    # classification copied the characteristics; release them before location
    del Y
    dirichlet = rp.dirichlet.reshape(n, S)
    # non-Dirichlet branches land in the closed domain
    located = ~dirichlet
    simplex, bary = mesh.locate_many(rp.y_tilde.reshape(n, S, dim)[located])
    check_weights(bary)
    verts = np.zeros((S * (dim + 1), n), dtype=int)
    cum = np.zeros(verts.shape)
    # the (row, branch, vertex) views of the slot-major arrays
    verts_rbv, cum_rbv = (a.reshape(S, dim + 1, n).transpose(2, 0, 1) for a in (verts, cum))
    verts_rbv[located] = mesh.simplices.take(simplex, axis=0)
    cum_rbv[located] = bary
    # P's entries, from the weights before they become slot masses
    probs = cum / S
    # the slot masses, a Dirichlet branch's all on its first slot
    cum_rbv[dirichlet, 0] = 1.0
    exits = rp.exited.reshape(n, S)
    layer = exits[:, 0].copy()
    # the running sums and any() slot by slot, not as numpy's slow
    # accumulations along a short last axis; the sums are cumsum's
    for k in range(1, len(cum)):
        cum[k] += cum[k - 1]
    for k in range(1, S):
        layer |= exits[:, k]
    const = rp.value.reshape(n, S)
    return Rows(verts=verts, probs=probs, cum=cum, const=const,
                const_mean=const.sum(axis=1) / S, dirichlet=dirichlet,
                refl_d=rp.d_tilde.reshape(n, S), refl_p=rp.p.reshape(n, S, dim),
                layer=layer)


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: points kept across steps, which a handle that
    writes its input must not change."""
    a.flags.writeable = False
    return a


def terminal_values(problem: Problem, mesh: Mesh) -> np.ndarray:
    """psi at every vertex, called on a read-only view of mesh.vertices:
    BadParams unless it returns one finite number per vertex."""
    psi = real_array(problem.psi(read_only(mesh.vertices.view())), "psi", (mesh.n_vertices,))
    if not np.isfinite(psi).all():
        raise BadParams("psi returned a value that is not finite")
    return psi


def control_groups(controls: list, index, X) -> list:
    """The rows of X by control: (controls[i], the rows r with index[r] == i,
    X at those rows) for each i that occurs in index, in ascending i: one
    stable argsort of index, split by its counts, or no sort when one i
    occurs.  X's rows are always a copy, as the caller may change X."""
    counts = np.bincount(index)
    if len(counts) and counts[-1] == len(index):
        return [(controls[len(counts) - 1], np.arange(len(index)), X.copy())]
    # numpy's stable sort of one-byte keys is a radix sort
    order = np.argsort(index.astype(np.uint8) if len(counts) <= 256 else index,
                       kind="stable")
    groups, end = [], 0
    for i, count in enumerate(counts.tolist()):
        if count:
            sel = order[end:end + count]
            groups.append((controls[i], sel, X[sel]))
            end += count
    return groups


def per_control(name: str, handle, t: float, groups: list, n: int) -> np.ndarray:
    """handle(t, points, control) for each (control, rows, points) group,
    written to those rows (ascending, as an index array or a slice) of an
    (n,) result: one call per group, each result checked to hold one number
    per point.  A group of all n rows is the result itself."""
    if len(groups) == 1 and len(groups[0][2]) == n:
        control, _, X = groups[0]
        return real_array(handle(t, X, control), name, (n,))
    out = np.empty(n)
    for control, sel, X in groups:
        out[sel] = real_array(handle(t, X, control), name, (len(X),))
    return out


class Operator:
    """The scheme's one-step operator at every step, read as a Markov chain:
    on the stacked row r = c*n + j of pair code c and vertex j,

        S[U] = (P @ U)[r] + const + crossings + dt*f,

    P being the stacked (pairs*n, n) substochastic matrix, const the mean
    Dirichlet datum of the row's branches and crossings their mean
    d_tilde*g; f is running_cost's, the one path by which the sweep and
    the chain call f.  Each step key has one Rows store, built whole at its
    first read (rows): the key is the step, or None when
    time_independent_dynamics shares one store across steps, built at the
    first step time whichever step is read first; the build checks the
    flag on its rows at the last step time.  Only the latest key's
    store is kept, so a reader walks the steps in order.  Rows classify with
    problem.domain and locate with the mesh, which must discretize it.
    """

    def __init__(self, problem: Problem, mesh: Mesh, params: SchemeParams):
        mesh.check_domain(problem.domain)
        self.problem = problem
        self.mesh = mesh
        self.params = params
        self.N = n_steps(problem.T, params.dt)
        self.S = 2 * problem.n_sigma
        self.nb = len(problem.controls_b)
        self.n_pairs = len(problem.controls_a) * self.nb
        self.times = [step_time(problem, m, params.dt) for m in range(self.N)]
        # a shared store's build times: the first step time, then the last
        # when there are two steps or more
        self._shared_times = self.times[::max(self.N - 1, 1)]
        self._key = self._rows = None
        # every row's f points, kept across steps
        self._vertices = read_only(mesh.vertices.copy())
        # control_free_cost checked, or nothing to check
        self._f_checked = not problem.control_free_cost

    def rows(self, m: int) -> Rows:
        """The store at step m, built whole at its first read by one
        build_node_table call.  The store is kept only once built, so a
        build that raises leaves none."""
        if not 0 <= m < self.N:
            raise BadParams(f"step {m} outside 0..{self.N - 1}")
        key = None if self.problem.time_independent_dynamics else m
        if self._rows is None or key != self._key:
            # release the previous step's store before building this one
            self._rows = None
            times = self._shared_times if key is None else [self.times[m]]
            self._rows = build_node_table(self.problem, self.mesh, self.params, times)
            self._key = key
        return self._rows

    def _terms(self, rows: Rows, flat) -> tuple:
        """S's pieces other than P and f on the stacked rows flat, or on
        every row when flat is slice(None): their mean Dirichlet datum,
        their oblique exits as (row r, d_tilde/(2*Ns)), and the
        control_groups of the exits' projection points for g."""
        refl_d = rows.refl_d[flat]
        r, s = np.nonzero(refl_d)
        exits = r if isinstance(flat, slice) else flat[r]
        return (rows.const_mean[flat], r, refl_d[r, s] / self.S,
                control_groups(self.problem.controls_b,
                               exits // self.mesh.n_vertices % self.nb,
                               rows.refl_p[exits, s]))

    def apply(self, m: int, U, flat=None) -> tuple:
        """S[U] at step m on every row in stacked order, or S[0] on the
        stacked rows flat, whose U must be None (BadParams): one gathered
        row's product would not add its slots as the every-row one does.
        Returns (S, the f values of running_cost, P restricted to those rows
        as their columns (verts, probs), each (K, rows)); makes one g call
        per control b over the rows' oblique exits.  On every row the other
        terms are formed once per store, the g points read-only, and P @ U
        is stacked_product, or +0.0 on every row with no product for U
        None, as the product with zeros gives it."""
        if flat is not None and U is not None:
            raise BadParams("a gathered apply is S[0]: U must be None")
        rows = self.rows(m)
        pr, t = self.problem, self.times[m]
        if flat is None:
            if rows.terms is None:
                rows.terms = self._terms(rows, slice(None))
                for _, _, P in rows.terms[-1]:
                    read_only(P)
            P, terms = (rows.verts, rows.probs), rows.terms
        else:
            flat = np.asarray(flat, dtype=int)
            P = rows.verts.take(flat, axis=1), rows.probs.take(flat, axis=1)
            terms = self._terms(rows, flat)
        v = np.zeros(P[0].shape[1]) if U is None else stacked_product(P, U)
        const, r, d, g_groups = terms
        f = self.running_cost(m, flat)
        # added left to right as P @ U + const + crossings + dt*f
        v += const
        v += np.bincount(r, weights=d * per_control("g", pr.g, t, g_groups, len(r)),
                         minlength=len(v))
        if flat is None:
            # f's row for control a stands for each of a's nb pair blocks
            blocks = v.reshape(-1, self.nb, self.mesh.n_vertices)
            blocks += self.params.dt * f[:, None]
        else:
            v += self.params.dt * f
        return v, f, P

    def running_cost(self, m: int, flat=None) -> np.ndarray:
        """f at step m on the stacked rows flat, one call per control a
        among them, or on every row as an (n_a, n) array whose row ia is one
        call on the operator's read-only copy of the vertices.  With
        control_free_cost each is one call, every row's a (1, n) array, and
        the operator's first call checks the promise: BadParams unless
        f(t, mesh.vertices, a) is the same for every a, NaN equal to NaN."""
        pr, t, n = self.problem, self.times[m], self.mesh.n_vertices
        free = pr.control_free_cost
        if not self._f_checked:
            first, *rest = [real_array(pr.f(t, self._vertices, a), "f", (n,))
                            for a in pr.controls_a]
            for ia, other in enumerate(rest, 1):
                if not np.array_equal(first, other, equal_nan=True):
                    raise BadParams(f"control_free_cost is set, but f at t={t:g} differs "
                                    f"between controls a 0 and {ia}")
            self._f_checked = True
        if flat is None:
            controls = pr.controls_a[:1] if free else pr.controls_a
            return np.array([real_array(pr.f(t, self._vertices, a), "f", (n,))
                             for a in controls])
        X = self.mesh.vertices[flat % n]
        groups = ([(pr.controls_a[0], slice(None), X)] if free else
                  control_groups(pr.controls_a, flat // (self.nb * n), X))
        return per_control("f", pr.f, t, groups, len(X))


@dataclass
class ValueFunction:
    """Nodal values indexed by physical time: values[k] ~ u(k*dt).
    BadParams unless mesh is a Mesh of problem's dimension, problem a
    Problem, dt a positive finite real and values a real 2-D array of at
    least one row and one column per mesh vertex; a float array is kept,
    not copied."""

    values: np.ndarray       # (N+1, n)
    dt: float
    mesh: Mesh
    problem: Problem

    def __post_init__(self):
        check_type("mesh", self.mesh, Mesh)
        check_type("problem", self.problem, Problem)
        self.dt = real_scalar(self.dt, "dt")
        if not 0 < self.dt < math.inf:
            raise BadParams(f"dt must be positive and finite, got {self.dt!r}")
        self.values = real_array(self.values, "values")
        if not (self.values.ndim == 2 and len(self.values) >= 1
                and self.values.shape[1] == self.mesh.n_vertices):
            raise BadParams(f"values of shape {self.values.shape}, expected (steps + 1, "
                            f"{self.mesh.n_vertices})")
        if self.mesh.dim != self.problem.domain.dim:
            raise BadParams(f"a {self.mesh.dim}D mesh of a {self.problem.domain.dim}D domain")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])

    @property
    def report_index(self) -> int:
        return 0 if self.problem.orientation == "backward" else len(self.values) - 1

    def __call__(self, t: float, x):
        """P1 value at x of the step whose time is the largest at or below
        t; BadParams unless t lies in [0, N*dt] up to 1e-9*dt.  A point x
        (dim,) gives a float, rows x (m, dim) an (m,) array of the same
        values.  BadParams unless t is one real number and x real numbers;
        OutsideDomain unless every point lies in problem.domain, closed up
        to TOL_BOUNDARY."""
        s = real_scalar(t, "time") / self.dt
        N = len(self.values) - 1
        if not -1e-9 <= s <= N + 1e-9:
            raise BadParams(f"time {t!r} outside [0, {N * self.dt:g}]")
        nodal = self.values[int(math.floor(s + 1e-9))]
        # x is converted once, and nodal is the sweep's own float row
        x = real_array(x, "point or rows x")
        dom = self.problem.domain
        if x.ndim == 2:
            x = rows_shape(x, self.mesh.dim)
            out = ~(dom.signed_distance_many(x) <= TOL_BOUNDARY)
            if out.any():
                raise OutsideDomain(f"point {x[out.argmax()]!r} outside the closed domain")
            return self.mesh._interpolate_rows(nodal, x)
        coords = point_shape(x, self.mesh.dim).tolist()
        if not dom._distance(coords) <= TOL_BOUNDARY:
            raise OutsideDomain(f"point {coords!r} outside the closed domain")
        verts, w = self.mesh._point_weights(coords)
        return float(np.dot(nodal[verts], w))


def sweep(problem: Problem, mesh: Mesh, params: SchemeParams) -> ValueFunction:
    """Backward recursion U_N = Psi, U_k = inf_{a,b} S_{k}[U_{k+1}]: the
    minimum over the pair blocks of the stacked rows, written in place.
    BadParams when psi is not finite.  Unstable once a value is not finite
    or exceeds the blow-up guard 1e3*(max|psi| + T*max|f| + 1), max|f|
    taken over the steps swept so far; both are tested on the one
    reduction max|U_k| per step."""
    check_inputs(problem, mesh, params)
    N = whole_steps(problem.T, params.dt)
    op = Operator(problem, mesh, params)
    n = mesh.n_vertices
    W = np.empty((N + 1, n))
    W[N] = terminal_values(problem, mesh)
    max_psi = float(np.abs(W[N]).max())
    max_f = 0.0
    for k in range(N - 1, -1, -1):
        v, f, _ = op.apply(k, W[k + 1])
        max_f = max(max_f, float(np.abs(f).max()))
        v.reshape(op.n_pairs, n).min(axis=0, out=W[k])
        guard = 1e3 * (max_psi + problem.T * max_f + 1.0)
        # one reduction: a NaN or an inf fails the first test whatever the
        # guard, so this raises exactly when a value is not finite or above it
        top = float(np.abs(W[k]).max())
        if not top < math.inf or top > guard:
            raise Unstable(f"values exceeded the blow-up guard {guard:.3g} "
                           f"at step {k}")
    values = W if problem.orientation == "backward" else W[::-1].copy()
    return ValueFunction(values=values, dt=params.dt, mesh=mesh, problem=problem)


def consistency_residual(problem: Problem, phi, k: int, x, a, b,
                         params: SchemeParams, boundary: bool = False) -> float:
    """Remainder of the one-step expansion at x for a smooth probe.

    phi = (value, gradient, hessian) handles of a time-independent test
    function, evaluated exactly at the landing points, which isolates the
    dt order.  Interior probes return S[phi] - phi(x) + dt*H_a; boundary
    probes additionally remove the reconstructed crossing term, leaving
    O(dt^{3/2}) in both cases.  A Dirichlet exit contributes its datum, as
    in the sweep.
    """
    check_type("problem", problem, Problem)
    check_type("params", params, SchemeParams)
    phi_v, phi_g, phi_h = phi
    dt = params.dt
    k = check_integer("step k", k, 0, n_steps(problem.T, dt) - 1)
    t = step_time(problem, k, dt)
    ns, dim = problem.n_sigma, problem.domain.dim
    x = as_point(x, dim)
    X = x[None, :]
    sg = real_array(problem.sigma(t, X, a), "sigma", (1, dim, ns))[0]
    mu = real_array(problem.mu(t, X, a), "mu", (1, dim))[0]
    f = float(real_array(problem.f(t, X, a), "f", (1,))[0])
    grad = as_point(phi_g(x), dim, "phi gradient")
    hess = real_array(phi_h(x), "phi hessian")
    # one number is a 1D Hessian, as one number is a 1D point
    if dim == 1 and hess.shape in ((), (1,)):
        hess = hess.reshape(1, 1)
    if hess.shape != (dim, dim):
        raise BadParams(f"phi hessian of shape {hess.shape}, expected ({dim}, {dim})")
    Y = _characteristics(problem, t, X, a, dt)[0]
    rp = _classify_many(replace(problem, controls_b=[b]), np.repeat(X, len(Y), axis=0),
                        Y, 0, dt, params.c_bar)
    acc = float(rp.value[rp.dirichlet].sum())
    crossing = 0.0
    for s in np.flatnonzero(~rp.dirichlet):
        acc += real_scalar(phi_v(rp.y_tilde[s]), "phi value")
        if rp.exited[s]:
            d = rp.d_tilde[s]
            g = float(real_array(problem.g(t, rp.p[s][None, :], b), "g", (1,))[0])
            acc += d * g
            gt = problem.gamma(rp.p[s][None, :], b)[0]
            l_term = float(np.dot(gt, grad)) - g
            sign = -1.0 if s % 2 == 0 else 1.0   # -/+ for the +/- branch
            k_term = (d / (2.0 * math.sqrt(dt)) * float(gt @ hess @ gt)
                      + sign * math.sqrt(ns) * float(gt @ hess @ sg[:, s // 2]))
            crossing += d * (l_term - math.sqrt(dt) * k_term)
    S = acc / (2 * ns) + dt * f
    H = -0.5 * float(np.trace(sg @ sg.T @ hess)) - float(np.dot(mu, grad)) - f
    r = S - real_scalar(phi_v(x), "phi value") + dt * H
    if boundary:
        r += crossing / (2 * ns)
    return float(r)
