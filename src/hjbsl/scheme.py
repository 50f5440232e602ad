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

from .errors import BadParams, LocationFailure, OutsideTube, Unstable
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
# most rows (vertex, pair) of one build_node_table pass, unless one pair has
# more; each row has 2*N_sigma branches, located in mesh.LOCATE_CHUNK chunks
# (README, "One operator")
PASS_ROWS = 2048
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
    f call serves every control (Operator.running_cost checks it).
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
        self.T = real_scalar(self.T, "T")
        if not 0 < self.T < math.inf:
            raise BadParams(f"T must be positive and finite, got {self.T!r}")
        check_integer("n_sigma", self.n_sigma, 1)
        if not self.controls_a or not self.controls_b:
            raise BadParams("control sets must be nonempty")
        if self.orientation not in ("backward", "forward"):
            raise BadParams(f"unknown orientation {self.orientation!r}")


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
    minimum of vertex i's rows under every pair."""
    op = Operator(problem, mesh, params)
    k = check_integer("step k", k, 0, op.N - 1)
    i = check_integer("vertex", i, 0, mesh.n_vertices - 1)
    U = real_array(next_values, "next_values", (mesh.n_vertices,))
    codes = np.arange(op.n_pairs)
    return float(op.apply(k, U, codes, np.full(op.n_pairs, i))[0].min())


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


class Rows:
    """Every control pair's rows over all mesh vertices at one step key.

    [c, j] is the row of vertex j under pair code c = ia*len(controls_b) + ib,
    and row c*n + j of the stacked operator, which is the arrays' flat row
    order; built marks the rows written so far.  Each of a row's 2*Ns
    branches holds the simplex vertices and P1 weights of its landing point.
    A Dirichlet branch has zero weights and its exit datum in const; an
    oblique exit has its crossing distance d_tilde in refl_d (0 off the
    oblique exits) and its boundary projection point in refl_p.

    For the Monte Carlo draw, slot q = s*(dim+1) + v of a row's flattened
    (branch, simplex vertex) grid is drawn when a uniform draw times
    cum[c, j, -1] falls below cum[c, j, q] and not below cum[c, j, q-1]; a
    Dirichlet branch puts its whole mass on its first slot.  layer marks
    the rows with an exiting branch.  f_checked marks a store on which
    Operator.running_cost checked control_free_cost.
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
        self.stacked = None     # every row's terms, once all are built
        self.f_checked = False

    def slots(self, codes, nodes) -> tuple:
        """The rows [codes[r], nodes[r]] of the stacked (pairs*n, n)
        operator P as (vertex, entry) arrays, each (rows, 2*Ns*(dim+1)), in
        (branch, simplex vertex) slot order: entries weight/(2*Ns), with
        duplicate vertices not summed."""
        S = self.const.shape[2]
        return (self.verts[codes, nodes].reshape(len(codes), -1),
                self.weights[codes, nodes].reshape(len(codes), -1) / S)

    def stacked_slots(self) -> tuple:
        """The slots of every row in stacked order, slot-major: (vertex,
        entry) arrays, each C-contiguous (2*Ns*(dim+1), pairs*n), whose
        transposes are the slots of every row."""
        rows = self.built.size
        return (self.verts.reshape(rows, -1).T.copy(),
                (self.weights.reshape(rows, -1) / self.const.shape[2]).T.copy())


def slot_product(slots: tuple, U) -> np.ndarray:
    """P[rows] @ U for the rows' slots (verts, probs) of Rows.slots: each
    row's products added slot by slot from zero, one column at a time, as
    stacked_product adds them, so the two agree bitwise on any row count."""
    verts, probs = slots
    out = np.zeros(len(verts))
    for column in (probs * U[verts]).T:
        out += column
    return out


def stacked_product(slots: tuple, U) -> np.ndarray:
    """P @ U on every row for the slot-major slots (verts, probs) of
    Rows.stacked_slots and float U (n,), added slot by slot from zero as a
    CSR product adds them: numpy reduces the leading axis of a C-contiguous
    block (take's order) row by row once it has two columns or more, as
    every store has, but sums one row pairwise; gathered rows use
    slot_product."""
    verts, probs = slots
    out = U.take(verts)
    out *= probs
    return np.add.reduce(out, axis=0, initial=0.0)


def build_node_table(problem: Problem, mesh: Mesh, params: SchemeParams,
                     rows: Rows, times: list, flat):
    """The only path from characteristics to classified, located branches:
    the store's rows at the ascending flat indices flat (flat row c*n + j is
    the row [c, j]) at time times[0], formed, classified and located in one
    batched pass and written to the store, as one slice when they are
    consecutive.  Characteristics take one mu and one sigma call per
    control a among the rows and per time, classification one
    _classify_many call and location one locate_many call.  A row depends
    on mu and sigma only through its characteristics, so BadParams unless
    those at times[1:] equal those at times[0], which the rows then serve."""
    nb = len(problem.controls_b)
    n, dim = len(flat), mesh.dim
    S = 2 * problem.n_sigma
    codes, nodes = np.divmod(flat, mesh.n_vertices)
    V = mesh.vertices[nodes]
    Y = np.empty((n, S, dim))
    for a, sel, X in control_groups(problem.controls_a, codes // nb, V):
        Y[sel] = first = _characteristics(problem, times[0], X, a, params.dt)
        for t in times[1:]:
            if not np.array_equal(first, _characteristics(problem, t, X, a, params.dt)):
                raise BadParams(f"time_independent_dynamics is set, but the characteristics "
                                f"differ between t={times[0]:g} and t={t:g}")
    rp = _classify_many(problem, np.repeat(V, S, axis=0), Y.reshape(-1, dim),
                        np.repeat(codes % nb, S), params.dt, params.c_bar)
    # non-Dirichlet branches land in the closed domain
    located = ~rp.dirichlet
    simplex, bary = mesh.locate_many(rp.y_tilde[located])
    check_weights(bary)
    verts = np.zeros((n * S, dim + 1), dtype=int)
    weights = np.zeros((n * S, dim + 1))
    verts[located] = mesh.simplices.take(simplex, axis=0)
    weights[located] = bary
    # the slot masses, a Dirichlet branch's all on its first slot
    cum = weights.copy()
    cum[rp.dirichlet, 0] = 1.0
    cum = cum.reshape(n, -1)
    exits = rp.exited.reshape(n, S)
    layer = exits[:, 0].copy()
    # each row's running sums and any() column by column, not as numpy's
    # slow accumulations along a short last axis; the sums are cumsum's
    for k in range(1, cum.shape[1]):
        cum[:, k] += cum[:, k - 1]
    for k in range(1, S):
        layer |= exits[:, k]
    # whole pairs over all vertices, as every sweep pass is, are one slice
    at = slice(flat[0], flat[-1] + 1) if flat[-1] - flat[0] == n - 1 else flat
    out = {"verts": verts, "weights": weights, "const": rp.value,
           "dirichlet": rp.dirichlet, "refl_d": rp.d_tilde, "refl_p": rp.p,
           "cum": cum, "layer": layer}
    for name, value in out.items():
        store = getattr(rows, name)
        store.reshape((-1,) + store.shape[2:])[at] = value.reshape((n,) + store.shape[2:])
    rows.built.reshape(-1)[at] = True


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
    on the row [c, j] of pair code c and vertex j,

        S[U] = (P @ U)[c*n + j] + const + crossings + dt*f,

    P being the stacked (pairs*n, n) substochastic matrix, const the mean
    Dirichlet datum of the row's branches and crossings their mean
    d_tilde*g; f is running_cost's, the one path by which the sweep and
    the chain call f.  Rows are built as readers reach them into one Rows store
    per step key: the step, or None when time_independent_dynamics shares
    one store across steps, built at the first step time whichever step is
    read first; each build pass checks the flag on its own rows at the last
    step time.  Only the latest key's store is kept, so a reader walks the
    steps in order.  Rows classify with problem.domain and locate with the
    mesh, which must discretize it.
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
        self._f_groups = None   # every row's f groups and their row count

    def rows(self, m: int, codes=None, nodes=None) -> Rows:
        """The store at step m with row [codes[r], nodes[r]] built for each
        r, every row when codes is None.  The missing rows are built in
        passes of whole pairs, in ascending pair code: each pass is one
        build_node_table call on as many pairs as fit PASS_ROWS rows, and on
        at least one pair."""
        if not 0 <= m < self.N:
            raise BadParams(f"step {m} outside 0..{self.N - 1}")
        key = None if self.problem.time_independent_dynamics else m
        if self._rows is None or key != self._key:
            # release the previous step's store before allocating this one
            self._rows = None
            self._key, self._rows = key, Rows(self.n_pairs, self.mesh.n_vertices,
                                              self.S, self.mesh.dim)
        rows = self._rows
        n = self.mesh.n_vertices
        if codes is None:
            # stacked terms are formed only once every row is built
            if rows.stacked is not None:
                return rows
            # each missing row once, in (pair code, vertex) order
            flat = np.flatnonzero(~rows.built.reshape(-1))
        else:
            codes, nodes = np.asarray(codes, dtype=int), np.asarray(nodes, dtype=int)
            missing = ~rows.built[codes, nodes]
            if not missing.any():
                return rows
            flat = np.unique(codes[missing] * n + nodes[missing])
        if len(flat):
            # the end of each pair's rows, and the end of the next pair's
            ends = np.append(np.flatnonzero(np.diff(flat // n)) + 1, len(flat)).tolist()
            lo = 0
            for end, after in zip(ends, ends[1:] + [math.inf]):
                if after - lo > PASS_ROWS:
                    build_node_table(self.problem, self.mesh, self.params, rows,
                                     self._shared_times if key is None else [self.times[m]],
                                     flat[lo:end])
                    lo = end
        return rows

    def _terms(self, rows: Rows, flat) -> tuple:
        """S's pieces other than P and f on the built rows at the flat
        indices flat, or on every row when flat is slice(None): their mean
        Dirichlet datum, their oblique exits as (row r, d_tilde/(2*Ns)), and
        the control_groups of the exits' projection points for g."""
        S = self.S
        refl_d = rows.refl_d.reshape(-1, S)[flat]
        r, s = np.divmod(np.flatnonzero(refl_d), S)
        exits = r if isinstance(flat, slice) else flat[r]
        return (rows.const.reshape(-1, S)[flat].sum(axis=1) / S, r, refl_d[r, s] / S,
                control_groups(self.problem.controls_b,
                               exits // self.mesh.n_vertices % self.nb,
                               rows.refl_p.reshape(-1, S, self.mesh.dim)[exits, s]))

    def apply(self, m: int, U, codes=None, nodes=None) -> tuple:
        """S[U] at step m on the rows [codes[r], nodes[r]], or on every row
        in stacked order when codes is None.  Returns (S[U], the f values
        of running_cost, P restricted to those rows); makes one g call per
        control b over the rows' oblique exits.  P is the rows' slots
        (verts, probs) as Rows.slots gives them.  On every row they and the
        other terms are formed once per store and P @ U is
        stacked_product; on gathered rows it is slot_product."""
        rows = self.rows(m, codes, nodes)
        pr, t = self.problem, self.times[m]
        if codes is None:
            if rows.stacked is None:
                rows.stacked = (rows.stacked_slots(), *self._terms(rows, slice(None)))
            (verts, probs), *terms = rows.stacked
            P, v = (verts.T, probs.T), stacked_product((verts, probs), U)
        else:
            codes, nodes = np.asarray(codes, dtype=int), np.asarray(nodes, dtype=int)
            P = rows.slots(codes, nodes)
            terms = self._terms(rows, codes * self.mesh.n_vertices + nodes)
            v = slot_product(P, U)
        const, r, d, g_groups = terms
        f = self.running_cost(m, codes, nodes)
        # added left to right as P @ U + const + crossings + dt*f
        v += const
        v += np.bincount(r, weights=d * per_control("g", pr.g, t, g_groups, len(r)),
                         minlength=len(v))
        if len(f) == len(v):
            v += self.params.dt * f
        else:
            # one pair-major block of f stands for every control a's
            blocks = v.reshape(-1, len(f))
            blocks += self.params.dt * f
        return v, f, P

    def running_cost(self, m: int, codes=None, nodes=None) -> np.ndarray:
        """f at step m on the rows [codes[r], nodes[r]] of the store rows(m,
        ...) gave last, or on every row: control a's pair-major block
        [ia*nb*n, (ia+1)*nb*n) is one call on its own copy of the vertices
        tiled nb times, as a handle may change its points, and gathered rows
        one call per control a among them.  With control_free_cost each is
        one call, every row's on the first block alone, and a store's first
        use checks the promise: BadParams unless f(t, mesh.vertices, a) is
        the same for every a, NaN equal to NaN."""
        pr, t = self.problem, self.times[m]
        free = pr.control_free_cost
        if free and not self._rows.f_checked:
            first, *rest = [real_array(pr.f(t, self.mesh.vertices.copy(), a), "f",
                                       (self.mesh.n_vertices,)) for a in pr.controls_a]
            for ia, other in enumerate(rest, 1):
                if not np.array_equal(first, other, equal_nan=True):
                    raise BadParams(f"control_free_cost is set, but f at t={t:g} differs "
                                    f"between controls a 0 and {ia}")
            self._rows.f_checked = True
        if codes is None:
            if self._f_groups is None:
                block = self.nb * self.mesh.n_vertices
                groups = [(a, slice(ia * block, (ia + 1) * block),
                           np.tile(self.mesh.vertices, (self.nb, 1)))
                          for ia, a in enumerate(pr.controls_a[:1] if free else pr.controls_a)]
                self._f_groups = (groups, len(groups) * block)
            return per_control("f", pr.f, t, *self._f_groups)
        X = self.mesh.vertices[nodes]
        groups = ([(pr.controls_a[0], slice(None), X)] if free else
                  control_groups(pr.controls_a, codes // self.nb, X))
        return per_control("f", pr.f, t, groups, len(X))


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

    def __call__(self, t: float, x):
        """P1 value at x of the step whose time is the largest at or below
        t; BadParams unless t lies in [0, N*dt] up to 1e-9*dt.  A point x
        (dim,) gives a float, rows x (m, dim) an (m,) array of the same
        values.  BadParams unless t is one real number and x real numbers."""
        s = real_scalar(t, "time") / self.dt
        N = len(self.values) - 1
        if not -1e-9 <= s <= N + 1e-9:
            raise BadParams(f"time {t!r} outside [0, {N * self.dt:g}]")
        nodal = self.values[int(math.floor(s + 1e-9))]
        # x is converted once, and nodal is the sweep's own float row
        x = real_array(x, "point or rows x")
        if x.ndim == 2:
            return self.mesh._interpolate_rows(nodal, rows_shape(x, self.mesh.dim))
        return self.mesh._interpolate_point(nodal, point_shape(x, self.mesh.dim))


def sweep(problem: Problem, mesh: Mesh, params: SchemeParams) -> ValueFunction:
    """Backward recursion U_N = Psi, U_k = inf_{a,b} S_{k}[U_{k+1}]: the
    minimum over the pair blocks of the stacked rows, written in place.
    BadParams when psi is not finite.  Unstable once a value is not finite
    or exceeds the blow-up guard 1e3*(max|psi| + T*max|f| + 1), max|f|
    taken over the steps swept so far; both are tested on the one
    reduction max|U_k| per step."""
    N = whole_steps(problem.T, params.dt)
    op = Operator(problem, mesh, params)
    n = mesh.n_vertices
    W = np.empty((N + 1, n))
    W[N] = real_array(problem.psi(mesh.vertices), "psi", (n,))
    max_psi = float(np.abs(W[N]).max())
    # a NaN fails the test too
    if not max_psi < math.inf:
        raise BadParams("psi returned a value that is not finite")
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
