import bisect
import enum
import itertools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from hjbsl import markov, scheme
from hjbsl.cli import build_mesh_for
from hjbsl.errors import BadParams, TooLarge
from hjbsl.geometry import TOL_BOUNDARY, Interval, NormalField
from hjbsl.markov import (
    _chain_model,
    _ChainModel,
    _layer_steps,
    _move,
    _simulate_paths,
    _walk,
    estimate_sojourn,
    policy_cost,
    transition_law,
)
from hjbsl.mesh import Mesh, build_disk_mesh, build_interval_mesh, build_rect_with_hole_mesh
from hjbsl.problems import get_benchmark, make_test1, make_test2, make_test3
from hjbsl.scheme import (
    Operator,
    Problem,
    SchemeParams,
    apply_S,
    stacked_product,
    sweep,
    whole_steps,
)
from test_geometry import boundary_kind, scan_crossing


def interval_problem(sigma=0.0, mu=0.0, f=None, psi=None, T=1.0,
                     controls_a=(0.0,)):
    dom = Interval(0.0, 1.0)
    return Problem(
        domain=dom, T=T, n_sigma=1,
        sigma=lambda t, X, a: np.full((len(X), 1, 1), sigma),
        mu=lambda t, X, a: np.full((len(X), 1), mu),
        f=f or (lambda t, X, a: np.zeros(len(X))),
        g=lambda t, P, b: np.zeros(len(P)),
        psi=psi or (lambda X: np.zeros(len(X))),
        gamma=NormalField(dom),
        controls_a=list(controls_a), controls_b=[0.0],
        time_independent_dynamics=True,
    )

TRIVIAL_POLICY = lambda m, i: (0, 0)


def test_dt_must_divide_the_horizon():
    # T = 1 at dt = 0.3 is 3.33 steps: the solve would stop at t = 0.9
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    params = SchemeParams(dt=0.3, c_bar=bench.c_bar)
    with pytest.raises(BadParams, match="divide"):
        sweep(bench.problem, mesh, params)
    with pytest.raises(BadParams, match="divide"):
        policy_cost(bench.problem, mesh, TRIVIAL_POLICY, 0, 5, params)
    # 1/(1/49) = 49.00000000000001 is a whole horizon up to rounding
    params = SchemeParams(dt=1.0 / 49, c_bar=bench.c_bar)
    assert len(sweep(bench.problem, mesh, params).values) == 50
    assert math.isfinite(policy_cost(bench.problem, mesh, TRIVIAL_POLICY, 0, 5, params))


def test_transition_rows_sum_to_one():
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.05)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    for i in range(0, mesh.n_vertices, 3):
        law = transition_law(bench.problem, mesh, 0, i, 0.0, 0.0, params)
        assert np.all(law.probs >= 0.0)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_transition_degenerate_law():
    pr = interval_problem()
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    law = transition_law(pr, mesh, 0, 2, 0.0, 0.0,
                         SchemeParams(dt=0.1, c_bar=0.2))
    nz = {int(i): p for i, p in zip(law.indices, law.probs) if p > 0.0}
    assert nz == {2: pytest.approx(1.0)}


def test_transition_four_quarter_entries():
    # both characteristics land mid-cell, two cells away from the start
    pr = interval_problem(sigma=0.375)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    law = transition_law(pr, mesh, 0, 2, 0.0, 0.0,
                         SchemeParams(dt=1.0, c_bar=0.2))
    assert list(law.indices) == [0, 1, 3, 4]
    assert np.allclose(law.probs, 0.25)


def test_transition_row_at_door_loses_dirichlet_mass():
    bench = make_test3()
    pr, dom = bench.problem, bench.problem.domain
    mesh = build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                     dom.hole_radius, 0.1)
    i = int(np.argmin(np.linalg.norm(mesh.vertices - [-1.0, 0.0], axis=1)))
    x = mesh.vertices[i]
    dt = 0.05
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    partial = False
    for a in pr.controls_a:
        # the branches, and those whose first crossing is on a door, by hand
        base = x + dt * pr.mu(0.0, x[None], a)[0]
        cols = np.sqrt(pr.n_sigma * dt) * pr.sigma(0.0, x[None], a)[0].T
        ys = [base + sign * c for c in cols for sign in (1.0, -1.0)]
        absorbed = sum(dom.signed_distance(y) > TOL_BOUNDARY
                       and boundary_kind(dom, scan_crossing(dom, x, y))[0] == "dirichlet"
                       for y in ys)
        law = transition_law(pr, mesh, 0, i, a, 0.0, params)
        assert np.all(law.probs > 0.0)
        assert law.sum() == pytest.approx(1.0 - absorbed / len(ys), abs=1e-12)
        partial = partial or 0 < absorbed < len(ys)
    assert partial


def test_policy_cost_constant_terminal():
    pr = interval_problem(sigma=0.2, psi=lambda X: np.full(len(X), 3.0))
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    got = policy_cost(pr, mesh, TRIVIAL_POLICY, 0, 1,
                      SchemeParams(dt=0.25, c_bar=0.2))
    assert got == pytest.approx(3.0, abs=1e-12)


def test_policy_cost_single_step():
    # deterministic shift right by one cell in one step
    pr = interval_problem(mu=0.25, f=lambda t, X, a: np.full(len(X), 2.0),
                          psi=lambda X: X[:, 0], T=1.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    got = policy_cost(pr, mesh, TRIVIAL_POLICY, 0, 1,
                      SchemeParams(dt=1.0, c_bar=0.2))
    assert got == pytest.approx(1.0 * 2.0 + 0.5, abs=1e-12)


def test_policy_cost_matches_sweep_singleton():
    bench = make_test1(0.05)
    bench.problem.time_independent_dynamics = True
    mesh = build_interval_mesh(0.0, 1.0, 0.5)
    params = SchemeParams(dt=0.5, c_bar=bench.c_bar)
    vf = sweep(bench.problem, mesh, params)
    for i in range(mesh.n_vertices):
        got = policy_cost(bench.problem, mesh, TRIVIAL_POLICY, 0, i, params)
        assert got == pytest.approx(vf.values[0][i], abs=1e-12)


def _time_dependent_problem(**flags):
    # the drift changes sign at t = 0.5
    dom = Interval(0.0, 1.0)
    return Problem(domain=dom, T=1.0, n_sigma=1,
                   sigma=lambda t, X, a: np.full((len(X), 1, 1), 0.1),
                   mu=lambda t, X, a: np.full((len(X), 1), 0.5 - t),
                   f=lambda t, X, a: np.zeros(len(X)),
                   g=lambda t, P, b: np.zeros(len(P)),
                   psi=lambda X: X[:, 0],
                   gamma=NormalField(dom), controls_a=[0.0], controls_b=[0.0],
                   **flags)


def test_policy_cost_time_dependent_dynamics():
    # rows must be built at each step's time
    pr = _time_dependent_problem()
    mesh = build_interval_mesh(0.0, 1.0, 0.125)
    params = SchemeParams(dt=0.25, c_bar=0.2)
    vf = sweep(pr, mesh, params)
    got = [policy_cost(pr, mesh, TRIVIAL_POLICY, 0, i, params)
           for i in range(mesh.n_vertices)]
    assert vf.values[0][2] == pytest.approx(0.375, abs=1e-12)
    assert np.max(np.abs(np.array(got) - vf.values[0])) <= 1e-12


def test_time_independent_dynamics_flag_is_checked():
    # the flag on time-dependent dynamics would share the t=0 rows with
    # every step; the sweep, the chain and the one-step readers refuse it,
    # at any step they read first
    pr = _time_dependent_problem(time_independent_dynamics=True)
    mesh = build_interval_mesh(0.0, 1.0, 0.125)
    params = SchemeParams(dt=0.25, c_bar=0.2)
    msg = "characteristics differ between t=0 and t=0.75"
    with pytest.raises(BadParams, match=msg):
        sweep(pr, mesh, params)
    with pytest.raises(BadParams, match=msg):
        policy_cost(pr, mesh, TRIVIAL_POLICY, 0, 2, params)
    for k in (0, 3):
        with pytest.raises(BadParams, match=msg):
            apply_S(pr, mesh, np.zeros(mesh.n_vertices), k, 2, params)
        with pytest.raises(BadParams, match=msg):
            transition_law(pr, mesh, k, 2, 0.0, 0.0, params)


@pytest.mark.parametrize("T, times", [(1.0, [0.0, 0.75]), (0.25, [0.0])])
def test_shared_store_is_built_at_the_first_step_time(T, times):
    """With the flag set, the store's build forms its rows' characteristics at
    the first step time and checks them at the last, whichever step is read
    first; with one step there is no second time to check.  A second read
    builds nothing."""
    seen = []

    def mu(t, X, a):
        seen.append(t)
        return np.full((len(X), 1), 0.25)

    pr = replace(_time_dependent_problem(time_independent_dynamics=True), T=T, mu=mu)
    mesh = build_interval_mesh(0.0, 1.0, 0.125)
    op = Operator(pr, mesh, SchemeParams(dt=0.25, c_bar=0.2))
    op.rows(op.N - 1)
    assert seen == times
    op.rows(0)
    assert seen == times


@pytest.mark.parametrize("mode", ["exact", "monte_carlo", None])
@pytest.mark.parametrize("odd, even", [
    ((np.int64(0), 0), (np.uint64(0), np.uint64(0))),
    ((np.array(0), 0), (np.False_, np.uint8(0)))])
def test_policy_of_integers_of_mixed_types(mode, odd, even):
    """Integer pairs of numpy types, int64 at some vertices and uint64 at
    others (which numpy promotes together to float64), or 0-d arrays and
    numpy bools, give the costs of the same pairs as Python ints, in policy
    costs (mode) and in the sojourn (None).  A bad pair among them is the
    one named."""
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.25, c_bar=bench.c_bar)

    def mixed(bad=None):
        return lambda m, i: bad if i == 1 and bad else odd if i % 2 else even

    def run(policy):
        if mode is None:
            return estimate_sojourn(bench.problem, mesh, policy, params, n_paths=20, seed=5)
        return policy_cost(bench.problem, mesh, policy, 0, 2, params, mode=mode,
                           n_paths=20, seed=5)

    assert run(mixed()) == run(TRIVIAL_POLICY)
    with pytest.raises(BadParams, match=r"vertex 1: \(np.int64\(1\), 0\) is not"):
        run(mixed((np.int64(1), 0)))


@pytest.mark.parametrize("kind", [np.int8, np.uint8])
def test_policy_of_narrow_integers_does_not_wrap(kind):
    """Pairs of a one-byte integer type address the same rows as Python
    ints, even where the pair code ia*len(controls_b) + ib (19*16 + 3 = 307
    on test3 with 20 controls a and 16 controls b) exceeds the type's range:
    wrapped, it read pair (3, 3)'s cost, 2.1411668803410557."""
    bench = get_benchmark("test3_exit", n_a=20)
    pr = replace(bench.problem, controls_b=[0.0] * 16)
    mesh = build_mesh_for(bench, 0.2)
    params = SchemeParams(dt=0.1, c_bar=bench.c_bar)
    wide = policy_cost(pr, mesh, lambda m, i: (19, 3), 0, 7, params)
    assert wide == pytest.approx(2.8522610996016815, abs=1e-12)
    assert policy_cost(pr, mesh, lambda m, i: (kind(19), kind(3)), 0, 7, params) == wide


def _tiny_instances():
    # two-control instances small enough for full policy enumeration
    insts = []
    for fa, fb, sig, mu in [
        (0.0, 1.0, 0.0, 0.0),
        (0.5, -0.5, 0.3, 0.0),
        (1.0, 0.0, 0.0, 0.25),
        (0.2, 0.4, 0.4, -0.25),
        (-1.0, 1.0, 0.2, 0.25),
    ]:
        dom = Interval(0.0, 1.0)
        pr = Problem(
            domain=dom, T=1.0, n_sigma=1,
            sigma=lambda t, X, a, s=sig: np.full((len(X), 1, 1), s),
            mu=lambda t, X, a, m=mu: np.full((len(X), 1), m * (1.0 + a)),
            f=lambda t, X, a, f0=fa, f1=fb: np.full(len(X), f0 if a == 0.0 else f1),
            g=lambda t, P, b: np.zeros(len(P)),
            psi=lambda X: X[:, 0] ** 2,
            gamma=NormalField(dom),
            controls_a=[0.0, 1.0], controls_b=[0.0],
            time_independent_dynamics=True,
        )
        insts.append(pr)
    return insts


# most policies dp_oracle enumerates
ENUMERATION_LIMIT = 1e6


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
    """J_{0,i} for all i under one fixed policy (backward evaluation): each
    vertex's row under its pair, gathered from the every-row apply."""
    nodes = np.arange(model.mesh.n_vertices)
    J = model.psi.copy()
    for m in range(model.N - 1, -1, -1):
        J = model.apply(m, J)[0][model.policy_rows(m, policy, nodes)]
    return J


def _is_pair(pair, na: int, nb: int) -> bool:
    """The reference pair rule: pair unpacks into (ia, ib), ia in 0..na-1
    and ib in 0..nb-1, each one integer: a 0-d value of integer or bool
    dtype (an int, a bool, a numpy scalar or a 0-d array)."""
    try:
        ia, ib = pair
        ok = [np.ndim(v) == 0 and np.asarray(v).dtype.kind in "biu" for v in (ia, ib)]
    except (TypeError, ValueError):
        return False
    return all(ok) and 0 <= ia < na and 0 <= ib < nb


class _Side(enum.IntEnum):
    LEFT = 0
    RIGHT = 1


class _Indexable:
    """Not an integer, though operator.index reads it as 1."""

    def __index__(self):
        return 1


# each value v of the pair rule as (v, 0) and (0, v), with whether it is an
# integer in range for two controls a and two controls b
PAIR_VALUES = [
    (1, True), (True, True), (np.int8(1), True), (np.uint8(1), True),
    (np.int64(1), True), (np.uint64(1), True), (np.True_, True), (np.array(0), True),
    (_Side.RIGHT, True), (np.array(0.0), False), (1.0, False), (np.float64(1), False),
    ("1", False), (None, False), (np.array([0]), False), (_Indexable(), False),
    (2, False), (-1, False), (np.int8(-1), False), (np.uint8(255), False),
    (np.uint64(2 ** 64 - 1), False), (2 ** 70, False), (np.array(-1), False),
]
PAIRS = ([((v, 0), ok) for v, ok in PAIR_VALUES] + [((0, v), ok) for v, ok in PAIR_VALUES]
         + [((0,), False), ((0, 0, 0), False), ("01", False), (5, False),
            ({0: "a", 1: "b"}, True), ({0: "a"}, False), (np.array([1, 1]), True),
            ([np.int8(1), np.uint64(1)], True)])


@pytest.mark.parametrize("lookup", ["callable", "nested"])
@pytest.mark.parametrize("pair, ok", PAIRS)
def test_policy_rows_accept_exactly_the_reference_pairs(pair, ok, lookup):
    """policy_rows accepts a pair exactly when _is_pair does, and gives the
    row (int(ia)*nb + int(ib))*n + j of each vertex j, as intp; a refused
    pair raises BadParams naming it and its vertex."""
    bench = make_test1(0.05)
    pr = replace(bench.problem, controls_a=[0.0] * 2, controls_b=[0.0] * 2)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    model = _ChainModel(pr, mesh, SchemeParams(dt=0.25, c_bar=bench.c_bar))
    step = [(1, 1), (0, 1), (1, 0), pair, (1, 1)]
    policy = (lambda m, j: step[j]) if lookup == "callable" else [step]
    nodes = np.array([1, 3, 4])
    assert _is_pair(pair, 2, 2) == ok
    if ok:
        ia, ib = pair
        rows = model.policy_rows(0, policy, nodes)
        assert rows.dtype == np.intp
        assert rows.tolist() == [1 * 5 + 1, (int(ia) * 2 + int(ib)) * 5 + 3, 3 * 5 + 4]
    else:
        with pytest.raises(BadParams, match=r"^policy at step 0, vertex 3: .* is not an "
                                            r"integer pair \(ia, ib\) in 0\.\.1 x 0\.\.1$"):
            model.policy_rows(0, policy, nodes)


@pytest.mark.parametrize("lookup", ["callable", "nested"])
def test_policy_is_not_looked_up_past_the_first_bad_vertex(lookup):
    """A step reads its vertices in ascending order and stops at the first
    one with a bad pair: no later vertex is looked up."""
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    model = _ChainModel(bench.problem, mesh, SchemeParams(dt=0.25, c_bar=bench.c_bar))
    seen = []

    class Step(list):
        def __getitem__(self, j):
            seen.append(j)
            return super().__getitem__(j)

    step = Step([(0, 0), (0, 0), (1, 0), (0, 0), (0, 0)])
    policy = (lambda m, j: step[j]) if lookup == "callable" else {2: step}
    with pytest.raises(BadParams, match=r"^policy at step 2, vertex 2: \(1, 0\) is not"):
        model.policy_rows(2, policy, np.arange(5))
    assert seen == [0, 1, 2]


def test_dp_oracle_matches_sweep():
    mesh = build_interval_mesh(0.0, 1.0, 0.5)
    params = SchemeParams(dt=0.5, c_bar=0.2)
    for pr in _tiny_instances():
        best = dp_oracle(pr, mesh, params)
        vf = sweep(pr, mesh, params)
        assert np.max(np.abs(best - vf.values[0])) <= 1e-10


def test_dp_oracle_too_large():
    pr = _tiny_instances()[0]
    mesh = build_interval_mesh(0.0, 1.0, 0.05)
    with pytest.raises(TooLarge):
        dp_oracle(pr, mesh, SchemeParams(dt=0.05, c_bar=0.2))


def test_monte_carlo_consistency():
    bench = make_test1(0.05)
    bench.problem.time_independent_dynamics = True
    mesh = build_interval_mesh(0.0, 1.0, 0.2)
    params = SchemeParams(dt=0.25, c_bar=bench.c_bar)
    exact = policy_cost(bench.problem, mesh, TRIVIAL_POLICY, 0, 2, params)
    for n in (1000, 10_000):
        mean, se = policy_cost(bench.problem, mesh, TRIVIAL_POLICY, 0, 2,
                               params, mode="monte_carlo", n_paths=n, seed=3)
        assert abs(mean - exact) <= 3.0 * se


def test_monte_carlo_reproducible():
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.2)
    params = SchemeParams(dt=0.25, c_bar=bench.c_bar)
    a = policy_cost(bench.problem, mesh, TRIVIAL_POLICY, 0, 2, params,
                    mode="monte_carlo", n_paths=200, seed=7)
    b = policy_cost(bench.problem, mesh, TRIVIAL_POLICY, 0, 2, params,
                    mode="monte_carlo", n_paths=200, seed=7)
    assert a == b


def test_policy_cost_bad_modes():
    pr = interval_problem()
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.25, c_bar=0.2)
    for n_paths in (0, 1):
        with pytest.raises(BadParams):
            policy_cost(pr, mesh, TRIVIAL_POLICY, 0, 0, params,
                        mode="monte_carlo", n_paths=n_paths)
    with pytest.raises(BadParams):
        policy_cost(pr, mesh, TRIVIAL_POLICY, 0, 0, params, mode="nope")


def test_sojourn_confined_dynamics():
    # dynamics never reach the boundary layer
    pr = interval_problem(sigma=0.01)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    est, se = estimate_sojourn(pr, mesh, TRIVIAL_POLICY,
                               SchemeParams(dt=0.01, c_bar=0.2),
                               n_paths=100, seed=0)
    assert est == 0.0
    for n_paths in (0, 1):
        with pytest.raises(BadParams):
            estimate_sojourn(pr, mesh, TRIVIAL_POLICY,
                             SchemeParams(dt=0.01, c_bar=0.2), n_paths=n_paths)


def _reference_path(model, policy, k, i, seed, path):
    """One chain trajectory simulated alone, one row and one-row handle
    calls at a time; returns (cost, boundary-layer step count)."""
    rng = np.random.Generator(np.random.Philox(key=[seed, path]))
    pr, mesh = model.problem, model.mesh
    dt, nb, S = model.params.dt, len(pr.controls_b), model.S
    state = i
    cost = 0.0
    layer_steps = 0
    for m in range(k, model.N):
        t = model.times[m]
        ia, ib = policy(m, state) if callable(policy) else policy[m][state]
        r = (ia * nb + ib) * mesh.n_vertices + state
        rows = model.rows(m)
        probs, dirichlet = rows.probs[:, r].reshape(S, -1), rows.dirichlet[r]
        refl_d = rows.refl_d[r]
        # a Dirichlet branch's mass 1/(2*Ns) on its first slot; 2*Ns is a
        # power of two here, so the draws are those of the weights' sums
        mass = probs.copy()
        mass[dirichlet, 0] = 1.0 / S
        cum = np.cumsum(mass.ravel())
        layer_steps += bool(dirichlet.any() or refl_d.any())
        cost += dt * float(pr.f(t, mesh.vertices[[state]], pr.controls_a[ia])[0])
        q = bisect.bisect(cum[:-1].tolist(), rng.random() * float(cum[-1]))
        s = q // probs.shape[1]
        if dirichlet[s]:
            return cost + rows.const[r, s], layer_steps
        if refl_d[s]:
            p = rows.refl_p[r, s][None, :]
            cost += refl_d[s] * float(pr.g(t, p, pr.controls_b[ib])[0])
        state = int(rows.verts[q, r])
    return cost + float(pr.psi(mesh.vertices[[state]])[0]), layer_steps


@pytest.mark.parametrize("name", ["test2_oblique", "test3_exit", "test2_oblique-two-b"])
def test_simulate_paths_equals_reference_walker(name):
    """Monte Carlo paths equal the reference walker's, path by path.  With
    two controls b, which g reads, the policy picks b by vertex, and the
    exact cost also equals the backward evaluation of the same policy."""
    nb = 1
    if name.startswith("test2_oblique"):
        bench = make_test2("oblique", n_a=8)
        mesh = build_disk_mesh((0.0, 0.0), 1.0, 0.25)
        dt = 0.125
        if name.endswith("-two-b"):
            nb, pr = 2, bench.problem
            bench = replace(bench, problem=replace(
                pr, controls_b=[0.0, 1.0], g=lambda t, P, b, g=pr.g: g(t, P, b) + b))
    else:
        bench = make_test3(n_a=8)
        dom = bench.problem.domain
        mesh = build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                         dom.hole_radius, 0.2)
        dt = 0.1
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    # a feedback that varies with the vertex and the step
    policy = lambda m, i: ((3 * i + m) % 8, i % nb)
    model = _ChainModel(bench.problem, mesh, params)
    start = int(np.argmin(np.linalg.norm(mesh.vertices - mesh.vertices.mean(axis=0),
                                         axis=1)))
    n_paths, seed = 200, 5
    costs = _simulate_paths(model, policy, 0, start, seed, n_paths)
    layers = _layer_steps(model, policy, start, seed, n_paths)
    ref = [_reference_path(model, policy, 0, start, seed, p) for p in range(n_paths)]
    assert costs.tolist() == [c for c, _ in ref]
    assert layers.tolist() == [n for _, n in ref]
    # the paths reached the boundary layer; on test3 some left by a door
    # before the horizon (unit running cost, so they paid less than T)
    assert layers.max() > 0
    if name == "test3_exit":
        assert costs.min() < bench.problem.T - 1e-9
        # some steps absorb paths at a door and others none, so the walk's
        # move runs both with and without the absorbed paths' compaction
        alive = [len(live) for _, live, *_ in _walk(model, policy, 0,
                                                    np.full(n_paths, start), seed)]
        absorbing = np.diff(alive) < 0
        assert absorbing.any() and not absorbing.all()
    if nb > 1:
        exact = policy_cost(bench.problem, mesh, policy, 0, start, params)
        assert abs(exact - _policy_values(model, policy)[start]) <= 1e-12


def test_policy_cost_once_every_path_is_absorbed():
    # (1, -0.2) is on the right door: every branch exits there in the first
    # step, paying dt of running cost and the door's 0.2
    bench = make_test3()
    pr, dom = bench.problem, bench.problem.domain
    mesh = build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                     dom.hole_radius, 0.1)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    i = int(np.argmin(np.linalg.norm(mesh.vertices - [1.0, -0.2], axis=1)))
    policy = lambda m, j: (j % 16, 0)
    got = policy_cost(pr, mesh, policy, 0, i, params)
    assert abs(got - 0.25) <= 1e-12
    assert abs(got - _policy_values(_ChainModel(pr, mesh, params), policy)[i]) <= 1e-12
    mean, se = policy_cost(pr, mesh, policy, 0, i, params, mode="monte_carlo",
                           n_paths=20, seed=1)
    assert abs(mean - got) <= 1e-12 and se <= 1e-12


def _exit_chain():
    bench = make_test3(n_a=4)
    dom = bench.problem.domain
    mesh = build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                     dom.hole_radius, 0.2)
    return bench.problem, mesh, SchemeParams(dt=0.1, c_bar=bench.c_bar)


STEER = lambda m, i: ((i + m) % 4, 0)


def _chain_calls(pr, mesh, params, policy=STEER, fresh=False):
    """An exact and a Monte Carlo cost from vertex 7 and a sojourn estimate,
    each on a fresh model when fresh is set."""
    calls = (lambda: policy_cost(pr, mesh, policy, 0, 7, params),
             lambda: policy_cost(pr, mesh, policy, 0, 7, params,
                                 mode="monte_carlo", n_paths=40, seed=3),
             lambda: estimate_sojourn(pr, mesh, policy, params, n_paths=40, seed=3))
    out = []
    for call in calls:
        if fresh:
            markov._latest.entry = None
        out.append(call())
    return out


def test_chain_calls_share_one_model(monkeypatch):
    pr, mesh, params = _exit_chain()
    fresh = _chain_calls(pr, mesh, params, fresh=True)
    builds = []
    build = scheme.build_node_table
    monkeypatch.setattr(scheme, "build_node_table",
                        lambda *args: builds.append(args) or build(*args))
    markov._latest.entry = None
    first = _chain_calls(pr, mesh, params)
    n_first = len(builds)
    model = _chain_model(pr, mesh, params)
    draws = model.draws(3, 40, model.N)
    again = _chain_calls(pr, mesh, params)
    # the second round builds no row and draws no uniform
    assert n_first > 0 and len(builds) == n_first
    assert _chain_model(pr, mesh, params) is model
    assert model.draws(3, 40, model.N) is draws and not draws.flags.writeable
    # bitwise the results of a fresh model per call
    assert first == fresh and again == fresh


def test_policy_cost_builds_its_store_whole_once(monkeypatch):
    """A cold policy_cost on test3_exit (one shared store, 16 pairs, 223
    vertices) builds the whole store in one call, though its distribution
    reaches few rows; a warm one builds none."""
    bench = get_benchmark("test3_exit")
    mesh = build_mesh_for(bench, 0.1)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    stores = []
    build = scheme.build_node_table
    monkeypatch.setattr(scheme, "build_node_table",
                        lambda *args: stores.append(build(*args)) or stores[-1])
    markov._latest.entry = None

    def policy(m, j):
        return (j % 16, 0)

    cold = policy_cost(bench.problem, mesh, policy, 0, 7, params)
    assert len(stores) == 1 and stores[0].layer.shape == (16 * 223,)
    assert policy_cost(bench.problem, mesh, policy, 0, 7, params) == cold
    assert len(stores) == 1


def test_array_controls_share_one_model():
    """Controls handed in as an array are held as a list, so the chain
    model built on one call serves the next, with the numbers of list
    controls."""
    pr, mesh, params = _exit_chain()
    arr = replace(pr, controls_a=np.array(pr.controls_a))
    assert isinstance(arr.controls_a, list)
    markov._latest.entry = None
    first = policy_cost(arr, mesh, STEER, 0, 7, params)
    model = _chain_model(arr, mesh, params)
    assert policy_cost(arr, mesh, STEER, 0, 7, params) == first
    assert _chain_model(arr, mesh, params) is model
    assert first == _chain_calls(pr, mesh, params, fresh=True)[0]


@pytest.mark.parametrize("change", ["reassign-mu", "replace", "mesh", "dt", "c_bar",
                                    "append-control"])
def test_changed_inputs_get_a_fresh_model(change):
    pr, mesh, params = _exit_chain()
    _chain_calls(pr, mesh, params)
    old = _chain_model(pr, mesh, params)
    policy = STEER
    if change == "reassign-mu":
        mu = pr.mu
        pr.mu = lambda t, X, a: 0.5 * mu(t, X, a)
    elif change == "replace":
        pr = replace(pr)
    elif change == "mesh":
        dom = pr.domain
        mesh = build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                         dom.hole_radius, 0.25)
    elif change == "dt":
        params = SchemeParams(dt=0.075, c_bar=params.c_bar)
    elif change == "c_bar":
        params = SchemeParams(dt=params.dt, c_bar=0.3)
    else:
        # a fifth control, standing still, taken on odd vertices
        pr.controls_a.append(np.zeros(2))
        policy = lambda m, i: (4 if i % 2 else (i + m) % 4, 0)
    got = _chain_calls(pr, mesh, params, policy)
    assert _chain_model(pr, mesh, params) is not old
    assert got == _chain_calls(pr, mesh, params, policy, fresh=True)


def test_threads_keep_their_own_models():
    pr, mesh, params = _exit_chain()
    mine = _chain_model(pr, mesh, params)
    theirs = []

    def work():
        theirs.append(_chain_model(pr, mesh, params))
        theirs.append(_chain_calls(pr, mesh, params))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert theirs[0] is not mine
    assert _chain_model(pr, mesh, params) is mine
    assert theirs[1] == _chain_calls(pr, mesh, params, fresh=True)


def _counting(monkeypatch, module, name):
    """Wrap module.name with a call counter; returns the list of calls."""
    calls = []
    inner = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or inner(*a, **kw))
    return calls


def test_sojourn_calls_neither_f_nor_g():
    pr, mesh, params = _exit_chain()
    calls = {"f": 0, "g": 0}

    def counted(name):
        handle = getattr(pr, name)

        def call(*args):
            calls[name] += 1
            return handle(*args)
        return call

    counting = replace(pr, f=counted("f"), g=counted("g"))
    got = estimate_sojourn(counting, mesh, STEER, params, n_paths=40, seed=3)
    assert calls == {"f": 0, "g": 0}
    # the Monte Carlo cost on the same problem calls both
    policy_cost(counting, mesh, STEER, 0, 7, params, mode="monte_carlo", n_paths=40, seed=3)
    assert calls["f"] > 0 and calls["g"] > 0
    markov._latest.entry = None
    assert got == estimate_sojourn(pr, mesh, STEER, params, n_paths=40, seed=3)


@pytest.mark.parametrize("name, dx, dt", [("test2_oblique", 0.25, 0.25),
                                          ("test3_exit", 0.2, 0.1)])
def test_control_free_cost_changes_no_result(name, dx, dt):
    """control_free_cost on (as test2 and test3 set it) and off give the same
    sweep values, exact and Monte Carlo costs and sojourns bit for bit.  The
    Monte Carlo runs first on a fresh model, where the walker makes the
    store's check: one f call per control a on every vertex."""
    bench = get_benchmark(name)
    mesh = build_mesh_for(bench, dx)
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    assert bench.problem.control_free_cost
    results = []
    for free in (True, False):
        calls = []
        pr = replace(bench.problem, control_free_cost=free,
                     f=lambda t, X, a, f=bench.problem.f: calls.append((a, len(X)))
                     or f(t, X, a))
        markov._latest.entry = None
        fresh = [policy_cost(pr, mesh, STEER, 0, i, params, mode="monte_carlo", n_paths=40,
                             seed=3) for i in (0, 7)]
        if free:
            assert calls[:len(pr.controls_a)] == [(a, mesh.n_vertices) for a in pr.controls_a]
        exact = [policy_cost(pr, mesh, STEER, 0, i, params) for i in (0, 7)]
        warm = [policy_cost(pr, mesh, STEER, 0, i, params, mode="monte_carlo", n_paths=40,
                            seed=3) for i in (0, 7)]
        sojourn = estimate_sojourn(pr, mesh, STEER, params, n_paths=40, seed=3)
        results.append([sweep(pr, mesh, params).values, np.array(fresh), np.array(exact),
                        np.array(warm), np.array(sojourn)])
    assert all(np.array_equal(on, off) for on, off in zip(*results))


def _every_row_terms(monkeypatch):
    """A counter of the Operator._terms calls on every row."""
    calls = _counting(monkeypatch, scheme.Operator, "_terms")
    return lambda: sum(isinstance(flat, slice) for _, _, flat in calls)


def test_exact_cost_forms_no_every_row_terms(monkeypatch):
    """The exact cost forms no every-row terms and no product: it applies S
    to zero, U None."""
    pr, mesh, params = _exit_chain()
    formed = _every_row_terms(monkeypatch)
    products = _counting(monkeypatch, scheme, "stacked_product")
    markov._latest.entry = None
    exact = policy_cost(pr, mesh, STEER, 0, 7, params)
    assert formed() == 0 and products == []
    # the cost of the same policy read backward through every vertex's row
    assert abs(exact - _policy_values(_ChainModel(pr, mesh, params), STEER)[7]) <= 1e-12


def test_sweep_forms_every_row_terms_once_per_store(monkeypatch):
    """The stacked apply keeps its terms on the store: formed once per
    step, and once for the whole sweep when the dynamics are
    time-independent."""
    formed = _every_row_terms(monkeypatch)
    pr, mesh, params = _exit_chain()
    N = whole_steps(pr.T, params.dt)
    assert pr.time_independent_dynamics
    sweep(pr, mesh, params)
    assert formed() == 1
    sweep(replace(pr, time_independent_dynamics=False), mesh, params)
    assert formed() == 1 + N


def test_draw_memo_keeps_a_monte_carlo_and_a_sojourn_matrix(monkeypatch):
    pr, mesh, params = _exit_chain()
    streams = _counting(monkeypatch, np.random, "Philox")
    markov._latest.entry = None
    mc = lambda: policy_cost(pr, mesh, STEER, 5, 7, params, mode="monte_carlo",
                             n_paths=30, seed=3)
    first = mc()
    soj = estimate_sojourn(pr, mesh, STEER, params, n_paths=20, seed=3)
    assert mc() == first
    assert estimate_sojourn(pr, mesh, STEER, params, n_paths=20, seed=3) == soj
    # one stream per path of each matrix, each matrix drawn once
    assert len(streams) == 30 + 20
    model = _chain_model(pr, mesh, params)
    assert sorted(model._draws) == [(3, 20, model.N), (3, 30, model.N - 5)]


@pytest.mark.parametrize("name", ["test2_oblique", "test3_exit"])
def test_layer_walk_counts_equal_reference_walker(name):
    bench = get_benchmark(name)
    mesh = build_mesh_for(bench, {"test2_oblique": 0.25, "test3_exit": 0.2}[name])
    params = SchemeParams(dt=0.1, c_bar=bench.c_bar)
    n_a = len(bench.problem.controls_a)
    policy = lambda m, i: ((3 * i + m) % n_a, 0)
    model = _ChainModel(bench.problem, mesh, params)
    layers = np.array([_reference_path(model, policy, 0, 5, 9, p)[1] for p in range(200)])
    assert layers.max() > 0
    assert np.array_equal(_layer_steps(model, policy, 5, 9, 200), layers)


def _csr(slots, n: int):
    """The rows' columns (verts, probs) as a scipy CSR matrix of n columns,
    duplicate vertices kept, as the reference product."""
    from scipy.sparse import csr_matrix
    verts, probs = slots
    return csr_matrix((probs.T.ravel(), verts.T.ravel(),
                       np.arange(0, probs.size + 1, len(probs))),
                      shape=(verts.shape[1], n))


def _bitwise_equal(a, b) -> bool:
    """a and b hold the same float64 bits: -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# the benchmark problems at their perfbench workloads' (dx, dt)
BENCH_STORES = {"test1_eps": (0.001, 0.001), "test2_oblique": (0.125, 0.125),
                "test3_exit": (0.1, 0.05)}


@pytest.mark.parametrize("name", ["test2_oblique", "test3_exit", "test1_eps"])
def test_stacked_product_and_move_equal_scipy_bitwise(name):
    """The stacked apply's product on every store of a benchmark problem
    and the exact cost's bincount move on the gathered apply's columns (12
    slots a row on test3_exit, one row at a time among them) give scipy's
    P @ U and P[rows].T @ w bit for bit.  With U <= 0, a row with no
    located branch (test3_exit has such rows) must read 0.0, as a sum
    started from zero does, not -0.0."""
    bench = get_benchmark(name, eps=0.05)
    dx, dt = BENCH_STORES[name]
    mesh = build_mesh_for(bench, dx)
    n = mesh.n_vertices
    rng = np.random.default_rng(11)
    # one shared store, and on test2_oblique one store per step
    flags = [True, False] if name == "test2_oblique" else [True]
    for flag in flags:
        pr = replace(bench.problem, time_independent_dynamics=flag)
        op = Operator(pr, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
        for m in range(op.N):
            U = rng.uniform(-1.0, 1.0, n)
            _, _, stacked = op.apply(m, U)
            # every row's P is the store's own arrays
            rows = op.rows(m)
            assert stacked[0] is rows.verts and stacked[1] is rows.probs
            assert all(a.flags.c_contiguous for a in stacked)
            for V in (U, -np.abs(U)):
                assert _bitwise_equal(stacked_product(stacked, V), _csr(stacked, n) @ V)
    K = op.S * (mesh.dim + 1)
    assert K == {"test1_eps": 4, "test2_oblique": 6, "test3_exit": 12}[name]
    for size in (40, 1):
        for _ in range(20):
            nodes = rng.choice(n, size=size, replace=False)
            codes = rng.integers(0, op.n_pairs, size=size)
            slots = op.apply(0, None, codes * n + nodes)[2]
            w = rng.uniform(0.0, 1.0, size)
            assert _bitwise_equal(_move(*slots, w, n), _csr(slots, n).T @ w)


@pytest.mark.parametrize("name", ["test1_eps", "test2_oblique", "test3_exit"])
def test_apply_to_none_is_apply_to_zero_bitwise(name):
    """U None stands for zero: on every row S, f and the slots equal those
    of an apply to np.zeros(n) bit for bit, and on gathered rows (the
    Dirichlet and oblique exit rows among them) S and the slots are those
    rows of it, at the first and last step."""
    bench = get_benchmark(name, eps=0.05)
    dx, dt = BENCH_STORES[name]
    mesh = build_mesh_for(bench, dx)
    n = mesh.n_vertices
    op = Operator(bench.problem, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
    rng = np.random.default_rng(5)
    for m in (0, op.N - 1):
        rows = op.rows(m)
        exits = [np.flatnonzero(a.any(axis=1))[:20] for a in (rows.dirichlet, rows.refl_d)]
        flat = np.concatenate([rng.choice(op.n_pairs * n, size=40, replace=False), *exits])
        got, want = op.apply(m, None), op.apply(m, np.zeros(n))
        for a, b in zip((got[0], got[1], *got[2]), (want[0], want[1], *want[2])):
            assert _bitwise_equal(a, b)
        for sel in (flat, flat[:1]):
            S, _, slots = op.apply(m, None, sel)
            assert _bitwise_equal(S, want[0][sel])
            assert all(_bitwise_equal(a, b[:, sel]) for a, b in zip(slots, want[2]))
    if name == "test3_exit":
        assert all(len(a) for a in exits)


@pytest.mark.parametrize("name", ["test1_eps", "test2_oblique", "test3_exit"])
def test_store_mean_datum_is_each_rows_mean_bitwise(name):
    """const_mean holds what the gathered apply formed per step: the rows'
    data summed over their branches and divided by 2*Ns, bit for bit on
    every row and on gathered rows."""
    bench = get_benchmark(name, eps=0.05)
    dx, dt = BENCH_STORES[name]
    mesh = build_mesh_for(bench, dx)
    op = Operator(bench.problem, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
    rows = op.rows(0)
    assert _bitwise_equal(rows.const_mean, rows.const.sum(axis=1) / op.S)
    rng = np.random.default_rng(7)
    hits = np.flatnonzero(rows.dirichlet.any(axis=1))
    for flat in (rng.choice(len(rows.layer), size=50, replace=False), hits, hits[:1]):
        assert _bitwise_equal(rows.const_mean[flat], rows.const[flat].sum(axis=1) / op.S)
    assert (len(hits) > 0) == (name == "test3_exit")


def test_policy_lookups_are_one_per_step_and_vertex_needed():
    """The exact cost calls the policy once per (step, vertex carrying mass),
    the mass propagated here through transition_law; a walk once per (step,
    distinct occupied vertex)."""
    bench = make_test1(0.05)
    pr = bench.problem
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.25, c_bar=bench.c_bar)
    calls = []
    policy = lambda m, j: calls.append((m, j)) or (0, 0)
    markov._latest.entry = None
    policy_cost(pr, mesh, policy, 0, 2, params)
    rho, carrying = np.zeros(mesh.n_vertices), []
    rho[2] = 1.0
    for m in range(whole_steps(pr.T, params.dt)):
        carrying += [(m, j) for j in np.flatnonzero(rho).tolist()]
        nxt = np.zeros_like(rho)
        for j in np.flatnonzero(rho):
            law = transition_law(pr, mesh, m, j, pr.controls_a[0], pr.controls_b[0], params)
            nxt[law.indices] += rho[j] * law.probs
        rho = nxt
    assert calls == carrying and len(carrying) > whole_steps(pr.T, params.dt)
    calls.clear()
    policy_cost(pr, mesh, policy, 0, 2, params, mode="monte_carlo", n_paths=50, seed=4)
    walked = calls.copy()
    calls.clear()
    state, occupied = np.full(50, 2), []
    for m, live, *_ in _walk(_chain_model(pr, mesh, params), policy, 0, state, 4):
        occupied += [(m, j) for j in np.unique(state[live]).tolist()]
    assert walked == calls == occupied and len(occupied) > whole_steps(pr.T, params.dt)
