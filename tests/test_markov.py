import numpy as np
import pytest

from hjbsl.errors import BadParams, TooLarge
from hjbsl.geometry import TOL_BOUNDARY, Interval, NormalField
from hjbsl.markov import (
    dp_oracle,
    estimate_sojourn,
    policy_cost,
    transition_law,
)
from hjbsl.mesh import build_interval_mesh, build_rect_with_hole_mesh
from hjbsl.problems import make_test1, make_test3
from hjbsl.scheme import Problem, SchemeParams, sweep


def interval_problem(sigma=0.0, mu=0.0, f=None, psi=None, T=1.0,
                     controls_a=(0.0,)):
    dom = Interval(0.0, 1.0)
    return Problem(
        domain=dom, T=T, n_sigma=1,
        sigma=lambda t, x, a: np.array([[sigma]]),
        mu=lambda t, x, a: np.array([mu]),
        f=f or (lambda t, x, a: 0.0),
        g=lambda t, p, b: 0.0,
        psi=psi or (lambda x: 0.0),
        gamma=NormalField(dom),
        controls_a=list(controls_a), controls_b=[0.0],
        time_independent_dynamics=True,
    )

TRIVIAL_POLICY = lambda m, i: (0, 0)


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
        base = x + dt * pr.mu(0.0, x, a)
        cols = np.sqrt(pr.n_sigma * dt) * pr.sigma(0.0, x, a).T
        ys = [base + sign * c for c in cols for sign in (1.0, -1.0)]
        absorbed = sum(dom.signed_distance(y) > TOL_BOUNDARY
                       and dom.boundary_kind(dom._scan_crossing(x, y))[0] == "dirichlet"
                       for y in ys)
        law = transition_law(pr, mesh, 0, i, a, 0.0, params)
        assert np.all(law.probs > 0.0)
        assert law.sum() == pytest.approx(1.0 - absorbed / len(ys), abs=1e-12)
        partial = partial or 0 < absorbed < len(ys)
    assert partial


def test_policy_cost_constant_terminal():
    pr = interval_problem(sigma=0.2, psi=lambda x: 3.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    got = policy_cost(pr, mesh, TRIVIAL_POLICY, 0, 1,
                      SchemeParams(dt=0.25, c_bar=0.2))
    assert got == pytest.approx(3.0, abs=1e-12)


def test_policy_cost_single_step():
    # deterministic shift right by one cell in one step
    pr = interval_problem(mu=0.25, f=lambda t, x, a: 2.0,
                          psi=lambda x: float(np.atleast_1d(x)[0]), T=1.0)
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


def test_policy_cost_time_dependent_dynamics():
    # the drift changes sign at t = 0.5; rows must be built at each step's time
    dom = Interval(0.0, 1.0)
    pr = Problem(domain=dom, T=1.0, n_sigma=1,
                 sigma=lambda t, x, a: np.array([[0.1]]),
                 mu=lambda t, x, a: np.array([0.5 - t]),
                 f=lambda t, x, a: 0.0, g=lambda t, p, b: 0.0,
                 psi=lambda x: float(np.atleast_1d(x)[0]),
                 gamma=NormalField(dom), controls_a=[0.0], controls_b=[0.0])
    mesh = build_interval_mesh(0.0, 1.0, 0.125)
    params = SchemeParams(dt=0.25, c_bar=0.2)
    vf = sweep(pr, mesh, params)
    got = [policy_cost(pr, mesh, TRIVIAL_POLICY, 0, i, params)
           for i in range(mesh.n_vertices)]
    assert vf.values[0][2] == pytest.approx(0.375, abs=1e-12)
    assert np.max(np.abs(np.array(got) - vf.values[0])) <= 1e-12


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
            sigma=lambda t, x, a, s=sig: np.array([[s]]),
            mu=lambda t, x, a, m=mu: np.array([m * (1.0 + a)]),
            f=lambda t, x, a, f0=fa, f1=fb: f0 if a == 0.0 else f1,
            g=lambda t, p, b: 0.0,
            psi=lambda x: float(np.atleast_1d(x)[0]) ** 2,
            gamma=NormalField(dom),
            controls_a=[0.0, 1.0], controls_b=[0.0],
            time_independent_dynamics=True,
        )
        insts.append(pr)
    return insts


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
    with pytest.raises(BadParams):
        policy_cost(pr, mesh, TRIVIAL_POLICY, 0, 0, params,
                    mode="monte_carlo", n_paths=0)
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
    with pytest.raises(BadParams):
        estimate_sojourn(pr, mesh, TRIVIAL_POLICY,
                         SchemeParams(dt=0.01, c_bar=0.2), n_paths=0)
