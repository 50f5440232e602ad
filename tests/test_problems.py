import math

import numpy as np
import pytest

from hjbsl.errors import BadParams
from hjbsl.problems import (
    _phi_1d,
    get_benchmark,
    make_test1,
    make_test2,
    make_test3,
    unit_circle_controls,
)


def _phi_derivatives(eps):
    if eps == 0.0:
        return (lambda x: x + math.exp(-x),
                lambda x: 1.0 - math.exp(-x),
                lambda x: math.exp(-x))
    lp = (1.0 + math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    lm = (1.0 - math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    den = math.exp(lp) - math.exp(lm)
    cp = (math.exp(lm) - 1.0) / (lp * den)
    cm = (1.0 - math.exp(lp)) / (lm * den)
    return (lambda x: x + cp * math.exp(lp * x) + cm * math.exp(lm * x),
            lambda x: 1.0 + cp * lp * math.exp(lp * x) + cm * lm * math.exp(lm * x),
            lambda x: cp * lp * lp * math.exp(lp * x) + cm * lm * lm * math.exp(lm * x))


def test_phi_boundary_derivatives():
    for eps in (0.05, 0.2, 1.0):
        _, d1, _ = _phi_derivatives(eps)
        assert d1(0.0) == pytest.approx(0.0, abs=1e-12)
        assert d1(1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(BadParams):
        _phi_1d(-0.1)


def test_test1_values():
    bench = make_test1(0.0)
    exact = bench.problem.exact_solution
    assert exact(1.0, np.array([[0.0]]))[0] == pytest.approx(1.0)
    assert exact(0.0, np.array([[0.0]]))[0] == pytest.approx(1.5)
    assert bench.c_bar == pytest.approx(0.025)
    assert make_test1(0.05).c_bar == pytest.approx(0.025 + 0.5 * math.sqrt(0.1))


def test_test1_datum_consistency():
    for eps in (0.0, 0.05):
        bench = make_test1(eps)
        pr = bench.problem
        X = np.linspace(0.0, 1.0, 11)[:, None]
        assert np.max(np.abs(pr.psi(X) - pr.exact_solution(pr.T, X))) <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
def test_test1_pde_residual(eps):
    # -u_t - eps*u_xx + u_x = f with u = ((3-t)/2) * phi
    bench = make_test1(eps)
    phi, d1, d2 = _phi_derivatives(eps)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t = rng.uniform(0.0, 1.0)
        x = rng.uniform(0.0, 1.0)
        u_t = -0.5 * phi(x)
        u_x = 0.5 * (3.0 - t) * d1(x)
        u_xx = 0.5 * (3.0 - t) * d2(x)
        lhs = -u_t - eps * u_xx + u_x
        assert abs(lhs - bench.problem.f(t, np.array([[x]]), 0.0)[0]) <= 1e-8


def test_test2_values():
    bench = make_test2("neumann")
    exact = bench.problem.exact_solution
    assert exact(1.0, np.array([[0.0, 0.0]]))[0] == pytest.approx(0.0)
    assert exact(0.0, np.array([[math.pi / 2, math.pi / 2]]))[0] == pytest.approx(1.5)
    assert bench.c_bar == 0.25
    with pytest.raises(BadParams):
        make_test2("robin")


def test_test2_oblique_field_example():
    bench = make_test2("oblique")
    g = bench.problem.gamma(np.array([[1.0, 0.0]]), None)
    assert np.allclose(g, [[math.cos(math.pi / 6), -math.sin(math.pi / 6)]])


def test_test2_datum_consistency():
    for bc in ("neumann", "oblique"):
        pr = make_test2(bc).problem
        rng = np.random.default_rng(1)
        X = np.array([rng.uniform(-0.7, 0.7, size=2) for _ in range(50)])
        assert np.max(np.abs(pr.psi(X) - pr.exact_solution(0.0, X))) <= 1e-12


def test_test2_pde_residual():
    # u_t - 0.5*Tr(sigma sigma^T D^2 u) + |Du| = f
    pr = make_test2("neumann").problem
    rng = np.random.default_rng(2)
    for _ in range(1000):
        t = rng.uniform(0.0, 1.0)
        x = rng.uniform(-0.7, 0.7, size=2)
        x1, x2 = x
        c = 1.5 - t
        u_t = -math.sin(x1) * math.sin(x2)
        du = c * np.array([math.cos(x1) * math.sin(x2),
                           math.sin(x1) * math.cos(x2)])
        h11 = -c * math.sin(x1) * math.sin(x2)
        h12 = c * math.cos(x1) * math.cos(x2)
        hess = np.array([[h11, h12], [h12, h11]])
        sg = pr.sigma(t, x[None], None)[0]
        tr = float(np.trace(sg @ sg.T @ hess))
        lhs = u_t - 0.5 * tr + float(np.linalg.norm(du))
        assert abs(lhs - pr.f(t, x[None], None)[0]) <= 1e-8


def test_test2_boundary_data():
    # g equals <gamma, Du> of the exact solution on the circle
    for bc in ("neumann", "oblique"):
        pr = make_test2(bc).problem
        rng = np.random.default_rng(3)
        for _ in range(200):
            th = rng.uniform(0.0, 2.0 * math.pi)
            t = rng.uniform(0.0, 1.0)
            p = np.array([math.cos(th), math.sin(th)])
            c = 1.5 - t
            du = c * np.array([math.cos(p[0]) * math.sin(p[1]),
                               math.sin(p[0]) * math.cos(p[1])])
            gam = pr.gamma(p[None], None)[0]
            assert pr.g(t, p[None], None)[0] == pytest.approx(float(np.dot(gam, du)),
                                                              abs=1e-12)


def test_hamiltonian_realization():
    rng = np.random.default_rng(4)
    for n_a in (8, 16, 32):
        ctl = unit_circle_controls(n_a)
        for _ in range(100):
            p = rng.uniform(-1.0, 1.0, size=2)
            best = max(float(np.dot(a, p)) for a in ctl)
            norm = float(np.linalg.norm(p))
            assert norm - best <= norm * (1.0 - math.cos(math.pi / n_a)) + 1e-12
    with pytest.raises(BadParams):
        unit_circle_controls(0)


def test_test3_data():
    bench = make_test3()
    pr = bench.problem
    rng = np.random.default_rng(5)
    X = np.array([rng.uniform(-1.0, 1.0, size=2) for _ in range(50)])
    assert np.array_equal(pr.psi(X), np.zeros(50))
    assert np.array_equal(pr.f(0.0, X, pr.controls_a[0]), np.ones(50))
    dirichlet, value = pr.domain.boundary_kind_many([[1.0, 0.1]])
    assert dirichlet.tolist() == [True] and value.tolist() == [0.2]
    assert pr.T == 3.0
    assert pr.n_sigma == 2
    sg = pr.sigma(0.0, np.zeros((3, 2)), None)
    assert sg.shape == (3, 2, 2)
    assert np.allclose(sg, 0.1 * np.eye(2))


def test_get_benchmark_dispatch():
    assert get_benchmark("test1_eps", eps=0.05).eps == 0.05
    assert get_benchmark("test2_neumann").name == "test2_neumann"
    assert get_benchmark("test2_oblique").name == "test2_oblique"
    assert get_benchmark("test3_exit").name == "test3_exit"
    with pytest.raises(BadParams):
        get_benchmark("nope")


def test_builtin_drift_of_one_point():
    # a (dim,) point gets its own drift, as a row of a batch does
    for name in ("test1_eps", "test2_oblique", "test3_exit"):
        pr = get_benchmark(name).problem
        x = np.full(pr.domain.dim, 0.25)
        for a in pr.controls_a:
            assert np.array_equal(pr.mu(0.0, x, a), pr.mu(0.0, x[None], a)[0])
