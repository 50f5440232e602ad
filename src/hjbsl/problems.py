"""Built-in benchmark problems with exact solutions where available."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .geometry import Disk, Interval, NormalField, RectWithHole, RotatedNormalField, real_scalar
from .scheme import Problem, check_integer


@dataclass
class Benchmark:
    name: str
    problem: Problem
    c_bar: float                 # default push-back constant
    eps: float = None            # 1D diffusion parameter when applicable


def unit_circle_controls(n: int) -> list:
    """n unit vectors at equal angles from (1, 0); n is an integer >= 1."""
    n = check_integer("n_a", n, 1)
    th = 2.0 * math.pi * np.arange(n) / n
    return [np.array([math.cos(t), math.sin(t)]) for t in th]


def _phi_1d(eps: float):
    """Stationary profile with phi'(0) = phi'(1) = 0, on arrays.

    For eps > 0 it is x + C+ e^{l+ x} + C- e^{l- x} with l± the roots of
    eps*l^2 - l - 1 = 0; the eps = 0 limit is x + e^{-x}.
    """
    eps = real_scalar(eps, "eps")
    if not 0 <= eps < math.inf:
        raise BadParams(f"eps must be finite and nonnegative, got {eps!r}")
    if eps == 0.0:
        return lambda x: x + np.exp(-x)
    lp = (1.0 + math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    lm = (1.0 - math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    den = math.exp(lp) - math.exp(lm)
    cp = (math.exp(lm) - 1.0) / (lp * den)
    cm = (1.0 - math.exp(lp)) / (lm * den)
    return lambda x: x + cp * np.exp(lp * x) + cm * np.exp(lm * x)


def make_test1(eps: float) -> Benchmark:
    """1D linear problem with homogeneous Neumann data, backward in time.

    Solves -u_t - eps*u_xx + u_x = f on (0,1) with terminal datum at t=1;
    exact solution ((3-t)/2) * phi(x).
    """
    phi = _phi_1d(eps)
    sig = math.sqrt(2.0 * eps)
    domain = Interval(0.0, 1.0)

    def f(t, X, a):
        x = X[:, 0]
        p = phi(x)
        # phi' - eps*phi'' collapses to 1 + x - phi via the root identity
        return 0.5 * p + 0.5 * (3.0 - t) * (1.0 + x - p)

    problem = Problem(
        domain=domain, T=1.0, n_sigma=1,
        sigma=lambda t, X, a: np.full((len(X), 1, 1), sig),
        # constant drifts broadcast to X's shape, so one point (dim,) gets
        # its own drift too
        mu=lambda t, X, a: np.broadcast_to(-1.0, np.shape(X)),
        f=f,
        g=lambda t, P, b: np.zeros(len(P)),
        psi=lambda X: phi(X[:, 0]),
        gamma=NormalField(domain),
        controls_a=[0.0], controls_b=[0.0],
        orientation="backward",
        exact_solution=lambda t, X: 0.5 * (3.0 - t) * phi(X[:, 0]),
        time_independent_dynamics=True,
    )
    return Benchmark(name="test1_eps", problem=problem,
                     c_bar=0.025 + 0.5 * sig, eps=eps)


def _test2_f(t, X):
    x1, x2 = X[:, 0], X[:, 1]
    grad = np.sqrt(np.cos(x1) ** 2 * np.sin(x2) ** 2
                   + np.sin(x1) ** 2 * np.cos(x2) ** 2)
    mixed = 2.0 * np.sin(x1 + x2) * np.cos(x1 + x2) * np.cos(x1) * np.cos(x2)
    return (0.5 - t) * np.sin(x1) * np.sin(x2) + (1.5 - t) * (grad - mixed)


def make_test2(bc: str = "neumann", n_a: int = 16) -> Benchmark:
    """Degenerate nonlinear problem on the unit disk, forward in time.

    The |Du| term is realized as a control structure: A is the unit circle
    and mu = -a, so the pointwise sup of -<mu, Du> over A is |Du|.  Exact
    solution (3/2 - t) sin(x1) sin(x2).
    """
    domain = Disk((0.0, 0.0), 1.0)
    if bc == "neumann":
        gamma = NormalField(domain)

        def g(t, P, b):
            x1, x2 = P[:, 0], P[:, 1]
            return (1.5 - t) * (x1 * np.cos(x1) * np.sin(x2)
                                + x2 * np.sin(x1) * np.cos(x2))
    elif bc == "oblique":
        gamma = RotatedNormalField(domain, math.pi / 6)

        def g(t, P, b):
            x1, x2 = P[:, 0], P[:, 1]
            c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
            g1 = x1 * c + x2 * s
            g2 = x2 * c - x1 * s
            return (1.5 - t) * (g1 * np.cos(x1) * np.sin(x2)
                                + g2 * np.sin(x1) * np.cos(x2))
    else:
        raise BadParams(f"unknown boundary condition {bc!r}")

    def sigma(t, X, a):
        th = X[:, 0] + X[:, 1]
        return math.sqrt(2.0) * np.stack([np.sin(th), np.cos(th)], axis=1)[:, :, None]

    def exact(t, X):
        return (1.5 - t) * np.sin(X[:, 0]) * np.sin(X[:, 1])

    problem = Problem(
        domain=domain, T=1.0, n_sigma=1,
        sigma=sigma,
        mu=lambda t, X, a: np.broadcast_to(-a, np.shape(X)),
        f=lambda t, X, a: _test2_f(t, X),
        g=g,
        psi=lambda X: 1.5 * np.sin(X[:, 0]) * np.sin(X[:, 1]),
        gamma=gamma,
        controls_a=unit_circle_controls(n_a), controls_b=[0.0],
        orientation="forward",
        exact_solution=exact,
        time_independent_dynamics=True,
    )
    name = "test2_neumann" if bc == "neumann" else "test2_oblique"
    return Benchmark(name=name, problem=problem, c_bar=0.25)


def make_test3(n_a: int = 16) -> Benchmark:
    """Exit problem on a rectangle with a circular obstacle, forward in time.

    Minimal expected cost at unit running cost, with exit costs 0 and 0.2
    on the left and right doors and reflection elsewhere.  No exact
    solution.
    """
    domain = RectWithHole()
    problem = Problem(
        domain=domain, T=3.0, n_sigma=2,
        sigma=lambda t, X, a: np.broadcast_to(0.1 * np.eye(2), (len(X), 2, 2)),
        mu=lambda t, X, a: np.broadcast_to(a, np.shape(X)),
        f=lambda t, X, a: np.ones(len(X)),
        g=lambda t, P, b: np.zeros(len(P)),
        psi=lambda X: np.zeros(len(X)),
        gamma=NormalField(domain),
        controls_a=unit_circle_controls(n_a), controls_b=[0.0],
        orientation="forward",
        time_independent_dynamics=True,
    )
    return Benchmark(name="test3_exit", problem=problem, c_bar=0.25)


def get_benchmark(name: str, eps: float = 0.0, n_a: int = 16) -> Benchmark:
    if name == "test1_eps":
        return make_test1(eps)
    if name == "test2_neumann":
        return make_test2("neumann", n_a=n_a)
    if name == "test2_oblique":
        return make_test2("oblique", n_a=n_a)
    if name == "test3_exit":
        return make_test3(n_a=n_a)
    raise BadParams(f"unknown benchmark {name!r}")
