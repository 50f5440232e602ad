import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjbsl.errors import BadParams, LocationFailure, NoCrossing, OutsideTube, Unstable
from hjbsl.geometry import (
    Disk,
    FunctionField,
    Interval,
    NormalField,
    RectWithHole,
    RotatedNormalField,
)
from hjbsl.mesh import build_interval_mesh
from hjbsl.problems import make_test1, make_test3
from hjbsl.scheme import (
    Problem,
    SchemeParams,
    apply_S,
    _classify,
    _classify_many,
    apply_S_control,
    build_node_table,
    check_weights,
    consistency_residual,
    discrete_characteristics,
    n_steps,
    reflect,
    sweep,
)


def interval_problem(sigma=0.0, mu=0.0, f=None, g=None, psi=None, T=1.0,
                     controls_a=(0.0,), orientation="backward"):
    dom = Interval(0.0, 1.0)
    return Problem(
        domain=dom, T=T, n_sigma=1,
        sigma=lambda t, x, a: np.array([[sigma]]),
        mu=lambda t, x, a: np.array([mu]),
        f=f or (lambda t, x, a: 0.0),
        g=g or (lambda t, p, b: 0.0),
        psi=psi or (lambda x: 0.0),
        gamma=NormalField(dom),
        controls_a=list(controls_a), controls_b=[0.0],
        orientation=orientation,
    )


def test_characteristics_zero_dynamics():
    pr = interval_problem()
    ys = discrete_characteristics(pr, 0.0, np.array([0.4]), 0.0, 0.01)
    assert np.allclose(ys, 0.4)


def test_characteristics_hand_value():
    pr = interval_problem(sigma=math.sqrt(0.1), mu=-1.0)
    ys = discrete_characteristics(pr, 0.0, np.array([0.5]), 0.0, 0.01)
    assert ys[0, 0] == pytest.approx(0.49 + 0.0316228, abs=1e-6)
    assert ys[1, 0] == pytest.approx(0.49 - 0.0316228, abs=1e-6)


def test_characteristics_mean_property():
    dom = Disk((0.0, 0.0), 1.0)
    pr = Problem(domain=dom, T=1.0, n_sigma=2,
                 sigma=lambda t, x, a: np.array([[0.3, 0.1], [0.0, 0.2]]),
                 mu=lambda t, x, a: np.array([0.5, -0.25]),
                 f=lambda t, x, a: 0.0, g=lambda t, p, b: 0.0,
                 psi=lambda x: 0.0, gamma=NormalField(dom),
                 controls_a=[0.0], controls_b=[0.0])
    x = np.array([0.1, 0.2])
    ys = discrete_characteristics(pr, 0.0, x, 0.0, 0.04)
    assert np.allclose(ys.mean(axis=0), x + 0.04 * np.array([0.5, -0.25]))


def test_reflect_inside_is_identity():
    dom = Disk((0.0, 0.0), 1.0)
    pr = Problem(domain=dom, T=1.0, n_sigma=1,
                 sigma=lambda t, x, a: np.array([[0.0], [0.0]]),
                 mu=lambda t, x, a: np.zeros(2),
                 f=lambda t, x, a: 0.0, g=lambda t, p, b: 0.0,
                 psi=lambda x: 0.0, gamma=NormalField(dom),
                 controls_a=[0.0], controls_b=[0.0])
    rp = reflect(pr, 0.0, np.array([0.2, 0.1]), 0.04, 0.25)
    assert not rp.exited
    assert np.allclose(rp.y_tilde, [0.2, 0.1])
    assert rp.d_tilde == 0.0 and rp.g_tilde == 0.0


def test_reflect_disk_example():
    dom = Disk((0.0, 0.0), 1.0)
    pr = Problem(domain=dom, T=1.0, n_sigma=1,
                 sigma=lambda t, x, a: np.array([[0.0], [0.0]]),
                 mu=lambda t, x, a: np.zeros(2),
                 f=lambda t, x, a: 0.0, g=lambda t, p, b: 7.0,
                 psi=lambda x: 0.0, gamma=NormalField(dom),
                 controls_a=[0.0], controls_b=[0.0])
    y = np.array([1.2, 0.0])
    rp = reflect(pr, 0.0, y, 0.04, 0.25)
    assert rp.exited
    assert np.allclose(rp.p, [1.0, 0.0])
    assert rp.d_tilde == pytest.approx(0.25)
    # pull-back identity: y_tilde = y - d_tilde * gamma(p)
    assert np.allclose(rp.y_tilde, y - rp.d_tilde * np.array([1.0, 0.0]),
                       atol=1e-10)
    assert np.allclose(rp.y_tilde, [0.95, 0.0])
    assert rp.g_tilde == 7.0


def test_reflect_interval_example():
    pr = interval_problem(g=lambda t, p, b: 5.0)
    rp = reflect(pr, 0.0, np.array([1.02]), 0.01, 0.5)
    assert rp.d_tilde == pytest.approx(0.07)
    assert rp.y_tilde[0] == pytest.approx(0.95)
    assert rp.g_tilde == 5.0


def test_reflect_outside_tube():
    pr = interval_problem()
    # pull-back would overshoot the whole interval
    with pytest.raises(OutsideTube):
        reflect(pr, 0.0, np.array([1.5]), 16.0, 0.5)


def test_apply_S_control_zero_and_constant():
    pr = interval_problem(sigma=0.3, mu=-1.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.01, c_bar=0.2)
    zero = np.zeros(mesh.n_vertices)
    assert apply_S_control(pr, mesh, zero, 0, 2, 0.0, 0.0, params) == \
        pytest.approx(0.0, abs=1e-14)
    const = np.full(mesh.n_vertices, 2.5)
    assert apply_S_control(pr, mesh, const, 0, 2, 0.0, 0.0, params) == \
        pytest.approx(2.5, abs=1e-12)


def test_apply_S_control_affine_no_exit():
    pr = interval_problem(sigma=0.1, mu=0.5,
                          f=lambda t, x, a: 1.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.01, c_bar=0.2)
    nodal = 2.0 * mesh.vertices[:, 0] + 0.3
    x = 0.5
    got = apply_S_control(pr, mesh, nodal, 0, 2, 0.0, 0.0, params)
    want = 2.0 * (x + 0.01 * 0.5) + 0.3 + 0.01 * 1.0
    assert got == pytest.approx(want, abs=1e-12)


def test_apply_S_min_and_tie_break():
    pr = interval_problem(controls_a=(0.0, 1.0),
                          f=lambda t, x, a: float(a))
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.1, c_bar=0.2)
    zero = np.zeros(mesh.n_vertices)
    assert apply_S(pr, mesh, zero, 0, 2, params) == pytest.approx(0.0, abs=1e-14)
    # singleton control set reduces to apply_S_control
    pr1 = interval_problem(sigma=0.2)
    got = apply_S(pr1, mesh, zero, 0, 2, params)
    assert got == apply_S_control(pr1, mesh, zero, 0, 2, 0.0, 0.0, params)


def test_monotone_and_commutation_randomized():
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    rng = np.random.default_rng(0)
    for _ in range(100):
        U = rng.uniform(-1.0, 1.0, mesh.n_vertices)
        V = U + rng.uniform(0.0, 1.0, mesh.n_vertices)
        c = rng.uniform(-5.0, 5.0)
        i = int(rng.integers(mesh.n_vertices))
        su = apply_S(bench.problem, mesh, U, 0, i, params)
        assert su <= apply_S(bench.problem, mesh, V, 0, i, params) + 1e-12
        assert apply_S(bench.problem, mesh, U + c, 0, i, params) == \
            pytest.approx(su + c, abs=1e-12)


def test_sweep_constant_fixed_point():
    pr = interval_problem(sigma=0.2, mu=-0.5, psi=lambda x: 4.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    vf = sweep(pr, mesh, SchemeParams(dt=0.05, c_bar=0.3))
    assert np.allclose(vf.values, 4.0, atol=1e-12)


def test_sweep_pure_time_integration():
    pr = interval_problem(f=lambda t, x, a: 1.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    dt = 0.125
    vf = sweep(pr, mesh, SchemeParams(dt=dt, c_bar=0.3))
    N = n_steps(1.0, dt)
    for k in range(N + 1):
        assert np.allclose(vf.values[k], (N - k) * dt, atol=1e-12)


def test_sweep_terminal_condition_exact():
    bench = make_test1(0.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    vf = sweep(bench.problem, mesh, SchemeParams(dt=0.1, c_bar=bench.c_bar))
    psi = np.array([bench.problem.psi(x) for x in mesh.vertices])
    assert np.array_equal(vf.values[-1], psi)
    assert vf.report_index == 0


def test_sweep_forward_orientation_indexing():
    pr = interval_problem(f=lambda t, x, a: 1.0, orientation="forward")
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    vf = sweep(pr, mesh, SchemeParams(dt=0.25, c_bar=0.3))
    # initial datum sits at index 0, accumulated cost grows with time
    assert np.allclose(vf.values[0], 0.0)
    assert np.allclose(vf.values[-1], 1.0, atol=1e-12)
    assert vf.report_index == len(vf.values) - 1


def test_sweep_deterministic():
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.05)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    a = sweep(bench.problem, mesh, params)
    b = sweep(bench.problem, mesh, params)
    assert np.array_equal(a.values, b.values)


def test_sweep_blowup_guard():
    pr = interval_problem(f=lambda t, x, a: 1.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    with pytest.raises(Unstable):
        sweep(pr, mesh, SchemeParams(dt=0.01, c_bar=0.3, blowup_guard=0.5))


def test_sweep_rejects_dt_larger_than_horizon():
    pr = interval_problem()
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    with pytest.raises(BadParams):
        sweep(pr, mesh, SchemeParams(dt=2.0, c_bar=0.3))


def test_dirichlet_routing_by_first_crossing():
    pr = make_test3().problem
    dom = pr.domain

    def first(x, y):
        return dom.first_crossing_many(np.array([x]), np.array([y]))[0]

    # left and right doors take their exit data
    for x, y, value in [([-0.9, 0.0], [-1.1, 0.0], 0.0), ([0.9, 0.0], [1.1, 0.0], 0.2)]:
        assert dom.boundary_kind(first(x, y)) == ("dirichlet", value)
        rp = _classify(pr, np.array(x), np.array(y), 0.0, 0.01, 0.25)
        assert rp.exited and rp.dirichlet and rp.value == value
    # a crossing of the oblique top face is reflected, not imposed
    assert dom.boundary_kind(first([0.0, 0.4], [0.0, 0.6]))[0] == "oblique"
    rp = _classify(pr, np.array([0.0, 0.4]), np.array([0.0, 0.6]), 0.0, 0.01, 0.25)
    assert rp.exited and not rp.dirichlet
    # segments that end inside or on the boundary do not cross
    with pytest.raises(NoCrossing):
        first([0.0, 0.0], [0.0, 0.2])
    with pytest.raises(NoCrossing):
        first([0.0, 0.0], [0.0, 0.5])


def test_consistency_affine_exact():
    pr = interval_problem(sigma=0.2, mu=0.3)
    phi = (lambda x: 2.0 * float(np.atleast_1d(x)[0]) + 1.0,
           lambda x: np.array([2.0]),
           lambda x: np.array([[0.0]]))
    r = consistency_residual(pr, None, phi, 0, np.array([0.5]), 0.0, 0.0,
                             SchemeParams(dt=0.01, c_bar=0.2))
    assert abs(r) <= 1e-12


def test_consistency_interior_order():
    bench = make_test1(0.05)
    phi = (lambda x: float(np.atleast_1d(x)[0]) ** 2,
           lambda x: np.array([2.0 * float(np.atleast_1d(x)[0])]),
           lambda x: np.array([[2.0]]))
    dts = [1e-2, 5e-3, 2.5e-3]
    rs = [abs(consistency_residual(bench.problem, None, phi, 0,
                                   np.array([0.5]), 0.0, 0.0,
                                   SchemeParams(dt=dt, c_bar=bench.c_bar)))
          for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(rs), 1)[0]
    assert slope >= 1.4


def test_consistency_boundary_order():
    bench = make_test1(0.05)
    phi = (lambda x: float(np.atleast_1d(x)[0]) ** 2,
           lambda x: np.array([2.0 * float(np.atleast_1d(x)[0])]),
           lambda x: np.array([[2.0]]))
    dts = [1e-2, 5e-3, 2.5e-3]
    rs = [abs(consistency_residual(bench.problem, None, phi, 0,
                                   np.array([0.999]), 0.0, 0.0,
                                   SchemeParams(dt=dt, c_bar=bench.c_bar),
                                   boundary=True))
          for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(rs), 1)[0]
    assert slope >= 1.4


@given(st.floats(-3.0, 3.0), st.integers(0, 10))
@settings(max_examples=50, deadline=None)
def test_commutation_property(c, i):
    bench = make_test1(0.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    U = np.sin(3.0 * mesh.vertices[:, 0])
    s0 = apply_S(bench.problem, mesh, U, 0, i, params)
    s1 = apply_S(bench.problem, mesh, U + c, 0, i, params)
    assert s1 == pytest.approx(s0 + c, abs=1e-12)


def test_check_weights_rejects_non_convex_rows():
    good = np.array([[[0.25, 0.75], [1.0, 0.0]]])
    check_weights(good)
    check_weights(np.zeros((0, 3)))
    for bad in ([[0.5, 0.5 + 1e-9]], [[-1e-3, 1.0 + 1e-3]], [[0.0, 0.0]]):
        with pytest.raises(LocationFailure):
            check_weights(np.array(bad))


def test_build_node_table_rejects_bad_weights(monkeypatch):
    pr = interval_problem(sigma=0.3, mu=0.2)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    table = build_node_table(pr, mesh, 0.0, 0.0, 0.1, 0.25, 0.0)
    assert table.dt == 0.1
    assert np.allclose(table.weights.sum(axis=2), 1.0)

    def bad_locate(points):
        return np.zeros(len(points), dtype=int), np.full((len(points), 2), 0.6)

    monkeypatch.setattr(mesh, "locate_many", bad_locate)
    with pytest.raises(LocationFailure):
        build_node_table(pr, mesh, 0.0, 0.0, 0.1, 0.25, 0.0)


# -- batched classification against the one-point _classify --

def _problem_on(dom, gamma):
    return Problem(domain=dom, T=1.0, n_sigma=1,
                   sigma=lambda t, x, a: np.zeros((dom.dim, 1)),
                   mu=lambda t, x, a: np.zeros(dom.dim),
                   f=lambda t, x, a: 0.0, g=lambda t, p, b: 0.0,
                   psi=lambda x: 0.0, gamma=gamma,
                   controls_a=[0.0], controls_b=[0.0])


_DISK = Disk((0.0, 0.0), 1.0)
_ROT = RotatedNormalField(_DISK, math.pi / 6)
_RECT = RectWithHole()
CLASSIFY_CASES = {
    "interval": _problem_on(Interval(0.0, 1.0), NormalField(Interval(0.0, 1.0))),
    "disk_normal": _problem_on(_DISK, NormalField(_DISK)),
    "disk_rotated": _problem_on(_DISK, _ROT),
    "disk_newton": _problem_on(_DISK, FunctionField(lambda p, b: _ROT(p, b))),
    "rect": _problem_on(_RECT, NormalField(_RECT)),
}


def _start_point(dom, u, v):
    """A point of the closed domain, mostly within 0.1 of the boundary."""
    if dom.dim == 1:
        return np.array([0.1 * u if v < 0.5 else 1.0 - 0.1 * u])
    if isinstance(dom, Disk):
        r = 1.0 - 0.1 * u
        return np.array([r * math.cos(2 * math.pi * v), r * math.sin(2 * math.pi * v)])
    # a quarter each within 0.1 of the left and right faces, where the doors are
    x = -1.0 + 0.4 * u if u < 0.25 else 1.0 - 0.4 * (1.0 - u) if u > 0.75 else -1.0 + 2.0 * u
    return np.array([x, -0.5 + v])


@pytest.mark.parametrize("name", sorted(CLASSIFY_CASES))
@given(rows=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                               st.floats(0.0, 2 * math.pi), st.floats(0.0, 0.15)),
                     min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_classify_many_matches_classify(name, rows):
    pr = CLASSIFY_CASES[name]
    dom = pr.domain
    dt, c_bar = 0.01, 0.25
    X, Y = [], []
    for u, v, th, length in rows:
        x = _start_point(dom, u, v)
        if dom.signed_distance(x) > 0.0:
            continue
        X.append(x)
        Y.append(x + length * np.array([math.cos(th), math.sin(th)])[:dom.dim])
    assume(X)
    X, Y = np.array(X), np.array(Y)
    try:
        ref = [_classify(pr, x, y, 0.0, dt, c_bar) for x, y in zip(X, Y)]
    except OutsideTube:
        with pytest.raises(OutsideTube):
            _classify_many(pr, X, Y, 0.0, dt, c_bar)
        return
    got = _classify_many(pr, X, Y, 0.0, dt, c_bar)
    for j, rp in enumerate(ref):
        assert got.exited[j] == rp.exited
        assert got.dirichlet[j] == rp.dirichlet
        assert got.value[j] == rp.value
        assert np.max(np.abs(got.y_tilde[j] - rp.y_tilde)) <= 1e-12
        assert abs(got.d_tilde[j] - rp.d_tilde) <= 1e-12
        if rp.exited and not rp.dirichlet:
            assert np.max(np.abs(got.p[j] - rp.p)) <= 1e-12


class _Counting:
    """Counts the scalar signed_distance calls of a built-in domain."""

    calls = 0

    def signed_distance(self, x):
        self.calls += 1
        return super().signed_distance(x)


class _CountingDisk(_Counting, Disk):
    pass


class _CountingRect(_Counting, RectWithHole):
    pass


@pytest.mark.parametrize("dom, field, y", [
    (_CountingDisk(), lambda d: RotatedNormalField(d, math.pi / 6), [1.05, 0.1]),
    (_CountingRect(), NormalField, [0.3, 0.52]),
], ids=["disk", "rect"])
def test_oblique_exit_costs_two_signed_distances(dom, field, y):
    pr = _problem_on(dom, field(dom))
    x = np.array(y) * 0.9
    dom.calls = 0
    assert not _classify(pr, x, x, 0.0, 0.01, 0.25).exited
    assert dom.calls == 1
    dom.calls = 0
    rp = _classify(pr, x, np.array(y), 0.0, 0.01, 0.25)
    assert rp.exited and not rp.dirichlet
    # contains(y) and contains(y_tilde); no second test of y
    assert dom.calls == 2
    dom.calls = 0
    assert reflect(pr, 0.0, np.array(y), 0.01, 0.25).exited
    assert dom.calls == 2
