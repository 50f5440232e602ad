import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjbsl import scheme
from hjbsl.cli import build_mesh_for
from hjbsl.errors import (
    BadParams,
    LocationFailure,
    NoCrossing,
    OutsideDomain,
    OutsideTube,
    Unstable,
)
from hjbsl.geometry import (
    TOL_BOUNDARY,
    Disk,
    FunctionField,
    Interval,
    NormalField,
    RectWithHole,
    RotatedNormalField,
    oblique_projection,
    oblique_projection_many,
    oblique_projection_newton,
)
from hjbsl.markov import _ChainModel, _policy_values, dp_oracle, policy_cost
from hjbsl.mesh import build_disk_mesh, build_interval_mesh, build_rect_with_hole_mesh
from hjbsl.problems import get_benchmark, make_test1, make_test2, make_test3
from hjbsl.scheme import (
    PASS_ROWS,
    Operator,
    Problem,
    SchemeParams,
    _characteristics,
    _classify_many,
    apply_S,
    check_weights,
    consistency_residual,
    control_groups,
    n_steps,
    step_time,
    sweep,
)
from test_geometry import boundary_kind, scan_crossing


def interval_problem(sigma=0.0, mu=0.0, f=None, g=None, psi=None, T=1.0,
                     controls_a=(0.0,), orientation="backward"):
    dom = Interval(0.0, 1.0)
    return Problem(
        domain=dom, T=T, n_sigma=1,
        sigma=lambda t, X, a: np.full((len(X), 1, 1), sigma),
        mu=lambda t, X, a: np.full((len(X), 1), mu),
        f=f or (lambda t, X, a: np.zeros(len(X))),
        g=g or (lambda t, P, b: np.zeros(len(P))),
        psi=psi or (lambda X: np.zeros(len(X))),
        gamma=NormalField(dom),
        controls_a=list(controls_a), controls_b=[0.0],
        orientation=orientation,
    )


def const_rows(value):
    """A (t, X, a) or (t, P, b) handle with the same value at every row."""
    v = np.asarray(value, dtype=float)
    return lambda t, X, c: np.broadcast_to(v, (len(X),) + v.shape)


ZERO_PSI = lambda X: np.zeros(len(X))


def characteristics(pr, x, dt):
    return _characteristics(pr, 0.0, np.array([x], dtype=float), 0.0, dt)[0]


def classify(pr, x, y, dt, c_bar):
    """_classify_many of one characteristic, as a row of each field."""
    rp = _classify_many(pr, np.array([x], dtype=float), np.array([y], dtype=float),
                        0, dt, c_bar)
    return {k: v[0] for k, v in vars(rp).items()}


def test_characteristics_zero_dynamics():
    pr = interval_problem()
    ys = characteristics(pr, [0.4], 0.01)
    assert np.allclose(ys, 0.4)


def test_characteristics_hand_value():
    pr = interval_problem(sigma=math.sqrt(0.1), mu=-1.0)
    ys = characteristics(pr, [0.5], 0.01)
    assert ys[0, 0] == pytest.approx(0.49 + 0.0316228, abs=1e-6)
    assert ys[1, 0] == pytest.approx(0.49 - 0.0316228, abs=1e-6)


def test_characteristics_mean_property():
    dom = Disk((0.0, 0.0), 1.0)
    pr = Problem(domain=dom, T=1.0, n_sigma=2,
                 sigma=const_rows([[0.3, 0.1], [0.0, 0.2]]),
                 mu=const_rows([0.5, -0.25]),
                 f=const_rows(0.0), g=const_rows(0.0),
                 psi=ZERO_PSI, gamma=NormalField(dom),
                 controls_a=[0.0], controls_b=[0.0])
    x = np.array([0.1, 0.2])
    ys = characteristics(pr, x, 0.04)
    assert np.allclose(ys.mean(axis=0), x + 0.04 * np.array([0.5, -0.25]))


def test_reflect_inside_is_identity():
    dom = Disk((0.0, 0.0), 1.0)
    pr = Problem(domain=dom, T=1.0, n_sigma=1,
                 sigma=const_rows([[0.0], [0.0]]),
                 mu=const_rows([0.0, 0.0]),
                 f=const_rows(0.0), g=const_rows(0.0),
                 psi=ZERO_PSI, gamma=NormalField(dom),
                 controls_a=[0.0], controls_b=[0.0])
    rp = classify(pr, [0.2, 0.0], [0.2, 0.1], 0.04, 0.25)
    assert not rp["exited"] and not rp["dirichlet"]
    assert np.allclose(rp["y_tilde"], [0.2, 0.1])
    assert rp["d_tilde"] == 0.0


def test_reflect_disk_example():
    dom = Disk((0.0, 0.0), 1.0)
    pr = Problem(domain=dom, T=1.0, n_sigma=1,
                 sigma=const_rows([[0.0], [0.0]]),
                 mu=const_rows([0.0, 0.0]),
                 f=const_rows(0.0), g=const_rows(7.0),
                 psi=ZERO_PSI, gamma=NormalField(dom),
                 controls_a=[0.0], controls_b=[0.0])
    y = np.array([1.2, 0.0])
    rp = classify(pr, [0.9, 0.0], y, 0.04, 0.25)
    assert rp["exited"] and not rp["dirichlet"]
    assert np.allclose(rp["p"], [1.0, 0.0])
    assert rp["d_tilde"] == pytest.approx(0.25)
    # pull-back identity: y_tilde = y - d_tilde * gamma(p)
    assert np.allclose(rp["y_tilde"], y - rp["d_tilde"] * np.array([1.0, 0.0]),
                       atol=1e-10)
    assert np.allclose(rp["y_tilde"], [0.95, 0.0])


def test_reflect_interval_example():
    pr = interval_problem()
    rp = classify(pr, [0.99], [1.02], 0.01, 0.5)
    assert rp["exited"] and not rp["dirichlet"]
    assert rp["d_tilde"] == pytest.approx(0.07)
    assert rp["y_tilde"][0] == pytest.approx(0.95)
    assert rp["p"][0] == 1.0


def test_reflect_outside_tube():
    pr = interval_problem()
    # pull-back would overshoot the whole interval
    with pytest.raises(OutsideTube):
        classify(pr, [0.9], [1.5], 16.0, 0.5)


def one_pair(pr, a=0.0, b=0.0):
    """pr with the one control pair (a, b): apply_S is then S_{k,i}[Phi](a,b)."""
    return dataclasses.replace(pr, controls_a=[a], controls_b=[b])


def test_apply_S_control_zero_and_constant():
    pr = one_pair(interval_problem(sigma=0.3, mu=-1.0))
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.01, c_bar=0.2)
    zero = np.zeros(mesh.n_vertices)
    assert apply_S(pr, mesh, zero, 0, 2, params) == pytest.approx(0.0, abs=1e-14)
    const = np.full(mesh.n_vertices, 2.5)
    assert apply_S(pr, mesh, const, 0, 2, params) == pytest.approx(2.5, abs=1e-12)
    # the horizon T = 1 has steps 0..99
    for k in (-1, 100):
        with pytest.raises(BadParams):
            apply_S(pr, mesh, zero, k, 2, params)


def test_apply_S_control_affine_no_exit():
    pr = one_pair(interval_problem(sigma=0.1, mu=0.5, f=const_rows(1.0)))
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.01, c_bar=0.2)
    nodal = 2.0 * mesh.vertices[:, 0] + 0.3
    x = 0.5
    got = apply_S(pr, mesh, nodal, 0, 2, params)
    want = 2.0 * (x + 0.01 * 0.5) + 0.3 + 0.01 * 1.0
    assert got == pytest.approx(want, abs=1e-12)


def test_apply_S_min_and_tie_break():
    pr = interval_problem(controls_a=(0.0, 1.0),
                          f=lambda t, X, a: np.full(len(X), float(a)))
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.1, c_bar=0.2)
    zero = np.zeros(mesh.n_vertices)
    assert apply_S(pr, mesh, zero, 0, 2, params) == pytest.approx(0.0, abs=1e-14)
    # a singleton control set is its one pair's operator
    pr1 = interval_problem(sigma=0.2)
    got = apply_S(pr1, mesh, zero, 0, 2, params)
    assert got == apply_S(one_pair(pr1), mesh, zero, 0, 2, params)


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
    pr = interval_problem(sigma=0.2, mu=-0.5, psi=lambda X: np.full(len(X), 4.0))
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    vf = sweep(pr, mesh, SchemeParams(dt=0.05, c_bar=0.3))
    assert np.allclose(vf.values, 4.0, atol=1e-12)


def test_sweep_pure_time_integration():
    pr = interval_problem(f=const_rows(1.0))
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
    psi = bench.problem.psi(mesh.vertices)
    assert np.array_equal(vf.values[-1], psi)
    assert vf.report_index == 0


def test_sweep_forward_orientation_indexing():
    pr = interval_problem(f=const_rows(1.0), orientation="forward")
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    vf = sweep(pr, mesh, SchemeParams(dt=0.25, c_bar=0.3))
    # initial datum sits at index 0, accumulated cost grows with time
    assert np.allclose(vf.values[0], 0.0)
    assert np.allclose(vf.values[-1], 1.0, atol=1e-12)
    assert vf.report_index == len(vf.values) - 1


def test_value_function_rejects_bad_queries():
    bench = make_test1(0.0)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    dt = 0.1
    vf = sweep(bench.problem, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
    x = np.array([0.5])
    assert vf(0.0, x) == pytest.approx(vf.values[0, 5])
    assert vf(1.0 + 0.5e-9 * dt, x) == vf(1.0, x) == pytest.approx(vf.values[-1, 5])
    assert vf(-0.5e-9 * dt, x) == vf(0.0, x)
    for t in (5.0, -3.0, 1.0 + 2e-9 * dt, -2e-9 * dt, math.nan, math.inf, -math.inf):
        with pytest.raises(BadParams):
            vf(t, x)
    # two coordinates on the 1D mesh are not two points
    with pytest.raises(BadParams):
        vf(0.0, [0.5, 0.2])
    # real numbers of any type are accepted: numpy scalars, integers,
    # fractions and 0-d arrays, for the time and the point alike
    for t in (0, np.float32(0.0), np.int64(0), Fraction(0), np.array(0.0)):
        assert vf(t, x) == vf(0.0, x)
        assert vf(t, [x]).tolist() == [vf(0.0, x)]
    for point in ([0.5], np.float32(0.5), np.array([Fraction(1, 2)]), [np.int64(1)],
                  np.array(0.5)):
        assert vf(0.0, point) == vf(0.0, np.asarray(point, dtype=float).reshape(1))
    assert vf(0.0, [[Fraction(1, 2)], [1]]).tolist() == [vf(0.0, [0.5]), vf(0.0, [1.0])]


def test_value_function_takes_rows():
    bench = get_benchmark("test2_oblique")
    mesh = build_disk_mesh((0.0, 0.0), 1.0, 0.25)
    vf = sweep(bench.problem, mesh, SchemeParams(dt=0.25, c_bar=bench.c_bar))
    rng = np.random.default_rng(5)
    # boundary points between the vertices lie off the polygon: grid misses
    th = rng.uniform(0.0, 2.0 * math.pi, 20)
    X = np.concatenate([mesh.vertices, rng.uniform(-0.7, 0.7, (50, 2)),
                        np.column_stack([np.cos(th), np.sin(th)])])
    for t in vf.times:
        got = vf(t, X)
        assert got.shape == (len(X),)
        # one locate_many call gives the one-point values exactly
        assert got.tolist() == [vf(t, x) for x in X]
    assert vf(0.0, X[:0]).shape == (0,)
    with pytest.raises(OutsideDomain):
        vf(0.0, np.array([[0.1, 0.2], [1.5, 0.0]]))
    for bad in (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2, 2)), np.zeros(3)):
        with pytest.raises(BadParams):
            vf(0.0, bad)


def test_sweep_deterministic():
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.05)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    a = sweep(bench.problem, mesh, params)
    b = sweep(bench.problem, mesh, params)
    assert np.array_equal(a.values, b.values)


def test_sweep_blowup_guard():
    """The guard 1e3*(max|psi| + T*max|f| + 1) has no boundary-cost term:
    with psi = f = 0 it is 1e3, which a boundary cost of 1e9 passes at the
    first step, and a boundary cost of 1 never reaches."""
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.01, c_bar=0.3)
    assert np.isfinite(sweep(interval_problem(sigma=0.3, g=const_rows(1.0)), mesh,
                             params).values).all()
    with pytest.raises(Unstable, match=r"guard 1e\+03 at step 99$"):
        sweep(interval_problem(sigma=0.3, g=const_rows(1e9)), mesh, params)


def planted(handle, value):
    """handle with value in place of its result at the first row."""
    def changed(*args):
        out = np.array(handle(*args), dtype=float)
        out[0] = value
        return out
    return changed


@pytest.mark.parametrize("name, value", [
    *[(h, v) for h in ("f", "g") for v in (math.inf, -math.inf, math.nan)],
    ("psi", math.inf), ("psi", math.nan)])
def test_sweep_guard_catches_non_finite_handle_output(name, value):
    """A value that is not finite at one point of f or g makes a value that
    is not finite at the first step, which raises whatever the guard is: an
    infinite f makes the guard itself infinite.  A psi that is not finite
    is refused before the first step, from the max|psi| the guard uses."""
    bench = get_benchmark("test1_eps", eps=0.05)
    pr = dataclasses.replace(bench.problem, **{name: planted(getattr(bench.problem, name),
                                                             value)})
    error, match = ((BadParams, "^psi returned a value that is not finite$") if name == "psi"
                    else (Unstable, r"at step 9$"))
    with pytest.raises(error, match=match):
        sweep(pr, build_interval_mesh(0.0, 1.0, 0.1), SchemeParams(dt=0.1, c_bar=bench.c_bar))


@pytest.mark.parametrize("make", [
    lambda: SchemeParams(dt=math.nan, c_bar=0.3),
    lambda: SchemeParams(dt=math.inf, c_bar=0.3),
    lambda: SchemeParams(dt=0.0, c_bar=0.3),
    lambda: SchemeParams(dt=0.1, c_bar=math.nan),
    lambda: SchemeParams(dt=0.1, c_bar=math.inf),
    lambda: SchemeParams(dt=0.1, c_bar=-0.3),
    lambda: interval_problem(T=math.nan),
    lambda: interval_problem(T=math.inf),
    lambda: interval_problem(T=0.0),
    lambda: dataclasses.replace(interval_problem(), n_sigma=1.5),
    lambda: dataclasses.replace(interval_problem(), n_sigma=2.0),
    lambda: dataclasses.replace(interval_problem(), n_sigma=0),
], ids=["dt-nan", "dt-inf", "dt-zero", "c_bar-nan", "c_bar-inf", "c_bar-negative",
        "T-nan", "T-inf", "T-zero", "n_sigma-fraction", "n_sigma-float", "n_sigma-zero"])
def test_params_and_problem_reject_bad_values(make):
    with pytest.raises(BadParams):
        make()


_ROW = np.array([[0.5, 0.0]])
_TINY = (interval_problem(), build_interval_mesh(0.0, 1.0, 0.5), SchemeParams(dt=0.5, c_bar=0.2))
_PHI = (lambda x: 0.0, lambda x: np.zeros(1), lambda x: np.zeros((1, 1)))


@pytest.mark.parametrize("call", [
    lambda: SchemeParams(dt=0.1, c_bar=0.3, blowup_guard=1e3),
    lambda: Disk(tube_radius=0.5),
    lambda: Disk(layer_radius=0.5),
    lambda: build_disk_mesh((0.0, 0.0), 1.0, 0.5, min_shape_constant=0.05),
    lambda: build_rect_with_hole_mesh((-1.0, 1.0, -0.5, 0.5), (-0.5, 0.0), 0.2, 0.2,
                                      min_shape_constant=0.01),
    lambda: oblique_projection(_DISK, NormalField(_DISK), None, _ROW[0], tol=1e-12),
    lambda: oblique_projection(_DISK, NormalField(_DISK), None, _ROW[0], max_iter=50),
    lambda: oblique_projection_many(_DISK, NormalField(_DISK), None, _ROW, tol=1e-12),
    lambda: oblique_projection_many(_DISK, NormalField(_DISK), None, _ROW, max_iter=50),
    lambda: oblique_projection_newton(_DISK, NormalField(_DISK), None, _ROW, tol=1e-12),
    lambda: oblique_projection_newton(_DISK, NormalField(_DISK), None, _ROW, max_iter=50),
    lambda: dp_oracle(*_TINY, limit=1e6),
    lambda: consistency_residual(_TINY[0], mesh=None, phi=_PHI, k=0, x=[0.5], a=0.0, b=0.0,
                                 params=_TINY[2]),
], ids=["blowup_guard", "tube_radius", "layer_radius", "disk-min_shape_constant",
        "rect-min_shape_constant", "projection-tol", "projection-max_iter",
        "projection_many-tol", "projection_many-max_iter", "newton-tol",
        "newton-max_iter", "dp_oracle-limit", "consistency-mesh"])
def test_retired_settings_are_rejected(call):
    """The thresholds of the scheme's checks are fixed (README, "Fixed
    settings"): no call can set one, or switch its check off."""
    with pytest.raises(TypeError):
        call()


def test_sweep_rejects_dt_larger_than_horizon():
    pr = interval_problem()
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    with pytest.raises(BadParams):
        sweep(pr, mesh, SchemeParams(dt=2.0, c_bar=0.3))


@pytest.mark.parametrize("name, dx, dt", [("test2_oblique", 0.25, 0.25),
                                           ("test3_exit", 0.2, 0.1)])
def test_sweep_calls_each_handle_once_per_table(name, dx, dt):
    bench = get_benchmark(name)
    mesh = build_mesh_for(bench, dx)
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    assert bench.problem.control_free_cost
    for free in (True, False):
        pr = dataclasses.replace(bench.problem, control_free_cost=free)
        calls = dict.fromkeys(("f", "g", "mu", "sigma", "psi"), 0)
        for h in calls:
            def counted(*args, h=h, handle=getattr(pr, h)):
                calls[h] += 1
                return handle(*args)
            setattr(pr, h, counted)
        sweep(pr, mesh, params)
        N, na = n_steps(pr.T, dt), len(pr.controls_a)
        pairs = na * len(pr.controls_b)
        assert calls["psi"] == 1
        # each step's apply calls f once, after the shared store's one check
        # of control_free_cost (one call per control a), or with the field off
        # once per control a; and g once per control b
        assert calls["f"] == (N + na if free else N * na)
        assert 0 < calls["g"] <= N * len(pr.controls_b)
        # the store is shared by all steps and each pair has its own control
        # a: each build pass calls once per control a at the first step time,
        # and once more at the last, where it checks the flag on its own rows
        assert calls["mu"] == calls["sigma"] == 2 * pairs


def test_handles_of_the_wrong_shape_are_rejected():
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.25, c_bar=0.3)
    # a one-point psi returns a single value for the whole batch of rows
    with pytest.raises(BadParams):
        sweep(interval_problem(psi=lambda x: float(np.ravel(x)[0])), mesh, params)
    with pytest.raises(BadParams):
        sweep(interval_problem(f=lambda t, X, a: np.zeros((len(X), 1))), mesh, params)


def test_dirichlet_routing_by_first_crossing():
    pr = make_test3().problem
    dom = pr.domain

    def first(x, y):
        return dom.first_crossing_many(np.array([x]), np.array([y]))[0]

    # left and right doors take their exit data
    for x, y, value in [([-0.9, 0.0], [-1.1, 0.0], 0.0), ([0.9, 0.0], [1.1, 0.0], 0.2)]:
        assert boundary_kind(dom, first(x, y)) == ("dirichlet", value)
        rp = classify(pr, x, y, 0.01, 0.25)
        assert rp["exited"] and rp["dirichlet"] and rp["value"] == value
        assert np.allclose(rp["y_tilde"], first(x, y))
    # a crossing of the oblique top face is reflected, not imposed
    assert boundary_kind(dom, first([0.0, 0.4], [0.0, 0.6]))[0] == "oblique"
    rp = classify(pr, [0.0, 0.4], [0.0, 0.6], 0.01, 0.25)
    assert rp["exited"] and not rp["dirichlet"]
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
    r = consistency_residual(pr, phi, 0, np.array([0.5]), 0.0, 0.0,
                             SchemeParams(dt=0.01, c_bar=0.2))
    assert abs(r) <= 1e-12


def test_consistency_interior_order():
    bench = make_test1(0.05)
    phi = (lambda x: float(np.atleast_1d(x)[0]) ** 2,
           lambda x: np.array([2.0 * float(np.atleast_1d(x)[0])]),
           lambda x: np.array([[2.0]]))
    dts = [1e-2, 5e-3, 2.5e-3]
    rs = [abs(consistency_residual(bench.problem, phi, 0,
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
    rs = [abs(consistency_residual(bench.problem, phi, 0,
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
    for bad in ([[0.5, 0.5 + 1e-9]], [[-1e-3, 1.0 + 1e-3]], [[0.0, 0.0]],
                [[0.5, 0.5], [math.nan, math.nan]], [[math.inf, 0.0]],
                [[math.nan, 1.0]], [[0.5, 0.5, math.nan]], [[0.5, math.nan, 0.5]],
                [[0.25, 0.75, -1e-3]], [[1.0, 0.0, math.inf]], [[1.0, 1.0, -math.inf]],
                [[[0.25, 0.75, 0.0], [0.5, 0.5, math.inf]]]):
        with pytest.raises(LocationFailure):
            check_weights(np.array(bad))
    # locate_many gives a row of NaN weights for a NaN point
    mesh = build_disk_mesh((0.0, 0.0), 1.0, 0.25)
    with np.errstate(invalid="ignore"):
        _, bary = mesh.locate_many([[math.nan, 0.0], [0.1, 0.1]])
    with pytest.raises(LocationFailure):
        check_weights(bary)


def _groups_by_passes(controls, index, X):
    """control_groups by its definition: one flatnonzero pass per control
    that occurs in index."""
    return [(controls[i], np.flatnonzero(index == i), X[index == i])
            for i in range(len(controls)) if (index == i).any()]


def _assert_groups_by_passes(n, index):
    index = np.array(index, dtype=int)
    controls = [f"c{i}" for i in range(n)]
    X = np.random.default_rng(len(index)).uniform(size=(len(index), 2))
    got, ref = control_groups(controls, index, X), _groups_by_passes(controls, index, X)
    assert [g[0] for g in got] == [r[0] for r in ref]
    for (_, sel, points), (_, ref_sel, ref_points) in zip(got, ref):
        assert sel.dtype == ref_sel.dtype and np.array_equal(sel, ref_sel)
        assert np.array_equal(points, ref_points)


@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=200))))
@settings(max_examples=100, deadline=None)
def test_control_groups_equal_one_pass_per_control(case):
    _assert_groups_by_passes(*case)


def test_control_groups_of_empty_single_and_many_control_indices():
    # more than 256 controls sort the indices themselves, not one-byte keys
    _assert_groups_by_passes(300, np.random.default_rng(1).integers(0, 300, 1000))
    X = np.arange(10.0).reshape(5, 2)
    assert control_groups(["a", "b"], np.zeros(0, dtype=int), X[:0]) == []
    for index in (np.zeros(5, dtype=int), np.full(5, 3)):
        [(control, sel, points)] = control_groups(list("abcd"), index, X)
        assert control == "abcd"[index[0]]
        assert sel.tolist() == list(range(5)) and np.array_equal(points, X)


@pytest.mark.parametrize("name", ["mu", "sigma"])
@pytest.mark.parametrize("bench", ["test1_eps", "test2_oblique"])
def test_dynamics_that_are_not_finite_are_rejected(bench, name):
    """A mu or sigma handle that returns NaN on part of the domain raises
    BadParams naming it, in the sweep and in the chain; before, the chain
    returned nan and the sweep raised Unstable or OutsideTube."""
    bench = get_benchmark(bench, eps=0.05)
    handle = getattr(bench.problem, name)

    def nan_right(t, X, a):
        out = np.array(handle(t, X, a), dtype=float)
        out[X[:, 0] > 0.45] = math.nan
        return out

    pr = dataclasses.replace(bench.problem, time_independent_dynamics=False,
                             **{name: nan_right})
    dx = 0.1 if pr.domain.dim == 1 else 0.25
    mesh = build_mesh_for(bench, dx)
    params = SchemeParams(dt=dx, c_bar=bench.c_bar)
    with pytest.raises(BadParams, match=f"^{name} returned a value that is not finite"):
        sweep(pr, mesh, params)
    i = int(np.argmax(mesh.vertices[:, 0]))
    with pytest.raises(BadParams, match=f"^{name} returned a value that is not finite"):
        policy_cost(pr, mesh, lambda m, j: (0, 0), 0, i, params)


@pytest.mark.parametrize("name", ["mu", "sigma"])
def test_flag_check_names_dynamics_that_are_not_finite(name):
    """With time_independent_dynamics left on, a mu or sigma that returns
    NaN is named as not finite by the flag's check; before, it was
    reported as differing between the first and last step times."""
    bench = make_test1(0.05)
    handle = getattr(bench.problem, name)

    def nan_right(t, X, a):
        out = np.array(handle(t, X, a), dtype=float)
        out[X[:, 0] > 0.45] = math.nan
        return out

    pr = dataclasses.replace(bench.problem, **{name: nan_right})
    assert pr.time_independent_dynamics
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    params = SchemeParams(dt=0.1, c_bar=bench.c_bar)
    msg = f"^{name} returned a value that is not finite at t=0$"
    with pytest.raises(BadParams, match=msg):
        sweep(pr, mesh, params)
    with pytest.raises(BadParams, match=msg):
        policy_cost(pr, mesh, lambda m, j: (0, 0), 0, 9, params)


def test_build_node_table_rejects_bad_weights(monkeypatch):
    pr = interval_problem(sigma=0.3, mu=0.2)
    mesh = build_interval_mesh(0.0, 1.0, 0.25)
    params = SchemeParams(dt=0.1, c_bar=0.25)
    rows = Operator(pr, mesh, params).rows(0)
    assert rows.built.all()
    assert np.allclose(rows.weights.sum(axis=3), 1.0)

    def bad_locate(points):
        return np.zeros(len(points), dtype=int), np.full((len(points), 2), 0.6)

    monkeypatch.setattr(mesh, "locate_many", bad_locate)
    with pytest.raises(LocationFailure):
        Operator(pr, mesh, params).rows(0)


# -- batched classification against the scalar routing rules --

def _problem_on(dom, gamma):
    return Problem(domain=dom, T=1.0, n_sigma=1,
                   sigma=const_rows(np.zeros((dom.dim, 1))),
                   mu=const_rows(np.zeros(dom.dim)),
                   f=const_rows(0.0), g=const_rows(0.0),
                   psi=ZERO_PSI, gamma=gamma,
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
    """Each row of _classify_many against the scalar signed_distance, the
    scalar first crossing scan and boundary_kind of test_geometry, and the
    oblique field at that row's projection point."""
    pr = CLASSIFY_CASES[name]
    dom = pr.domain
    dt, c_bar = 0.01, 0.25
    push = c_bar * math.sqrt(dt)
    X, Y = [], []
    for u, v, th, length in rows:
        x = _start_point(dom, u, v)
        if dom.signed_distance(x) > 0.0:
            continue
        X.append(x)
        Y.append(x + length * np.array([math.cos(th), math.sin(th)])[:dom.dim])
    assume(X)
    X, Y = np.array(X), np.array(Y)
    got = _classify_many(pr, X, Y, 0, dt, c_bar)
    for j, (x, y) in enumerate(zip(X, Y)):
        exited = dom.signed_distance(y) > TOL_BOUNDARY
        assert got.exited[j] == exited
        if not exited:
            assert np.array_equal(got.y_tilde[j], y)
            assert got.d_tilde[j] == 0.0 and not got.dirichlet[j]
            continue
        kind, value = ("oblique", None)
        if dom.has_dirichlet:
            q = scan_crossing(dom, x, y)
            kind, value = boundary_kind(dom, q)
        assert got.dirichlet[j] == (kind == "dirichlet")
        if got.dirichlet[j]:
            assert got.value[j] == value
            assert np.max(np.abs(got.y_tilde[j] - q)) <= 1e-9
            assert got.d_tilde[j] == 0.0
            continue
        p = got.p[j]
        gam = pr.gamma(p[None], 0.0)[0]
        assert abs(dom.signed_distance(p)) <= TOL_BOUNDARY
        assert got.d_tilde[j] > push
        # the algebraic distance along the field and the pull-back past p
        assert abs(np.dot(y - p, gam) - (got.d_tilde[j] - push)) <= 1e-10
        assert np.max(np.abs(got.y_tilde[j] - (p - push * gam))) <= 1e-12
        assert dom.signed_distance(got.y_tilde[j]) <= TOL_BOUNDARY


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


@pytest.mark.parametrize("dom, field, mesh", [
    (_CountingDisk(), lambda d: RotatedNormalField(d, math.pi / 6),
     lambda: build_disk_mesh((0.0, 0.0), 1.0, 0.25)),
    (_CountingRect(), NormalField,
     lambda: build_rect_with_hole_mesh((-1.0, 1.0, -0.5, 0.5), (-0.5, 0.0), 0.2, 0.2)),
], ids=["disk", "rect"])
def test_build_node_table_makes_no_scalar_signed_distance_calls(dom, field, mesh):
    mesh = mesh()
    pr = Problem(domain=dom, T=1.0, n_sigma=2,
                 sigma=const_rows(0.3 * np.eye(2)),
                 mu=lambda t, X, a: np.broadcast_to(a, np.shape(X)),
                 f=const_rows(0.0), g=const_rows(0.0),
                 psi=ZERO_PSI, gamma=field(dom),
                 controls_a=[np.array([1.0, 0.0])], controls_b=[0.0])
    dom.calls = 0
    rows = Operator(pr, mesh, SchemeParams(dt=0.05, c_bar=0.25)).rows(0)
    # exits of both kinds were classified
    assert rows.refl_d.any()
    assert rows.dirichlet.any() == dom.has_dirichlet
    assert dom.calls == 0


# -- one pipeline: every reader takes build_node_table rows --

def _pipeline_cases():
    t1 = make_test1(0.05)
    t2 = make_test2("oblique", n_a=4)
    t3 = make_test3(n_a=4)
    d3 = t3.problem.domain
    return {
        "interval": (t1, build_interval_mesh(0.0, 1.0, 0.05), 0.1),
        "disk_rotated": (t2, build_disk_mesh((0.0, 0.0), 1.0, 0.25), 0.125),
        "rect_hole": (t3, build_rect_with_hole_mesh(
            d3.bounds, d3.hole_center, d3.hole_radius, 0.2), 0.05),
    }


PIPELINE_CASES = _pipeline_cases()


ROW_FIELDS = ("verts", "weights", "const", "dirichlet", "refl_d", "refl_p", "cum", "layer")


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_build_node_table_subset_equals_full_rows(name):
    # the rows a reader reaches, built alone, equal those of the full store
    bench, mesh, dt = PIPELINE_CASES[name]
    pr = bench.problem
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    rng = np.random.default_rng(4)
    P, n = len(pr.controls_a) * len(pr.controls_b), mesh.n_vertices
    nodes = rng.choice(n, size=n // 2, replace=False)
    codes = rng.integers(P, size=len(nodes))
    full = Operator(pr, mesh, params).rows(0)
    part = Operator(pr, mesh, params).rows(0, codes, nodes)
    built = np.zeros((P, n), dtype=bool)
    built[codes, nodes] = True
    assert np.array_equal(part.built, built)
    for field in ROW_FIELDS:
        got, want = getattr(part, field), getattr(full, field)
        assert np.array_equal(got[codes, nodes], want[codes, nodes]), field
        assert not got[~built].any(), field
    assert part.refl_d.any()
    assert part.dirichlet.any() == pr.domain.has_dirichlet


def _disk_two_fields():
    """test2_oblique with two controls b whose fields differ, given as a
    FunctionField, so that the disk's Newton projection runs per control b."""
    bench = make_test2("oblique", n_a=4)

    def rotated(P, b):
        n = P / np.linalg.norm(P, axis=1, keepdims=True)
        c, s = math.cos(b), math.sin(b)
        return np.column_stack([c * n[:, 0] + s * n[:, 1], c * n[:, 1] - s * n[:, 0]])

    pr = dataclasses.replace(bench.problem, gamma=FunctionField(rotated),
                             controls_b=[math.pi / 6, -math.pi / 8])
    return (dataclasses.replace(bench, problem=pr),
            build_disk_mesh((0.0, 0.0), 1.0, 0.25), 0.125)


BATCH_CASES = dict(PIPELINE_CASES, disk_two_fields=_disk_two_fields())


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_rows_built_in_passes_equal_rows_built_pair_by_pair(name):
    """A store built in passes of several pairs equals one built one pair
    at a time in reverse pair order, bit for bit."""
    bench, mesh, dt = BATCH_CASES[name]
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    n = mesh.n_vertices
    full = Operator(bench.problem, mesh, params).rows(0)
    op = Operator(bench.problem, mesh, params)
    for c in range(op.n_pairs - 1, -1, -1):
        alone = op.rows(0, np.full(n, c), np.arange(n))
    assert alone.built.all()
    for field in ROW_FIELDS:
        assert np.array_equal(getattr(alone, field), getattr(full, field)), field
    assert full.refl_d.any()
    if name == "disk_two_fields":
        # the two fields project the same exits to different points
        nb = len(bench.problem.controls_b)
        assert full.refl_d[0::nb].any() and full.refl_d[1::nb].any()
        assert not np.array_equal(full.refl_p[0::nb], full.refl_p[1::nb])


@pytest.mark.parametrize("name, dx, dt, n_vertices, passes", [
    ("test3_exit", 0.1, 0.05, 223, 2), ("test2_oblique", 0.125, 0.125, 347, 4)])
def test_sweep_builds_whole_pairs_in_bounded_passes(monkeypatch, name, dx, dt,
                                                    n_vertices, passes):
    """Each row of a time-independent sweep is built once, by passes of
    whole pairs within PASS_ROWS rows: ceil(pairs / floor(PASS_ROWS / n))
    build_node_table calls."""
    bench = get_benchmark(name)
    mesh = build_mesh_for(bench, dx)
    pr = bench.problem
    pairs = len(pr.controls_a) * len(pr.controls_b)
    n = mesh.n_vertices
    assert n == n_vertices
    calls = []
    build = scheme.build_node_table

    def counted(*args):
        # a pass's rows are flat store indices c*n + j
        calls.append(np.divmod(args[-1], n))
        return build(*args)

    monkeypatch.setattr(scheme, "build_node_table", counted)
    sweep(pr, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
    assert len(calls) == math.ceil(pairs / (PASS_ROWS // n)) == passes
    built = np.zeros((pairs, n), dtype=int)
    for codes, nodes in calls:
        assert len(codes) <= PASS_ROWS
        # whole pairs: every vertex of each pair the pass touches
        per_pair = np.bincount(codes)
        assert (per_pair[per_pair > 0] == n).all()
        np.add.at(built, (codes, nodes), 1)
    assert (built == 1).all()


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_apply_S_equals_one_step_sweep(name):
    bench, mesh, dt = PIPELINE_CASES[name]
    pr = dataclasses.replace(bench.problem, T=dt)
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    vf = sweep(pr, mesh, params)
    psi = pr.psi(mesh.vertices)
    got = [apply_S(pr, mesh, psi, 0, i, params) for i in range(mesh.n_vertices)]
    assert np.max(np.abs(np.array(got) - vf.values[vf.report_index])) <= 1e-12


# -- structure of the assembled operator --

@pytest.mark.parametrize("name", ["test2_neumann", "test2_oblique", "test3_exit"])
@given(dt=st.floats(0.01, 0.1), dx=st.floats(0.2, 0.4), c_bar=st.floats(0.1, 0.5),
       c=st.floats(-5.0, 5.0), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_assembled_operator_monotone_and_commutes_with_constants(name, dt, dx, c_bar,
                                                                 c, seed):
    """Every row of the stacked operator at step 0: U <= V gives S[U] <= S[V],
    and S[U + c] = S[U] + c on the mass the row keeps in the domain."""
    bench = get_benchmark(name, n_a=4)
    mesh = build_mesh_for(bench, dx)
    op = Operator(bench.problem, mesh, SchemeParams(dt=dt, c_bar=c_bar))
    rng = np.random.default_rng(seed)
    U = rng.uniform(-1.0, 1.0, mesh.n_vertices)
    V = U + rng.uniform(0.0, 1.0, mesh.n_vertices)
    SU, _, (_, probs) = op.apply(0, U)
    assert probs.shape[0] == len(SU) and probs.min() >= 0.0
    assert np.all(SU <= op.apply(0, V)[0] + 1e-12)
    rows = op.rows(0)
    absorbed = rows.dirichlet.reshape(len(SU), -1).mean(axis=1)
    assert np.max(np.abs(probs.sum(axis=1) + absorbed - 1.0)) <= 1e-12
    assert absorbed.any() == bench.problem.domain.has_dirichlet
    assert np.max(np.abs(op.apply(0, U + c)[0] - (SU + c * (1.0 - absorbed)))) <= 1e-12


@pytest.mark.parametrize("name, dx, dt", [("test2_oblique", 0.125, 0.125),
                                          ("test3_exit", 0.1, 0.05)])
def test_sweep_value_is_the_cost_of_its_argmin_policy(name, dx, dt):
    """The chain's cost of the sweep's own feedback, read through gathered
    rows, reproduces the sweep, which reads every row of the store."""
    bench = get_benchmark(name)
    pr = bench.problem
    mesh = build_mesh_for(bench, dx)
    params = SchemeParams(dt=dt, c_bar=bench.c_bar)
    vf = sweep(pr, mesh, params)
    # the sweep's internal steps run backward from W[N] = psi
    W = vf.values if pr.orientation == "backward" else vf.values[::-1]
    op = Operator(pr, mesh, params)
    nb = len(pr.controls_b)
    policy = []
    for k in range(op.N):
        v = op.apply(k, W[k + 1])[0].reshape(op.n_pairs, mesh.n_vertices)
        assert np.max(np.abs(v.min(axis=0) - W[k])) <= 1e-12
        policy.append([divmod(int(c), nb) for c in v.argmin(axis=0)])
    J = _policy_values(_ChainModel(pr, mesh, params), policy)
    assert np.max(np.abs(J - vf.values[vf.report_index])) <= 1e-12


@pytest.mark.parametrize("name, dx, dt", [("test2_oblique", 0.25, 0.25),
                                          ("test3_exit", 0.2, 0.1),
                                          ("test1_eps", 0.05, 0.05),
                                          ("test2_oblique-two-b", 0.25, 0.25)])
def test_stacked_and_gathered_applies_agree_bitwise(name, dx, dt):
    """The stacked terms kept on the store, control groups included, give
    what the gathered path forms afresh from the same rows.  With
    control_free_cost off, f receives each control a's rows in stacked order
    on both: with two controls b (which change g), the vertices once per
    control b.  With it on (test2 and test3 set it), the store's first use
    checks it with one call per control a on the vertices; then every row
    is the first control's block alone and the gathered rows one call, and
    S[U] is bitwise that of the field off."""
    bench = get_benchmark(name.removesuffix("-two-b"), eps=0.05)
    base = bench.problem
    if name.endswith("-two-b"):
        base = dataclasses.replace(base, controls_b=[0.0, 1.0],
                                   g=lambda t, P, b, g=base.g: g(t, P, b) + b)
    mesh = build_mesh_for(bench, dx)
    values = {}
    for free in sorted({False, base.control_free_cost}):
        calls = []
        pr = dataclasses.replace(base, control_free_cost=free,
                                 f=lambda t, X, a, f=base.f: calls.append((a, X.copy()))
                                 or f(t, X, a))
        op = Operator(pr, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
        codes, nodes = np.divmod(np.arange(op.n_pairs * mesh.n_vertices), mesh.n_vertices)
        blocks = [(a, mesh.vertices[nodes[codes // op.nb == ia]])
                  for ia, a in enumerate(pr.controls_a)]
        assert all(len(X) == op.nb * mesh.n_vertices for _, X in blocks)
        if free:
            # the check's calls, then the first block and the gathered rows
            check = [(a, mesh.vertices) for a in pr.controls_a]
            want = [check + blocks[:1] + [(pr.controls_a[0], mesh.vertices[nodes])]]
            want += [blocks[:1] + [(pr.controls_a[0], mesh.vertices[nodes])]] * 3
        else:
            want = [blocks + blocks] * 4
        U = np.random.default_rng(5).uniform(-1.0, 1.0, mesh.n_vertices)
        values[free] = []
        for m in range(min(op.N, 4)):
            calls.clear()
            stacked = op.apply(m, U)
            gathered = op.apply(m, U, codes, nodes)
            assert np.array_equal(stacked[0], gathered[0])
            # with the field on, the first block stands for every control's
            reps = len(pr.controls_a) if free else 1
            assert np.array_equal(np.tile(stacked[1], reps), gathered[1])
            assert len(calls) == len(want[m])
            assert all(a is b and np.array_equal(X, Y) for (a, X), (b, Y) in zip(calls, want[m]))
            values[free].append(stacked[0])
            U = stacked[0].reshape(op.n_pairs, -1).min(axis=0)
    assert all(np.array_equal(on, off) for on, off in zip(values[base.control_free_cost],
                                                          values[False]))


def test_sweep_with_one_store_per_step_equals_the_shared_store():
    """test3_exit's dynamics do not depend on time, so the flag off (a store
    built at every step, in passes of whole pairs) sweeps the values of the
    flag on bit for bit; no step is served another step's store."""
    bench = get_benchmark("test3_exit")
    mesh = build_mesh_for(bench, 0.2)
    params = SchemeParams(dt=0.1, c_bar=bench.c_bar)
    calls = []
    off = dataclasses.replace(bench.problem, time_independent_dynamics=False,
                              mu=lambda t, X, a, mu=bench.problem.mu: calls.append(t)
                              or mu(t, X, a))
    values = sweep(off, mesh, params).values
    assert np.array_equal(values, sweep(bench.problem, mesh, params).values)
    # each step's store calls mu once per control a, at its own time
    N, na = n_steps(off.T, 0.1), len(off.controls_a)
    assert sorted(calls) == sorted(step_time(off, k, 0.1) for k in range(N) for _ in range(na))
