import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjbsl.errors import (
    BadParams,
    NoConvergence,
    NoCrossing,
    NotOnBoundary,
    OutOfLayer,
    OutsideTube,
)
from hjbsl.geometry import (
    TOL_BOUNDARY,
    Disk,
    Domain,
    FunctionField,
    Interval,
    NormalField,
    RectWithHole,
    RotatedNormalField,
    as_rows,
    layer_distance,
    oblique_projection,
    oblique_projection_many,
    oblique_projection_newton,
)

DISK = Disk((0.0, 0.0), 1.0)
UNIT = Interval(0.0, 1.0)


# -- scalar references for the row-batched geometry, one point at a time --

def scan_crossing(dom, x, y):
    """First boundary crossing of the segment x -> y: 32 equal scan steps
    for a point outside, then 60 bisections, on the one-point
    signed_distance; the outer end of the last bracket."""
    lo, hi = 0.0, None
    for t in np.linspace(0.0, 1.0, 33)[1:]:
        if dom.signed_distance(x + t * (y - x)) > 0.0:
            hi = t
            break
        lo = t
    if hi is None:
        raise NoCrossing("segment does not leave the domain")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dom.signed_distance(x + mid * (y - x)) > 0.0:
            hi = mid
        else:
            lo = mid
    return x + hi * (y - x)


def boundary_kind(dom, p):
    """Condition on the boundary piece containing p: ('dirichlet', value)
    on a RectWithHole door, ('oblique', None) elsewhere."""
    if not isinstance(dom, RectWithHole):
        return ("oblique", None)
    xmin, xmax, _, _ = dom.bounds
    hw = dom.dirichlet_half_width + TOL_BOUNDARY
    if abs(p[0] - xmin) <= TOL_BOUNDARY and abs(p[1]) <= hw:
        return ("dirichlet", dom.dirichlet_values[0])
    if abs(p[0] - xmax) <= TOL_BOUNDARY and abs(p[1]) <= hw:
        return ("dirichlet", dom.dirichlet_values[1])
    return ("oblique", None)


def test_signed_distance_examples():
    assert DISK.signed_distance((0.0, 0.0)) == pytest.approx(-1.0)
    assert DISK.signed_distance((1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert UNIT.signed_distance(1.25) == pytest.approx(0.25)


def test_outward_normal_examples():
    s = math.sqrt(2.0) / 2.0
    assert np.allclose(DISK.outward_normal_many([[0.0, 1.0], [s, s]]), [[0.0, 1.0], [s, s]])
    assert np.array_equal(UNIT.outward_normal_many([[0.0], [1.0]]), [[-1.0], [1.0]])
    with pytest.raises(NotOnBoundary):
        DISK.outward_normal_many([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NotOnBoundary):
        UNIT.outward_normal_many([[math.nan]])


def test_nearest_point_projection_examples():
    # along the normal field, the projection is the nearest boundary point
    def nearest(dom, x):
        return oblique_projection(dom, NormalField(dom), None, x).p

    assert np.allclose(nearest(DISK, (0.0, 0.6)), [0.0, 1.0])
    assert np.allclose(nearest(DISK, (1.2, 0.0)), [1.0, 0.0])
    assert np.allclose(nearest(UNIT, 0.1), [0.0])
    with pytest.raises(OutsideTube):
        nearest(DISK, (2.0, 0.0))


def test_oblique_projection_normal_disk():
    pr = oblique_projection(DISK, NormalField(DISK), None, (0.0, 1.4))
    assert np.allclose(pr.p, [0.0, 1.0])
    assert pr.d == pytest.approx(0.4)


def test_oblique_projection_interval():
    gam = NormalField(UNIT)
    pr = oblique_projection(UNIT, gam, None, 1.3)
    assert pr.p[0] == pytest.approx(1.0)
    assert pr.d == pytest.approx(0.3)


def test_oblique_projection_rotated_disk():
    gam = RotatedNormalField(DISK, math.pi / 6)
    x = np.array([1.2, 0.0])
    pr = oblique_projection(DISK, gam, None, x)
    assert abs(np.linalg.norm(pr.p) - 1.0) <= 1e-10
    assert pr.d > 0
    # x - p must be parallel to the field at p
    v = x - pr.p
    g = gam(pr.p[None], None)[0]
    assert abs(v[0] * g[1] - v[1] * g[0]) <= 1e-10
    assert pr.residual <= 1e-10


ANGLES = [-math.pi / 3, -math.pi / 6, 0.0, math.pi / 6, 0.45 * math.pi]
ANGLE_IDS = ["-60deg", "-30deg", "0deg", "30deg", "81deg"]


@pytest.mark.parametrize("angle", ANGLES, ids=ANGLE_IDS)
def test_closed_form_matches_newton(angle):
    """The closed form against Newton, at points from r = 0.7 (or, for a
    steep field, from just past |sin(angle)|, where the projection exists)
    to r = 1.3."""
    gam = RotatedNormalField(DISK, angle)
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.uniform(max(0.7, abs(math.sin(angle)) + 1e-3), 1.3)
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        a = oblique_projection(DISK, gam, None, x)
        b = oblique_projection_newton(DISK, gam, None, x[None])
        assert np.allclose(a.p, b.p[0], atol=1e-9)
        assert a.d == pytest.approx(b.d[0], abs=1e-9)


def test_normal_field_is_the_rotated_field_at_angle_zero():
    """The normal field and the rotated one at angle 0 share one closed form,
    so they project bit for bit alike."""
    rng = np.random.default_rng(1)
    r = rng.uniform(0.1, 1.9, 200)
    th = rng.uniform(0.0, 2.0 * math.pi, 200)
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])
    a = oblique_projection_many(DISK, NormalField(DISK), None, X, r_max=math.inf)
    b = oblique_projection_many(DISK, RotatedNormalField(DISK, 0.0), None, X,
                                r_max=math.inf)
    for field in ("p", "d", "gamma"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.residual.max() <= 1e-10


@pytest.mark.parametrize("gamma, x", [
    (NormalField(DISK), (0.0, 0.0)),
    (RotatedNormalField(DISK, math.pi / 6), (0.3, 0.0)),
], ids=["normal-center", "rotated-deep"])
def test_disk_projection_rejects_points_without_one(gamma, x):
    """No projection from the center along the normal, nor from inside the
    circle of radius |sin(angle)| along a rotated field."""
    with pytest.raises(OutsideTube):
        oblique_projection(DISK, gamma, None, x, r_max=math.inf)


def test_function_field_matches_rotated():
    rot = RotatedNormalField(DISK, math.pi / 6)
    fn = FunctionField(lambda p, b: rot(p, b))
    x = np.array([0.0, 1.1])
    a = oblique_projection(DISK, rot, None, x)
    b = oblique_projection_newton(DISK, fn, None, x[None])
    assert np.allclose(a.p, b.p[0], atol=1e-9)
    assert a.d == pytest.approx(b.d[0], abs=1e-9)


def test_batched_newton_matches_closed_form(monkeypatch):
    """Newton on all rows at once, through a FunctionField handle that wraps
    the rotated normal, against the rotated field's closed form."""
    rot = RotatedNormalField(DISK, math.pi / 6)
    seen = []

    def handle(P, b):
        seen.append(len(P))
        return rot(P, b)

    rng = np.random.default_rng(0)
    r = np.concatenate([rng.uniform(0.7, 1.3, 600), np.ones(20)])
    th = rng.uniform(0.0, 2.0 * math.pi, len(r))
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])
    ref = oblique_projection_many(DISK, rot, None, X)
    got = oblique_projection_many(DISK, FunctionField(handle), None, X)
    assert np.max(np.abs(got.p - ref.p)) <= 1e-9
    assert np.max(np.abs(got.d - ref.d)) <= 1e-9
    assert np.max(np.abs(got.gamma - rot(got.p, None))) <= 1e-15
    assert got.residual.max() <= 1e-12
    # one iteration count per row: rows on the circle converge at once and
    # leave, so the handle sees fewer rows as the iteration goes on
    assert got.iterations.shape == (len(X),)
    assert np.all(got.iterations[600:] == 1) and np.all(got.iterations[:600] > 1)
    assert seen[0] == len(X) and seen[1:4] == [600] * 3 and seen[-1] < 600
    monkeypatch.setattr("hjbsl.geometry.MAX_NEWTON_ITER", 1)
    with pytest.raises(NoConvergence):
        oblique_projection_newton(DISK, FunctionField(handle), None, X)
    # a handle must return one vector per row, as the problem handles must
    with pytest.raises(BadParams):
        oblique_projection_many(DISK, FunctionField(lambda P, b: rot(P, b)[0]), None, X)
    with pytest.raises(BadParams):
        oblique_projection_many(DISK, FunctionField(lambda P, b: rot(P, b).T), None, X)


def test_normal_field_reduces_to_nearest_point():
    gam = NormalField(DISK)
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = rng.uniform(0.6, 1.4)
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        pr = oblique_projection(DISK, gam, None, x)
        v = x - DISK.center
        assert np.allclose(pr.p, DISK.center + DISK.radius * v / np.linalg.norm(v),
                           atol=1e-9)
        assert pr.d == pytest.approx(DISK.signed_distance(x), abs=1e-9)


def test_tube_residuals_bulk():
    gam = RotatedNormalField(DISK, math.pi / 6)
    rng = np.random.default_rng(2)
    worst_res = 0.0
    worst_bnd = 0.0
    for _ in range(10_000):
        r = rng.uniform(0.5 + 1e-6, 1.5 - 1e-6)
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        pr = oblique_projection(DISK, gam, None, x)
        worst_res = max(worst_res,
                        np.linalg.norm(x - pr.p - pr.d * gam(pr.p[None], None)[0]))
        worst_bnd = max(worst_bnd, abs(DISK.signed_distance(pr.p)))
    assert worst_res <= 1e-10
    assert worst_bnd <= 1e-10


def test_algebraic_distance_controlled_by_distance():
    # |d(x)| <= C * dist(x, boundary) with C fitted on one sample set and
    # checked on a fresh one
    gam = RotatedNormalField(DISK, math.pi / 6)

    def ratios(seed, n):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            r = rng.uniform(0.6, 1.4)
            th = rng.uniform(0.0, 2.0 * math.pi)
            x = np.array([r * math.cos(th), r * math.sin(th)])
            dist = abs(DISK.signed_distance(x))
            if dist < 1e-6:
                continue
            out.append(abs(oblique_projection(DISK, gam, None, x).d) / dist)
        return out

    C = max(ratios(3, 500))
    assert max(ratios(4, 500)) <= 1.1 * C


def test_layer_distance_examples():
    assert layer_distance(DISK, 0.2, (0.9, 0.0)) == pytest.approx(0.1)
    assert layer_distance(DISK, 0.2, (0.8, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert layer_distance(UNIT, 0.3, 0.05) == pytest.approx(0.25)
    with pytest.raises(OutOfLayer):
        layer_distance(DISK, 0.2, (0.0, 0.0))
    with pytest.raises(BadParams):
        layer_distance(DISK, -0.1, (0.9, 0.0))


def test_layer_identity():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        delta = rng.uniform(0.05, 0.5)
        r = rng.uniform(1.0 - delta, 1.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        d_bnd = abs(DISK.signed_distance(x))
        assert d_bnd + layer_distance(DISK, delta, x) == pytest.approx(
            delta, abs=1e-12)


def test_rect_with_hole_tags_and_normals():
    dom = RectWithHole()
    dirichlet, value = dom.boundary_kind_many([[1.0, 0.1], [-1.0, 0.0],
                                               [-1.0, 0.3], [0.0, 0.5]])
    assert dirichlet.tolist() == [True, True, False, False]
    assert value.tolist() == [0.2, 0.0, 0.0, 0.0]
    # hole boundary normal points into the hole; a corner takes face 0
    assert np.allclose(dom.outward_normal_many([[-0.3, 0.0], [-1.0, 0.5], [0.2, -0.5]]),
                       [[-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(BadParams):
        RectWithHole(hole_radius=2.0)


def test_rotated_field_example():
    gam = RotatedNormalField(DISK, math.pi / 6)
    g = gam(np.array([[1.0, 0.0], [0.0, 1.0]]), None)
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    assert np.allclose(g, [[c, -s], [s, c]])
    with pytest.raises(BadParams):
        RotatedNormalField(DISK, math.pi / 2)


@pytest.mark.parametrize("make", [
    lambda: Disk(radius=math.nan),
    lambda: Disk(radius=math.inf),
    lambda: Disk(center=(0.0, math.nan)),
    lambda: Disk(center=(math.inf, 0.0)),
    lambda: Disk(center=(0.0, 0.0, 0.0)),
    lambda: Interval(-math.inf, 1.0),
    lambda: Interval(0.0, math.inf),
    lambda: RectWithHole(dirichlet_half_width=math.nan),
    lambda: RectWithHole(dirichlet_half_width=-0.1),
    lambda: RectWithHole(dirichlet_values=(0.0, math.nan)),
    lambda: RectWithHole(dirichlet_values=(0.0, math.inf)),
    lambda: RectWithHole(dirichlet_values=(0.0, 0.2, 0.4)),
    lambda: RectWithHole(hole_center=(-0.5, 0.0, 0.0)),
    lambda: RotatedNormalField(DISK, math.nan),
], ids=["disk-radius-nan", "disk-radius-inf", "disk-center-nan", "disk-center-inf",
        "disk-center-3", "interval-a-inf", "interval-b-inf", "rect-width-nan",
        "rect-width-negative", "rect-values-nan", "rect-values-inf", "rect-values-3",
        "rect-hole-center-3", "rotated-angle-nan"])
def test_constructors_reject_bad_parameters(make):
    with pytest.raises(BadParams):
        make()


@given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
@settings(max_examples=200, deadline=None)
def test_interval_distance_lipschitz(x, y):
    dx = UNIT.signed_distance(x)
    dy = UNIT.signed_distance(y)
    assert abs(dx - dy) <= abs(x - y) + 1e-12


@given(st.floats(0.1, 1.9), st.floats(0.0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_disk_normal_projection_reconstructs(r, th):
    x = np.array([r * math.cos(th), r * math.sin(th)])
    pr = oblique_projection(DISK, NormalField(DISK), None, x, r_max=math.inf)
    assert np.linalg.norm(x - pr.p - pr.d * DISK.outward_normal_many(pr.p[None])[0]) <= 1e-10


# -- row-batched forms against the scalar references --

RECT = RectWithHole()
BATCHED = {"interval": UNIT, "disk": DISK, "rect": RECT}


def _boundary_point(name, u, v):
    """A boundary point and its outward normal, from u, v in [0, 1]."""
    if name == "interval":
        return (np.array([0.0]), np.array([-1.0])) if u < 0.5 else \
            (np.array([1.0]), np.array([1.0]))
    if name == "disk":
        n = np.array([math.cos(2 * math.pi * u), math.sin(2 * math.pi * u)])
        return n, n
    xmin, xmax, ymin, ymax = RECT.bounds
    face = min(int(5 * u), 4)
    if face == 4:
        n = np.array([math.cos(2 * math.pi * v), math.sin(2 * math.pi * v)])
        return RECT.hole_center + RECT.hole_radius * n, -n
    return [(np.array([xmin, ymin + v * (ymax - ymin)]), np.array([-1.0, 0.0])),
            (np.array([xmax, ymin + v * (ymax - ymin)]), np.array([1.0, 0.0])),
            (np.array([xmin + v * (xmax - xmin), ymin]), np.array([0.0, -1.0])),
            (np.array([xmin + v * (xmax - xmin), ymax]), np.array([0.0, 1.0]))][face]


def _box(name):
    if name == "interval":
        return [(-0.5, 1.5)]
    if name == "disk":
        return [(-1.5, 1.5)] * 2
    return [(-1.3, 1.3), (-0.8, 0.8)]


unit = st.floats(0.0, 1.0)


@pytest.mark.parametrize("name", sorted(BATCHED))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_signed_distance_many_matches_one_point(name, data):
    dom = BATCHED[name]
    random = data.draw(st.lists(st.tuples(*[st.floats(a, b) for a, b in _box(name)]),
                                max_size=20))
    near = []
    for u, v, off in data.draw(st.lists(st.tuples(unit, unit, st.sampled_from(
            [0.0, 1e-10, -1e-10])), max_size=20)):
        p, n = _boundary_point(name, u, v)
        near.append(p + off * n)
    X = np.array(random + near, dtype=float).reshape(-1, dom.dim)
    got = dom.signed_distance_many(X)
    ref = np.array([dom.signed_distance(x) for x in X])
    assert got.shape == ref.shape == (len(X),)
    # the rect corner regions use np.hypot where the one-point form uses
    # math.hypot; they can differ in the last bit
    assert np.all(np.abs(got - ref) <= 1e-15)
    assert np.array_equal(got <= TOL_BOUNDARY, ref <= TOL_BOUNDARY)


@given(st.lists(st.tuples(unit, unit, st.sampled_from([0.0, 1e-10, -1e-10])),
                min_size=1, max_size=20),
       st.lists(st.floats(-0.25, 0.25), max_size=5))
@settings(max_examples=60, deadline=None)
def test_boundary_kind_many_matches_one_point(rows, door_ys):
    P = [_boundary_point("rect", u, v)[0] + np.array([0.0, off]) for u, v, off in rows]
    # points around the door edges y = +-0.2
    P += [np.array([x, y]) for y in door_ys for x in RECT.bounds[:2]]
    P += [np.array([RECT.bounds[0], s * (0.2 + e)])
          for s in (-1.0, 1.0) for e in (-2e-9, 0.0, 5e-10, 2e-9)]
    P = np.array(P)
    got = RECT.boundary_kind_many(P)
    kinds = [boundary_kind(RECT, p) for p in P]
    assert np.array_equal(got[0], [k == "dirichlet" for k, _ in kinds])
    assert np.array_equal(got[1], [v if k == "dirichlet" else 0.0 for k, v in kinds])


def _scan_is_exact(dom, X, Y):
    """False when a segment crosses the hole along a chord shorter than two
    scan steps, which the scan-plus-bisection reference may step over."""
    if dom is not RECT:
        return True
    w = Y - X
    v = X - RECT.hole_center
    a, b = np.sum(w * w, axis=1), np.sum(v * w, axis=1)
    disc = b * b - a * (np.sum(v * v, axis=1) - RECT.hole_radius ** 2)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.clip((-b - root) / a, 0.0, 1.0)
    hi = np.clip((-b + root) / a, 0.0, 1.0)
    chord = np.where(disc > 0.0, hi - lo, 0.0)
    return not np.any((chord > 0.0) & (chord < 2.0 / 32))


@pytest.mark.parametrize("name", sorted(BATCHED))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_first_crossing_many_matches_scan(name, data):
    """Segments of length <= 0.1 from the closed domain: through a boundary
    point at up to 80 degrees off its normal, and in random directions.  The
    interval and the disk use the batched default of the Domain base class,
    the rectangle its closed form."""
    dom = BATCHED[name]
    X, Y = [], []
    for u, v, ang, a, c in data.draw(st.lists(st.tuples(
            unit, unit, st.floats(-1.4, 1.4), st.floats(0.0, 0.05),
            st.floats(1e-4, 0.05)), min_size=1, max_size=12)):
        p, n = _boundary_point(name, u, v)
        if dom.dim == 2:
            n = np.array([[math.cos(ang), -math.sin(ang)],
                          [math.sin(ang), math.cos(ang)]]) @ n
        X.append(p - a * n)
        Y.append(p + c * n)
    for x, th, length in data.draw(st.lists(st.tuples(
            st.tuples(*[st.floats(lo, hi) for lo, hi in _box(name)]),
            st.floats(0.0, 2 * math.pi), st.floats(1e-3, 0.1)), max_size=8)):
        d = np.array([math.cos(th), math.sin(th)][:dom.dim])
        X.append(np.array(x))
        Y.append(np.array(x) + length * d)
    X, Y = np.array(X).reshape(-1, dom.dim), np.array(Y).reshape(-1, dom.dim)
    keep = dom.signed_distance_many(X) <= 0.0
    X, Y = X[keep], Y[keep]
    assume(len(X) and _scan_is_exact(dom, X, Y))
    for x, y in zip(X, Y):
        try:
            ref = scan_crossing(dom, x, y)
        except NoCrossing:
            with pytest.raises(NoCrossing):
                dom.first_crossing_many(x[None], y[None])
            continue
        got = dom.first_crossing_many(x[None], y[None])[0]
        if np.max(np.abs(got - ref)) > 1e-9:
            # allowed only where the segment runs along the boundary between
            # the two points (a grazing or tangent exit), so that rounding
            # decides which of its points the scan sees outside
            between = np.linspace(got, ref, 17)
            assert np.max(np.abs(dom.signed_distance_many(between))) <= 1e-12
        assert boundary_kind(dom, got) == boundary_kind(dom, ref)
    crossing = dom.signed_distance_many(Y) > 0.0
    if crossing.any():
        # whole batch at once gives the same rows
        many = dom.first_crossing_many(X[crossing], Y[crossing])
        rows = [dom.first_crossing_many(x[None], y[None])[0]
                for x, y in zip(X[crossing], Y[crossing])]
        assert np.array_equal(many, np.array(rows))


def test_rect_first_crossing_with_subnormal_step():
    # the step toward the right face is subnormal: its face parameter
    # overflows, and the segment crosses the top face instead
    dom = RectWithHole()
    x, y = np.array([0.0, 0.49]), np.array([1e-310, 0.51])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dom.first_crossing_many(x[None], y[None])[0]
    assert np.max(np.abs(got - scan_crossing(dom, x, y))) <= 1e-9


class Ellipse(Domain):
    """x^2/a^2 + y^2/b^2 <= 1, with the two row methods only.  Its
    signed_distance_many is a level function with the sign of the signed
    distance, which is all the first crossing reads."""

    kind = "ellipse"
    dim = 2
    tube_radius = layer_radius = 0.25

    def __init__(self, a=1.0, b=0.5):
        self.axes = np.array([a, b])

    def signed_distance_many(self, X):
        return np.sqrt(np.sum((as_rows(X, 2) / self.axes) ** 2, axis=1)) - 1.0

    def outward_normal_many(self, P):
        P = as_rows(P, 2)
        if not np.all(np.abs(self.signed_distance_many(P)) <= TOL_BOUNDARY):
            raise NotOnBoundary("a point is not on the ellipse")
        n = P / self.axes ** 2
        return n / np.linalg.norm(n, axis=1)[:, None]


def test_user_domain_needs_only_the_row_methods():
    dom = Ellipse()
    rng = np.random.default_rng(11)
    th, phi = rng.uniform(0.0, 2.0 * math.pi, (2, 300))
    unit_dirs = np.column_stack([np.cos(th), np.sin(th)])
    # segments from inside the ellipse in random directions; keep those
    # that end outside
    X = rng.uniform(0.0, 0.99, (300, 1)) * dom.axes * unit_dirs
    Y = X + rng.uniform(0.01, 1.5, (300, 1)) * np.column_stack([np.cos(phi), np.sin(phi)])
    out = dom.signed_distance_many(Y) > 0.0
    X, Y = X[out], Y[out]
    assert len(X) > 100
    # the batched default crossing is the scalar scan, bit for bit
    got = dom.first_crossing_many(X, Y)
    assert np.array_equal(got, np.array([scan_crossing(dom, x, y) for x, y in zip(X, Y)]))
    assert np.all(np.abs(dom.signed_distance_many(got)) <= 1e-12)
    with pytest.raises(NoCrossing):
        dom.first_crossing_many(X, X)
    # the one-point signed_distance is the row form's
    assert [dom.signed_distance(x) for x in Y] == dom.signed_distance_many(Y).tolist()
    # every boundary row is oblique, with the normal field on rows
    dirichlet, value = dom.boundary_kind_many(got)
    assert not dirichlet.any() and not value.any()
    P = dom.axes * unit_dirs
    n = NormalField(dom)(P, None)
    assert n.shape == P.shape
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
    with pytest.raises(NotOnBoundary):
        NormalField(dom)(0.5 * P, None)
