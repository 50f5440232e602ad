"""Bounded domains: signed distances, normals, and oblique boundary projections.

Sign convention: signed_distance is negative strictly inside the domain,
zero on the boundary, positive outside.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    NoConvergence,
    NoCrossing,
    NotOnBoundary,
    OutOfLayer,
    OutsideTube,
)

TOL_BOUNDARY = 1e-9
TOL_PROJ = 1e-12
MAX_NEWTON_ITER = 50
# scan steps and bisections of the default first crossing
N_SCAN = 32
N_BISECT = 60

# outward normals of the RectWithHole faces 0-3
_RECT_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
_FLOAT = np.dtype(float)


def real_array(v, what: str, shape: tuple = None) -> np.ndarray:
    """v as a float array; BadParams unless v is a (nested) sequence or
    array of real numbers: integer or floating entries, or Python objects
    that are numbers.Real, bools excluded.  Strings, complex numbers and
    ragged sequences are not converted.  With shape, BadParams also unless
    the array has exactly that shape: nothing is broadcast or reshaped."""
    try:
        a = np.asarray(v)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"{what} is not an array of numbers: {exc}") from None
    if a.dtype is not _FLOAT:
        if a.dtype.kind not in "iuf" and not (a.dtype.kind == "O" and all(
                isinstance(e, numbers.Real) and not isinstance(e, bool) for e in a.flat)):
            got = repr(v) if a.ndim == 0 else f"{a.dtype} entries"
            raise BadParams(f"{what} must be real numbers, got {got}")
        try:
            a = a.astype(float)
        except OverflowError:
            raise BadParams(f"{what} holds an integer too large for a float") from None
    if shape is not None and a.shape != shape:
        raise BadParams(f"{what} of shape {a.shape}, expected {shape}")
    return a


def real_scalar(v, what: str) -> float:
    """v as a float; BadParams unless v is one real number (real_array's
    rule), a numpy scalar or a 0-d array included."""
    if isinstance(v, (float, np.floating)):
        return float(v)
    a = real_array(v, what)
    if a.shape:
        raise BadParams(f"{what} must be one number, got shape {a.shape}")
    return float(a)


def as_point(x, dim: int, what: str = "point") -> np.ndarray:
    """x as a float array (dim,) by real_array's rule; one number is a
    point when dim is 1.  BadParams for any other shape."""
    return point_shape(real_array(x, what), dim, what)


def point_shape(a: np.ndarray, dim: int, what: str = "point") -> np.ndarray:
    """as_point of a float array a that real_array made: a itself when of
    shape (dim,), one number as a point when dim is 1, else BadParams."""
    if a.shape != (dim,):
        if a.shape or dim != 1:
            raise BadParams(f"{what} of shape {a.shape}, expected ({dim},)")
        a = a.reshape(1)
    return a


def as_rows(X, dim: int, what: str = "points") -> np.ndarray:
    """X as a float array (m, dim) by real_array's rule; one point (dim,)
    is one row.  BadParams for any other shape."""
    return rows_shape(real_array(X, what), dim, what)


def rows_shape(a: np.ndarray, dim: int, what: str = "points") -> np.ndarray:
    """as_rows of a float array a that real_array made: a itself when of
    shape (m, dim), one point (dim,) as one row, else BadParams."""
    if a.ndim != 2 or a.shape[1] != dim:
        if a.shape != (dim,):
            raise BadParams(f"{what} of shape {a.shape}, expected (m, {dim})")
        a = a.reshape(1, dim)
    return a


def row_dots(U, V) -> np.ndarray:
    """Dot product of each pair of rows, bit-equal to np.dot on that pair
    (an elementwise product and sum can differ in the last bit)."""
    return (U[:, None, :] @ V[:, :, None])[:, 0, 0]


def row_norms(V) -> np.ndarray:
    """Euclidean norm of each row, bit-equal to np.linalg.norm of that row."""
    return np.sqrt(row_dots(V, V))


@dataclass
class ObliqueProjection:
    """Solution of x = p + d * gamma_b(p) with p on the boundary.

    gamma is the field gamma_b(p).  oblique_projection_many returns one
    of these with a leading row axis on every field.
    """

    p: np.ndarray
    d: float
    residual: float
    iterations: int
    gamma: np.ndarray = None


class Domain:
    """Base class for bounded domains with a smooth (piecewise) boundary.

    Every method takes rows (m, dim).  A domain supplies signed_distance_many
    and outward_normal_many; the base class gives the rest from them.  The
    built-in domains also give a scalar _distance, which the one-point query
    calls: it is several times faster than a one-row call.
    """

    kind: str
    dim: int
    # Radius of the tube around the boundary where the oblique projection
    # is unique, and the layer radius where distance-to-layer is smooth.
    tube_radius: float
    layer_radius: float
    has_dirichlet: bool = False

    def signed_distance_many(self, X) -> np.ndarray:
        """signed_distance of each row of X (m, dim)."""
        raise NotImplementedError

    def outward_normal_many(self, P) -> np.ndarray:
        """Outward unit normal (m, dim) at each row of P; NotOnBoundary if a
        row is off the boundary."""
        raise NotImplementedError

    def signed_distance(self, x) -> float:
        """signed_distance of one point; BadParams unless it has dim
        coordinates."""
        return self._distance(as_point(x, self.dim).tolist())

    def _distance(self, coords) -> float:
        """signed_distance of one point given as a list coords of dim
        Python floats, unchecked."""
        return float(self.signed_distance_many(np.array([coords]))[0])

    def boundary_kind_many(self, P):
        """(dirichlet (m,) bool, value (m,)) for each boundary row of P;
        value is the exit datum on Dirichlet rows and 0 elsewhere.  Every
        row is oblique unless a domain overrides this."""
        m = len(as_rows(P, self.dim))
        return np.zeros(m, dtype=bool), np.zeros(m)

    def first_crossing_many(self, X, Y) -> np.ndarray:
        """First boundary crossing of each segment X[j] -> Y[j], X[j] in the
        closed domain; NoCrossing if a segment does not leave it.

        The default scans N_SCAN equal steps of all rows for the first point
        outside, then bisects N_BISECT times; it returns the outer end of
        the last bracket.
        """
        X, Y = as_rows(X, self.dim), as_rows(Y, self.dim)
        W = Y - X
        ts = np.linspace(0.0, 1.0, N_SCAN + 1)[1:]
        steps = (X[:, None, :] + ts[:, None] * W[:, None, :]).reshape(-1, self.dim)
        out = (self.signed_distance_many(steps) > 0.0).reshape(len(X), N_SCAN)
        if not out.any(axis=1).all():
            raise NoCrossing("segment does not leave the domain")
        k = out.argmax(axis=1)
        hi = ts[k]
        lo = np.where(k > 0, ts[k - 1], 0.0)
        for _ in range(N_BISECT):
            mid = 0.5 * (lo + hi)
            outside = self.signed_distance_many(X + mid[:, None] * W) > 0.0
            hi = np.where(outside, mid, hi)
            lo = np.where(outside, lo, mid)
        return X + hi[:, None] * W

    def _check_on_boundary(self, P):
        if not (np.abs(self.signed_distance_many(P)) <= TOL_BOUNDARY).all():
            raise NotOnBoundary("a point is not on the boundary")


class Interval(Domain):
    kind = "interval"
    dim = 1

    def __init__(self, a: float, b: float):
        self.a, self.b = real_scalar(a, "a"), real_scalar(b, "b")
        if not -math.inf < self.a < self.b < math.inf:
            raise BadParams("interval requires finite a < b")
        self.tube_radius = 0.5 * (self.b - self.a)
        self.layer_radius = 0.5 * (self.b - self.a)

    def _distance(self, coords) -> float:
        [x0] = coords
        return max(self.a - x0, x0 - self.b)

    def signed_distance_many(self, X) -> np.ndarray:
        x = as_rows(X, 1)[:, 0]
        return np.maximum(self.a - x, x - self.b)

    def outward_normal_many(self, P) -> np.ndarray:
        P = as_rows(P, 1)
        self._check_on_boundary(P)
        return np.where(np.abs(P - self.a) <= np.abs(P - self.b), -1.0, 1.0)


class Disk(Domain):
    kind = "disk"
    dim = 2

    def __init__(self, center=(0.0, 0.0), radius: float = 1.0):
        self.radius = real_scalar(radius, "radius")
        if not 0 < self.radius < math.inf:
            raise BadParams("radius must be positive and finite")
        self.center = real_array(center, "center", (2,))
        if not np.isfinite(self.center).all():
            raise BadParams(f"center must be two finite numbers, got {center!r}")
        self.tube_radius = 0.5 * self.radius
        self.layer_radius = 0.5 * self.radius

    def _distance(self, coords) -> float:
        x0, x1 = coords
        c0, c1 = self.center.tolist()
        return math.hypot(x0 - c0, x1 - c1) - self.radius

    def signed_distance_many(self, X) -> np.ndarray:
        return row_norms(as_rows(X, 2) - self.center) - self.radius

    def outward_normal_many(self, P) -> np.ndarray:
        P = as_rows(P, 2)
        self._check_on_boundary(P)
        return (P - self.center) / self.radius


class RectWithHole(Domain):
    """Rectangle minus a closed disk; boundary is piecewise smooth.

    Faces are indexed 0: x=xmin, 1: x=xmax, 2: y=ymin, 3: y=ymax, 4: hole
    circle; corner ties go to the face of smaller index.  Optional Dirichlet
    bands on the left/right faces carry constant exit data.
    """

    kind = "rect_with_hole"
    dim = 2
    has_dirichlet = True

    def __init__(self, bounds=(-1.0, 1.0, -0.5, 0.5), hole_center=(-0.5, 0.0),
                 hole_radius: float = 0.2, dirichlet_half_width: float = 0.2,
                 dirichlet_values=(0.0, 0.2)):
        xmin, xmax, ymin, ymax = real_array(bounds, "bounds", (4,)).tolist()
        if not (-math.inf < xmin < xmax < math.inf and -math.inf < ymin < ymax < math.inf):
            raise BadParams(f"bounds {bounds!r} must be finite with xmin < xmax, ymin < ymax")
        hc = real_array(hole_center, "hole_center", (2,))
        hole_radius = real_scalar(hole_radius, "hole_radius")
        if hole_radius <= 0 or not (
            xmin < hc[0] - hole_radius and hc[0] + hole_radius < xmax
            and ymin < hc[1] - hole_radius and hc[1] + hole_radius < ymax
        ):
            raise BadParams("hole must lie strictly inside the rectangle")
        dirichlet_half_width = real_scalar(dirichlet_half_width, "dirichlet_half_width")
        if not dirichlet_half_width >= 0:
            raise BadParams("dirichlet_half_width must be nonnegative")
        values = real_array(dirichlet_values, "dirichlet_values", (2,))
        if not np.isfinite(values).all():
            raise BadParams(f"dirichlet_values must be two finite numbers, "
                            f"got {dirichlet_values!r}")
        self.bounds = (xmin, xmax, ymin, ymax)
        self.hole_center = hc
        self.hole_radius = hole_radius
        self.dirichlet_half_width = dirichlet_half_width
        self.dirichlet_values = tuple(values.tolist())
        self.tube_radius = 0.4 * hole_radius
        self.layer_radius = 0.4 * hole_radius

    def _distance(self, coords) -> float:
        x0, x1 = coords
        xmin, xmax, ymin, ymax = self.bounds
        dx = max(xmin - x0, x0 - xmax)
        dy = max(ymin - x1, x1 - ymax)
        if dx <= 0.0 and dy <= 0.0:
            rect = max(dx, dy)
        else:
            rect = math.hypot(max(dx, 0.0), max(dy, 0.0))
        c0, c1 = self.hole_center.tolist()
        # the hole's term is negative outside the hole
        return max(rect, self.hole_radius - math.hypot(x0 - c0, x1 - c1))

    def signed_distance_many(self, X) -> np.ndarray:
        X = as_rows(X, 2)
        xmin, xmax, ymin, ymax = self.bounds
        dx = np.maximum(xmin - X[:, 0], X[:, 0] - xmax)
        dy = np.maximum(ymin - X[:, 1], X[:, 1] - ymax)
        rect = np.where((dx <= 0.0) & (dy <= 0.0), np.maximum(dx, dy),
                        np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0)))
        hole = self.hole_radius - row_norms(X - self.hole_center)
        return np.maximum(rect, hole)

    def first_crossing_many(self, X, Y) -> np.ndarray:
        """Closed form: the smallest parameter in [0, 1) at which a segment
        leaves a face's half-plane or enters the hole."""
        X, Y = as_rows(X, 2), as_rows(Y, 2)
        xmin, xmax, ymin, ymax = self.bounds
        w = Y - X
        t = np.full((len(X), 5), np.inf)
        for face, (axis, bound, sign) in enumerate(
                [(0, xmin, -1.0), (0, xmax, 1.0), (1, ymin, -1.0), (1, ymax, 1.0)]):
            out = sign * w[:, axis] > 0.0
            # a subnormal step toward a face overflows to inf: that parameter
            # lies beyond the segment, so the face is not crossed
            with np.errstate(over="ignore"):
                t[out, face] = (bound - X[out, axis]) / w[out, axis]
        # nearer root of |v + s w| = r for a segment heading into the hole;
        # c/(-b + sqrt(disc)) is that root without cancellation
        v = X - self.hole_center
        a = np.sum(w * w, axis=1)
        b = np.sum(v * w, axis=1)
        c = np.sum(v * v, axis=1) - self.hole_radius ** 2
        disc = b * b - a * c
        enters = (b < 0.0) & (disc > 0.0)
        t[enters, 4] = c[enters] / (-b[enters] + np.sqrt(disc[enters]))
        face = np.argmin(t, axis=1)
        s = np.maximum(t[np.arange(len(X)), face], 0.0)
        if not (s < 1.0).all():
            raise NoCrossing("segment does not leave the domain")
        q = X + s[:, None] * w
        # put face crossings exactly on their face line
        for k, (axis, bound) in enumerate([(0, xmin), (0, xmax), (1, ymin), (1, ymax)]):
            q[face == k, axis] = bound
        return q

    def _nearest_face(self, X) -> np.ndarray:
        """Index of the face nearest each row of X, ties to the smaller
        index; the hole is never nearest to its center."""
        xmin, xmax, ymin, ymax = self.bounds
        m = len(X)
        cx = np.minimum(np.maximum(X[:, 0], xmin), xmax)
        cy = np.minimum(np.maximum(X[:, 1], ymin), ymax)
        feet = np.empty((m, 4, 2))
        feet[:, 0, 0], feet[:, 0, 1] = xmin, cy
        feet[:, 1, 0], feet[:, 1, 1] = xmax, cy
        feet[:, 2, 0], feet[:, 2, 1] = cx, ymin
        feet[:, 3, 0], feet[:, 3, 1] = cx, ymax
        r = row_norms(X - self.hole_center)
        dist = np.empty((m, 5))
        dist[:, :4] = row_norms((X[:, None, :] - feet).reshape(-1, 2)).reshape(m, 4)
        dist[:, 4] = np.where(r > 0, np.abs(r - self.hole_radius), np.inf)
        return dist.argmin(axis=1)

    def outward_normal_many(self, P) -> np.ndarray:
        """The normal of each row's nearest face; a corner takes the face of
        smaller index, and the hole's normal points into the hole."""
        P = as_rows(P, 2)
        self._check_on_boundary(P)
        face = self._nearest_face(P)
        n = _RECT_NORMALS[np.minimum(face, 3)]
        hole = face == 4
        v = P[hole] - self.hole_center
        n[hole] = -v / row_norms(v)[:, None]
        return n

    def boundary_kind_many(self, P):
        P = as_rows(P, 2)
        xmin, xmax, _, _ = self.bounds
        door = np.abs(P[:, 1]) <= self.dirichlet_half_width + TOL_BOUNDARY
        left = door & (np.abs(P[:, 0] - xmin) <= TOL_BOUNDARY)
        right = door & ~left & (np.abs(P[:, 0] - xmax) <= TOL_BOUNDARY)
        value = np.where(left, self.dirichlet_values[0],
                         np.where(right, self.dirichlet_values[1], 0.0))
        return left | right, value


class ObliqueField:
    """Unit vector field gamma_b(p) on the boundary, non-tangent to it.

    Called on rows: P (m, dim) of boundary points gives (m, dim).
    """

    def __call__(self, P, b) -> np.ndarray:
        raise NotImplementedError


class NormalField(ObliqueField):
    """gamma_b = outward normal (Neumann case)."""

    def __init__(self, domain: Domain):
        self.domain = domain

    def __call__(self, P, b) -> np.ndarray:
        return self.domain.outward_normal_many(P)


class RotatedNormalField(ObliqueField):
    """Outward normal rotated clockwise by a fixed angle (2D only)."""

    def __init__(self, domain: Domain, angle: float):
        if domain.dim != 2:
            raise BadParams(f"a rotated normal field needs a 2D domain, got {domain.dim}D")
        self.angle = real_scalar(angle, "angle")
        if not abs(self.angle) < 0.5 * math.pi:
            raise BadParams("rotation must keep the field non-tangent")
        self.domain = domain
        c, s = math.cos(self.angle), math.sin(self.angle)
        self._rot = np.array([[c, s], [-s, c]])

    def __call__(self, P, b) -> np.ndarray:
        return (self._rot @ self.domain.outward_normal_many(P)[..., None])[..., 0]


class FunctionField(ObliqueField):
    """Oblique field from a user handle (P, b) -> unit vectors, on rows: a
    result that is not real numbers of P's shape raises BadParams."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, P, b) -> np.ndarray:
        return real_array(self.fn(P, b), "gamma", np.shape(P))


def _check_tube(domain: Domain, X, r_max):
    r = domain.tube_radius if r_max is None else r_max
    if not r > 0:
        raise BadParams(f"r_max must be positive, got {r!r}")
    if r < math.inf:
        dist = np.abs(domain.signed_distance_many(X))
        if np.any(dist >= r):
            raise OutsideTube(f"|signed_distance|={dist.max():.3g} "
                              f"outside the tube of radius {r:.3g}")


def oblique_projection(domain: Domain, gamma: ObliqueField, b, x,
                       r_max: float | None = None) -> ObliqueProjection:
    """Solve x = p + d * gamma_b(p) for p on the boundary and d algebraic.

    d > 0 strictly outside the closed domain, d = 0 on the boundary.  Pass
    r_max=math.inf to skip the tube precondition (the reflection step does
    this; large time steps can push characteristics beyond the nominal tube).
    """
    pr = oblique_projection_many(domain, gamma, b, as_point(x, domain.dim)[None, :],
                                 r_max=r_max)
    return ObliqueProjection(p=pr.p[0], d=float(pr.d[0]),
                             residual=float(pr.residual[0]),
                             iterations=int(pr.iterations[0]), gamma=pr.gamma[0])


def oblique_projection_many(domain: Domain, gamma: ObliqueField, b, X,
                            r_max: float | None = None) -> ObliqueProjection:
    """oblique_projection of each row of X (m, dim), with a leading row axis
    on every field.  The closed forms and, for other fields on the disk,
    Newton run batched.  An error on any row raises."""
    X = as_rows(X, domain.dim)
    _check_tube(domain, X, r_max)
    if isinstance(domain, Interval):
        return _interval_projection(domain, X)
    if isinstance(domain, RectWithHole):
        if not isinstance(gamma, NormalField):
            raise BadParams("rect_with_hole supports the normal field only")
        return _rect_hole_normal_projection(domain, X)
    if isinstance(domain, Disk):
        if isinstance(gamma, (NormalField, RotatedNormalField)):
            angle = gamma.angle if isinstance(gamma, RotatedNormalField) else 0.0
            return _disk_projection(domain, angle, X)
        return oblique_projection_newton(domain, gamma, b, X)
    raise BadParams(f"unsupported domain kind {domain.kind!r}")


def _closed_form(p, d, residual, gamma) -> ObliqueProjection:
    return ObliqueProjection(p=p, d=d, residual=residual,
                             iterations=np.zeros(len(d), dtype=int), gamma=gamma)


def _interval_projection(domain: Interval, X) -> ObliqueProjection:
    left = (np.abs(X - domain.a) <= np.abs(X - domain.b))[:, 0]
    # (endpoint, outward normal) of the nearer end, ties to a
    end = np.array([[domain.b, 1.0], [domain.a, -1.0]])[left.astype(np.intp)]
    p, g = end[:, :1], end[:, 1:]
    return _closed_form(p, ((X - p) / g)[:, 0], np.zeros(len(X)), g)


def _disk_projection(domain: Disk, angle: float, X) -> ObliqueProjection:
    """Closed-form solve for gamma = normal rotated clockwise by a fixed
    angle, the normal itself at angle 0.

    With rho = |x - c| / r the algebraic distance solves
    d^2 + 2 d cos(angle) + 1 = rho^2, and u = p - c solves (I + k R) u = x - c
    with k = d / r and R the rotation; I + k R is a scaled rotation, so its
    inverse is its transpose over its determinant.
    """
    v = X - domain.center
    rho = row_norms(v) / domain.radius
    ca, sa = math.cos(angle), math.sin(angle)
    disc = ca * ca - 1.0 + rho * rho
    if not (disc > 0.0).all():
        raise OutsideTube("point at the center or too deep inside for the projection")
    d = domain.radius * (-ca + np.sqrt(disc))
    k = d / domain.radius
    a, s = 1.0 + k * ca, k * sa
    u = np.column_stack([a * v[:, 0] - s * v[:, 1], s * v[:, 0] + a * v[:, 1]])
    u /= (a * a + s * s)[:, None]
    p = domain.center + u
    gp = np.column_stack([ca * u[:, 0] + sa * u[:, 1],
                          ca * u[:, 1] - sa * u[:, 0]]) / domain.radius
    return _closed_form(p, d, row_norms(X - p - d[:, None] * gp), gp)


def _rect_hole_normal_projection(domain: RectWithHole, X) -> ObliqueProjection:
    """Piecewise projection along the face normals of a rect-with-hole.

    Inside the hole: radially onto its circle.  Beyond a face: onto the
    first such face (corner wedges tie toward the smaller index).  Otherwise
    (inside the domain): along the normal of the nearest face.
    """
    xmin, xmax, ymin, ymax = domain.bounds
    hc, radius = domain.hole_center, domain.hole_radius
    beyond = np.column_stack([xmin - X[:, 0], X[:, 0] - xmax,
                              ymin - X[:, 1], X[:, 1] - ymax]) > 0.0
    face = beyond.argmax(axis=1)
    inside = ~beyond.any(axis=1)
    if inside.any():
        face[inside] = domain._nearest_face(X[inside])
    hv = X - hc
    hr = row_norms(hv)
    in_hole = (hr < radius) & (hr > 0)
    face[in_hole] = 4
    hole = face == 4
    # foot on face k: the point clamped into the rectangle, then put on the face
    p = np.column_stack([np.minimum(np.maximum(X[:, 0], xmin), xmax),
                         np.minimum(np.maximum(X[:, 1], ymin), ymax)])
    for k, (axis, bound) in enumerate([(0, xmin), (0, xmax), (1, ymin), (1, ymax)]):
        p[face == k, axis] = bound
    n = _RECT_NORMALS[np.minimum(face, 3)]
    if hole.any():
        p[hole] = hc + radius * hv[hole] / hr[hole, None]
        n[hole] = -hv[hole] / hr[hole, None]
    d = row_dots(X - p, n)
    d[in_hole] = radius - hr[in_hole]
    res = row_norms(X - p - d[:, None] * n)
    res[hole] = 0.0
    # the field at p: a foot on two face lines (a corner) takes the smaller index
    g = domain.outward_normal_many(p)
    return _closed_form(p, d, res, g)


def oblique_projection_newton(domain: Disk, gamma: ObliqueField, b, X) -> ObliqueProjection:
    """Newton iteration on G(theta, lam) = q(theta) + lam*gamma(q(theta)) - x,
    q(theta) the boundary point at angle theta, for all rows x of X at once.

    Each row starts at its nearest-point angle and signed distance, and
    leaves the iteration once its residual is within TOL_PROJ; NoConvergence
    after MAX_NEWTON_ITER iterations.
    """
    X = as_rows(X, 2)
    v = X - domain.center
    theta = np.arctan2(v[:, 1], v[:, 0])
    lam = domain.signed_distance_many(X)
    out = ObliqueProjection(p=np.empty_like(X), d=np.empty(len(X)),
                            residual=np.empty(len(X)),
                            iterations=np.zeros(len(X), dtype=int),
                            gamma=np.empty_like(X))
    rows = np.arange(len(X))
    h = 1e-6

    def G(th, la, x):
        q = domain.center + domain.radius * np.column_stack([np.cos(th), np.sin(th)])
        g = gamma(q, b)
        return q + la[:, None] * g - x, q, g

    for it in range(1, MAX_NEWTON_ITER + 1):
        x = X[rows]
        g0, q, g = G(theta, lam, x)
        res = row_norms(g0)
        done = res <= TOL_PROJ
        r = rows[done]
        out.p[r], out.d[r], out.residual[r], out.gamma[r] = q[done], lam[done], res[done], g[done]
        out.iterations[r] = it
        live = ~done
        rows, theta, lam, x, g0, g = (a[live] for a in (rows, theta, lam, x, g0, g))
        if not len(rows):
            return out
        col0 = (G(theta + h, lam, x)[0] - G(theta - h, lam, x)[0]) / (2 * h)
        try:
            step = np.linalg.solve(np.stack([col0, g], axis=2), -g0[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Newton system") from exc
        theta = theta + step[:, 0]
        lam = lam + step[:, 1]
    raise NoConvergence(f"residual up to {res.max():.3g} on {len(rows)} rows "
                        f"after {MAX_NEWTON_ITER} iterations")


def layer_distance(domain: Domain, delta: float, x) -> float:
    """Distance from x to the inner layer boundary {d(., boundary) = delta}.

    Satisfies d(x, boundary) + d(x, layer boundary) = delta on the layer.
    """
    delta = real_scalar(delta, "delta")
    if not 0 <= delta <= domain.layer_radius:
        raise BadParams("delta must lie in [0, layer_radius]")
    x = as_point(x, domain.dim)
    sd = domain.signed_distance(x)
    if sd > TOL_BOUNDARY:
        raise OutOfLayer("point outside the closed domain")
    d0 = abs(min(sd, 0.0))
    if d0 > delta + 1e-12:
        raise OutOfLayer("point deeper than the layer width")
    # along the normal field, p is the nearest boundary point
    pr = oblique_projection(domain, NormalField(domain), None, x)
    return float(np.linalg.norm(x - (pr.p - delta * pr.gamma)))
