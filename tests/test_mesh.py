import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbsl.cli import build_mesh_for
from hjbsl.errors import BadParams, OutsideDomain
from hjbsl.geometry import TOL_BOUNDARY, Disk, Domain, Interval, NormalField, RectWithHole
from hjbsl.mesh import (
    CELL_WIDTH,
    MAX_CELLS_PER_SIMPLEX,
    Mesh,
    _clip_normalize,
    _clip_normalize_one,
    build_disk_mesh,
    build_interval_mesh,
    build_rect_with_hole_mesh,
    read_mesh,
    write_mesh,
)
from hjbsl.problems import get_benchmark
from hjbsl.scheme import Operator, Problem, SchemeParams, ValueFunction, sweep

RECT = dict(bounds=(-1.0, 1.0, -0.5, 0.5), hole_center=(-0.5, 0.0),
            hole_radius=0.2)
UNIT = Interval(0.0, 1.0)
DISK = Disk((0.0, 0.0), 1.0)


def query(m, domain, nodal, x):
    """The checked P1 query vf(0, x) of nodal values (n_vertices,) on m,
    for a problem posed on domain whose handles the query never calls."""
    unused = lambda *args: None
    problem = Problem(domain=domain, T=1.0, n_sigma=1, sigma=unused, mu=unused, f=unused,
                      g=unused, psi=unused, gamma=NormalField(domain), controls_a=[0.0],
                      controls_b=[0.0])
    return ValueFunction(values=np.array(nodal, dtype=float)[None], dt=1.0, mesh=m,
                         problem=problem)(0.0, x)


def boundary_vertices(m):
    """The vertices of the faces of exactly one simplex."""
    return m.vertices[np.unique(m._boundary_edges)]


def test_interval_mesh_examples():
    assert build_interval_mesh(0.0, 1.0, 0.25).n_vertices == 5
    assert build_interval_mesh(0.0, 1.0, 0.5).n_vertices == 3
    m = build_interval_mesh(0.0, 1.0, 0.3)
    assert m.n_vertices == 5
    assert np.allclose(np.diff(m.vertices[:, 0]), 0.25)
    with pytest.raises(BadParams):
        build_interval_mesh(0.0, 1.0, 1.5)


def test_disk_mesh_boundary_snap():
    m = build_disk_mesh((0.0, 0.0), 1.0, 0.5)
    r = np.linalg.norm(boundary_vertices(m), axis=1)
    assert np.max(np.abs(r - 1.0)) <= 1e-12
    with pytest.raises(BadParams):
        build_disk_mesh((0.0, 0.0), 1.0, 1.0)


def test_disk_mesh_hausdorff_gap():
    dx = 0.25
    m = build_disk_mesh((0.0, 0.0), 1.0, dx)
    th = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    x = np.column_stack([np.cos(th), np.sin(th)])
    # circle points off the polygon land on its nearest boundary point
    assert np.max(np.linalg.norm(x - _landing(m, x), axis=1)) <= dx * dx


def _landing(m, points):
    """The points p_dx(x) that locate_many reads for each row x."""
    simplex, bary = m.locate_many(points)
    return np.einsum("mk,mkd->md", bary, m.vertices[m.simplices[simplex]])


def test_rect_with_hole_mesh():
    m = build_rect_with_hole_mesh(dx=0.1, **RECT)
    hole = np.linalg.norm(m.vertices - np.array([-0.5, 0.0]), axis=1)
    on_hole = np.abs(hole - 0.2) <= 1e-6
    assert on_hole.any()
    assert np.max(np.abs(hole[on_hole] - 0.2)) <= 1e-12
    # door endpoints are present, on the domain's Dirichlet portion
    for corner in ([-1.0, 0.2], [-1.0, -0.2]):
        idx = np.where(np.linalg.norm(m.vertices - corner, axis=1) <= 1e-12)[0]
        assert len(idx) == 1
        assert RectWithHole(**RECT).boundary_kind_many(m.vertices[idx])[0].all()


def test_boundary_vertices_on_boundary():
    for m, dom in ((build_disk_mesh((0.0, 0.0), 1.0, 0.25), DISK),
                   (build_rect_with_hole_mesh(dx=0.1, **RECT), RectWithHole(**RECT))):
        assert np.abs(dom.signed_distance_many(boundary_vertices(m))).max() <= 1e-9


def test_at_most_one_boundary_face_per_simplex():
    m = build_disk_mesh((0.0, 0.0), 1.0, 0.25)
    counts = {}
    for f in m._boundary_edges:
        fs = set(int(v) for v in f)
        for t, s in enumerate(m.simplices):
            if fs.issubset(set(int(v) for v in s)):
                counts[t] = counts.get(t, 0) + 1
    assert max(counts.values()) == 1


def test_partition_of_unity():
    m = build_disk_mesh((0.0, 0.0), 1.0, 0.25)
    rng = np.random.default_rng(0)
    n = 0
    while n < 10_000:
        x = rng.uniform(-1.0, 1.0, size=2)
        if np.linalg.norm(x) > 1.0:
            continue
        verts, w = m._point_weights(x.tolist())
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        n += 1


def test_locate_examples():
    m = build_interval_mesh(0.0, 1.0, 0.5)
    simplex, bary = m._scan(np.array([0.25]))
    assert simplex == 0
    assert np.allclose(bary, [0.5, 0.5])
    # shared vertex resolves to the lowest simplex index
    simplex, bary = m._scan(np.array([0.5]))
    assert simplex == 0
    assert np.max(bary) == pytest.approx(1.0)

    md = build_disk_mesh((0.0, 0.0), 1.0, 0.5)
    bc = md.barycenters()[3]
    simplex, bary = md._scan(bc)
    assert simplex == 3 or np.allclose(
        md.vertices[md.simplices[simplex]].mean(axis=0), bc)
    assert np.allclose(sorted(bary), [1 / 3] * 3, atol=1e-12)


def test_interpolation_examples():
    m = build_interval_mesh(0.0, 1.0, 0.25)
    const = np.full(m.n_vertices, 3.7)
    assert query(m, UNIT, const, np.array([0.3])) == pytest.approx(3.7)
    lin = m.vertices[:, 0].copy()
    assert query(m, UNIT, lin, np.array([0.3])) == pytest.approx(0.3)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_interpolation_quadratic_error(k):
    dx = 2.0 ** -k
    m = build_interval_mesh(0.0, 1.0, dx)
    nodal = m.vertices[:, 0] ** 2
    xs = np.linspace(0.0, 1.0, 1000)
    err = max(abs(query(m, UNIT, nodal, np.array([x])) - x * x) for x in xs)
    assert err <= dx * dx / 4.0 + 1e-12


def test_interpolation_rate_on_disk():
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 400:
        x = rng.uniform(-1.0, 1.0, size=2)
        if np.linalg.norm(x) <= 1.0:
            pts.append(x)
    errs = []
    dxs = [0.25, 0.125, 0.0625]
    for dx in dxs:
        m = build_disk_mesh((0.0, 0.0), 1.0, dx)
        nodal = np.sin(m.vertices[:, 0]) * np.sin(m.vertices[:, 1])
        errs.append(max(abs(query(m, DISK, nodal, x)
                            - math.sin(x[0]) * math.sin(x[1])) for x in pts))
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_interpolation_monotone():
    m = build_disk_mesh((0.0, 0.0), 1.0, 0.25)
    rng = np.random.default_rng(2)
    U = rng.uniform(-1.0, 1.0, m.n_vertices)
    V = U + rng.uniform(0.0, 1.0, m.n_vertices)
    for _ in range(200):
        x = rng.uniform(-0.7, 0.7, size=2)
        assert query(m, DISK, U, x) <= query(m, DISK, V, x) + 1e-12


def test_project_examples():
    # p_dx is the identity on the polygon and the nearest polygon point off it
    m = build_interval_mesh(0.0, 1.0, 0.25)
    assert _landing(m, np.array([[0.3]]))[0, 0] == pytest.approx(0.3)
    md = build_disk_mesh((0.0, 0.0), 1.0, 0.5)
    v = md.vertices[7]
    assert np.allclose(_landing(md, v[None, :])[0], v)
    with pytest.raises(OutsideDomain):
        query(md, DISK, np.zeros(md.n_vertices), [1.5, 0.0])
    # arc midpoint outside the polygon lands on the nearest chord
    bnd = boundary_vertices(md)
    th = np.sort(np.arctan2(bnd[:, 1], bnd[:, 0]))
    mid = 0.5 * (th[0] + th[1])
    x = np.array([math.cos(mid), math.sin(mid)])
    verts, w = md._point_weights(x.tolist())
    q = w @ md.vertices[verts]
    assert md._scan(x) is None
    assert np.linalg.norm(q) < 1.0
    assert np.linalg.norm(x - q) <= 0.5 ** 2


class Everywhere(Domain):
    """A 1D domain whose signed distance is -1 at every point."""
    kind, dim = "everywhere", 1

    def signed_distance_many(self, X):
        return np.full(len(X), -1.0)


def test_interpolation_rejects_misshapen_input():
    m = build_interval_mesh(0.0, 1.0, 0.25)
    nodal = np.zeros(m.n_vertices)
    # two coordinates on a 1D mesh are not two points, nor rows of width 2
    for x in ([0.5, 0.2], np.zeros((1, 2))):
        with pytest.raises(BadParams):
            query(m, UNIT, nodal, x)
    md = build_disk_mesh((0.0, 0.0), 1.0, 0.5)
    with pytest.raises(BadParams):
        query(md, DISK, np.zeros(md.n_vertices), [0.1])
    # the problem's domain rejects coordinates that are not finite, and
    # behind a domain that takes every point the mesh still does
    for x in ([math.nan], [math.inf], [-math.inf]):
        for domain, error in ((UNIT, OutsideDomain), (Everywhere(), BadParams)):
            with pytest.raises(error):
                query(m, domain, nodal, x)
            with pytest.raises(error):
                query(m, domain, nodal, [[0.5], x])


def test_mesh_io_roundtrip(tmp_path):
    m = build_disk_mesh((0.0, 0.0), 1.0, 0.4)
    path = tmp_path / "disk.mesh"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.simplices, m2.simplices)
    bad = tmp_path / "bad.mesh"
    bad.write_text("nope 1 2 3\n")
    with pytest.raises(BadParams):
        read_mesh(bad)


@pytest.mark.parametrize("bench, dx, dt, outside", [
    ("test1_eps", 0.05, 0.05, [[5.0], [-3.0]]),
    ("test3_exit", 0.2, 0.1, [[-0.5, 0.0], [5.0, 0.0]]),
], ids=["test1_eps", "test3_exit"])
def test_read_mesh_is_swept_on_the_problems_domain(bench, dx, dt, outside, tmp_path):
    """A mesh read back from its file sweeps to the values of the mesh it
    was written from, and its queries check points against the problem's
    domain: a point outside it raises OutsideDomain, alone or among rows."""
    b = get_benchmark(bench, eps=0.05)
    built = build_mesh_for(b, dx)
    path = tmp_path / "m.mesh"
    write_mesh(built, path)
    params = SchemeParams(dt=dt, c_bar=b.c_bar)
    vf = sweep(b.problem, read_mesh(path), params)
    assert np.array_equal(vf.values, sweep(b.problem, built, params).values)
    inside = built.vertices[0].tolist()
    vf(0.0, inside)
    for x in outside:
        with pytest.raises(OutsideDomain):
            vf(0.0, x)
        with pytest.raises(OutsideDomain):
            vf(0.0, [inside, x])


LOC_MESHES = {
    "interval": build_interval_mesh(0.0, 1.0, 0.1),
    "disk": build_disk_mesh((0.0, 0.0), 1.0, 0.25),
    "rect": build_rect_with_hole_mesh(dx=0.2, **RECT),
}
LOC_DOMAINS = {"interval": UNIT, "disk": DISK, "rect": RectWithHole(**RECT)}


def _off_polygon(name, u, delta):
    """A point of the closed domain up to delta outside the mesh polygon."""
    if name == "interval":
        return [1.0 + delta] if u < 0.5 else [-delta]
    if name == "disk":
        th = 2.0 * math.pi * u
        return [(1.0 + delta) * math.cos(th), (1.0 + delta) * math.sin(th)]
    return [1.0 + delta, -0.5 + u]


def _polygon_point(m, x):
    """The nearest point to x on the edges of the mesh's simplices, all of
    which lie in the polygon: a boundary point for x off the polygon."""
    if m.dim == 1:
        return np.clip(x, m.vertices.min(), m.vertices.max())
    e = m.simplices[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    a = m.vertices[e[:, 0]]
    ab = m.vertices[e[:, 1]] - a
    t = np.clip(((x - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0.0, 1.0)
    q = a + t[:, None] * ab
    return q[np.argmin(np.linalg.norm(x - q, axis=1))]


def _lowest_simplex_with(mesh, verts):
    return min(t for t, s in enumerate(mesh.simplices) if set(verts) <= set(s))


@pytest.mark.parametrize("name", sorted(LOC_MESHES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_locate_many_matches_one_point(name, data):
    m = LOC_MESHES[name]
    lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    coord = st.tuples(*[st.floats(float(a), float(b)) for a, b in zip(lo, hi)])
    interior = [p for p in data.draw(st.lists(coord, max_size=20))
                if LOC_DOMAINS[name].signed_distance(np.array(p)) <= 0.0]
    vertex_ids = data.draw(st.lists(st.integers(0, m.n_vertices - 1), max_size=8))
    edges = [m.simplices[t, list(ij)] for t, ij in data.draw(st.lists(
        st.tuples(st.integers(0, len(m.simplices) - 1),
                  st.sampled_from([(0, 1), (0, m.dim), (m.dim - 1, m.dim)])),
        max_size=8))]
    off = [_off_polygon(name, u, d) for u, d in data.draw(st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e-10)), max_size=4))]
    pts = np.array(interior + [m.vertices[v] for v in vertex_ids]
                   + [0.5 * (m.vertices[a] + m.vertices[b]) for a, b in edges]
                   + off, dtype=float).reshape(-1, m.dim)

    simplex, bary = m.locate_many(pts)
    assert simplex.shape == (len(pts),) and bary.shape == (len(pts), m.dim + 1)
    assert np.all(bary >= 0.0)
    assert np.allclose(bary.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    for x, t, lam in zip(pts, simplex, bary):
        ref_simplex, ref_bary = m._scan(x) or m._scan(_polygon_point(m, x))
        assert t == ref_simplex
        assert np.max(np.abs(lam - ref_bary)) <= 1e-12
    # shared vertices and faces resolve to the lowest simplex index
    n_in = len(interior)
    for v, t in zip(vertex_ids, simplex[n_in:]):
        assert t == _lowest_simplex_with(m, [v])
    for (a, b), t in zip(edges, simplex[n_in + len(vertex_ids):]):
        assert t == _lowest_simplex_with(m, [a, b])


def test_locate_many_resolves_each_candidate_column():
    """Each barycenter lands in its own simplex.  A point that its cell's
    column 0 holds, one that only a later column holds and a grid miss,
    which only the sentinel column holds, each get _scan's pick."""
    m = LOC_MESHES["disk"]
    centers = m.barycenters()
    assert np.array_equal(m.locate_many(centers)[0], np.arange(len(m.simplices)))
    column = np.array([m._cell_row(x.tolist()).tolist().index(t)
                       for t, x in enumerate(centers)])
    assert column.min() == 0 and column.max() > 0
    # a boundary edge's midpoint pushed out onto the circle: in the disk, off
    # the polygon
    mid = m.vertices[m._boundary_edges[0]].mean(axis=0)
    miss = mid / np.linalg.norm(mid)
    assert m._scan(miss) is None
    pts = np.array([centers[column.argmin()], centers[column.argmax()], miss])
    assert m._locate_in_cells(pts)[0].tolist() == [column.argmin(), column.argmax(), -1]
    for x, t, lam in zip(pts, *m.locate_many(pts)):
        ref_simplex, ref_bary = m._scan(x) or m._scan(_polygon_point(m, x))
        assert t == ref_simplex
        assert np.array_equal(lam, ref_bary)


# the benchmark workloads' meshes: interval_fine, rect_exit, disk_oblique
SCAN_BENCHES = {f"{bench}-{dx}": (get_benchmark(bench, eps=0.05), dx)
                for bench, dx in (("test1_eps", 0.001), ("test3_exit", 0.1),
                                  ("test2_oblique", 0.125))}
SCAN_MESHES = dict(LOC_MESHES, **{name: build_mesh_for(b, dx)
                                  for name, (b, dx) in SCAN_BENCHES.items()})
SCAN_DOMAINS = dict(LOC_DOMAINS, **{name: b.problem.domain
                                    for name, (b, _) in SCAN_BENCHES.items()})


def _scan_points(m):
    """Vertices moved by 1e-16 to 1e-11 mesh sizes, where a face's
    simplices hold the point only within BARY_TOL, every edge midpoint and
    200 random interior points."""
    rng = np.random.default_rng(3)
    step = rng.normal(size=m.vertices.shape)
    step *= m.mesh_size * 10.0 ** rng.uniform(-16.0, -11.0, (m.n_vertices, 1)) / np.linalg.norm(
        step, axis=1, keepdims=True)
    edges = m.simplices[:, [[0, 1]] if m.dim == 1 else [[0, 1], [1, 2], [2, 0]]]
    lam = rng.dirichlet(np.ones(m.dim + 1), 200)
    inner = rng.integers(len(m.simplices), size=200)
    return np.concatenate([
        m.vertices + step,
        m.vertices[edges].mean(axis=2).reshape(-1, m.dim),
        np.einsum("mk,mkd->md", lam, m.vertices[m.simplices[inner]])])


@pytest.mark.parametrize("width", [CELL_WIDTH, 2.0], ids=["chosen", "2h"])
@pytest.mark.parametrize("name", sorted(SCAN_MESHES))
def test_locate_many_matches_whole_mesh_scan(name, width, monkeypatch):
    """The grid only narrows the candidates: at any cell width, each point
    goes to the lowest-index simplex of the whole mesh that holds it."""
    monkeypatch.setattr("hjbsl.mesh.CELL_WIDTH", width)
    m = copy.copy(SCAN_MESHES[name])
    m._build_cells()
    pts = _scan_points(m)
    simplex, bary = m.locate_many(pts)
    compared = 0
    for x, t, b in zip(pts, simplex, bary):
        ref = m._scan(x)
        if ref is None:
            continue
        assert t == ref[0], x
        assert np.max(np.abs(b - ref[1])) <= 1e-12
        compared += 1
    assert compared >= 0.9 * len(pts)


def _miss_point(m):
    """The vertex of largest first coordinate moved 5e-10 further along it:
    in the closed domain (TOL_BOUNDARY = 1e-9) but farther off the polygon
    than BARY_TOL reaches, so no grid candidate holds it."""
    x = m.vertices[m.vertices[:, 0].argmax()].copy()
    x[0] += 5e-10
    return x


@pytest.mark.parametrize("name", sorted(SCAN_MESHES))
def test_interpolation_weights_match_locate_many(name):
    """The one-point grid pass picks locate_many's simplex and weights, bit
    for bit, and so does the whole-mesh scan wherever it finds a simplex."""
    m, dom = SCAN_MESHES[name], SCAN_DOMAINS[name]
    miss = _miss_point(m)
    assert m._scan(miss) is None
    pts = np.concatenate([_scan_points(m), [miss]])
    # moved boundary vertices may leave the closed domain
    pts = pts[dom.signed_distance_many(pts) <= TOL_BOUNDARY]
    simplex, bary = m.locate_many(pts)
    scanned = 0
    for x, t, b in zip(pts, simplex, bary):
        verts, w = m._point_weights(x.tolist())
        assert np.array_equal(verts, m.simplices[t]), x
        assert np.array_equal(w, b), x
        ref = m._scan(x)
        if ref is not None:
            assert ref[0] == t and np.array_equal(ref[1], b), x
            scanned += 1
    assert scanned >= 0.9 * len(pts)
    with pytest.raises(OutsideDomain):
        query(m, dom, np.zeros(m.n_vertices), m.vertices.max(axis=0) + m.mesh_size)


# a barycentric before the clip: a clipped negative, an exact zero of
# either sign, or a magnitude from 1e-12 to 1e3
_BARY_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-12, 2)))


@given(st.integers(2, 3).flatmap(
    lambda n: st.lists(st.lists(_BARY_ENTRY, min_size=n, max_size=n)
                       .filter(lambda row: max(row) > 0.0), min_size=1, max_size=30)))
@settings(max_examples=300, deadline=None)
def test_clip_normalize_forms_agree_bitwise(rows):
    """The one-point clip and renormalization in Python floats, the batch's
    plane-by-plane form on a whole batch and on one row (the whole-mesh
    scan's), and numpy's own row sum all give the same bits.  Each rests on
    numpy adding a row of 2 or 3 entries left to right; a numpy that sums
    such rows in another order fails here."""
    lam = np.array(rows)
    clipped = np.maximum(lam, 0.0)
    numpy_sum = clipped / clipped.sum(axis=-1, keepdims=True)
    batch = _clip_normalize(lam.T).T
    one_row = np.array([_clip_normalize(row) for row in lam])
    python = np.array([_clip_normalize_one(row) for row in rows])
    for got in (batch, one_row, python):
        assert got.dtype == np.float64 and got.shape == lam.shape
        assert got.tobytes() == numpy_sum.tobytes()


def test_one_point_query_counts_per_layer(monkeypatch):
    """A query inside a grid cell makes one Mesh._point_weights call and no
    Mesh._locate_miss call, a grid miss one of each; the miss goes to the
    two scans without a second grid pass."""
    bench = get_benchmark("test1_eps", eps=0.05)
    m = build_mesh_for(bench, 0.1)
    vf = sweep(bench.problem, m, SchemeParams(dt=0.1, c_bar=bench.c_bar))
    calls = {"_point_weights": 0, "_locate_miss": 0, "_locate_one": 0, "_scan": 0}

    def counted(name):
        method = getattr(Mesh, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Mesh, name, counted(name))
    # a miss off the polygon makes one grid-cell pass and two whole-mesh
    # scans, the second at the nearest boundary-face point
    for x, n_fallback, n_scans in (([0.37], 0, 0), (m.vertices[4], 0, 0),
                                   (_miss_point(m), 1, 2)):
        calls.update(dict.fromkeys(calls, 0))
        vf(0.0, x)
        assert calls == {"_point_weights": 1, "_locate_miss": n_fallback, "_locate_one": 1,
                         "_scan": n_scans}, x


@pytest.mark.parametrize("name", sorted(LOC_MESHES))
def test_boundary_edges_match_face_count(name):
    m = LOC_MESHES[name]
    # reference: count every face in a dict, keep the faces seen once in
    # order of first occurrence
    faces = {}
    for simp in m.simplices:
        for k in range(m.dim + 1):
            f = tuple(sorted(int(v) for j, v in enumerate(simp) if j != k))
            faces[f] = faces.get(f, 0) + 1
    expected = np.array([f for f, cnt in faces.items() if cnt == 1], dtype=int)
    assert np.array_equal(m._boundary_edges, expected)


@pytest.mark.parametrize("bench", ["test1_eps", "test2_oblique", "test3_exit"])
def test_operator_accepts_every_built_in_mesh(bench):
    """Every built-in mesh discretizes its benchmark's domain: its vertices in
    the closed domain and its boundary faces on the boundary."""
    b = get_benchmark(bench, eps=0.05)
    for dx in np.geomspace(0.02, 0.4, 12):
        Operator(b.problem, build_mesh_for(b, float(dx)), SchemeParams(dt=0.1, c_bar=b.c_bar))


@pytest.mark.parametrize("bench", ["test1_eps", "test2_oblique", "test3_exit"])
def test_location_grids_stay_well_under_the_cell_cap(bench):
    """Every built-in mesh, the benchmark workloads' meshes (dx 0.001 on
    test1, 0.125 on test2, 0.1 on test3) among them, needs at most 4 grid
    cells per simplex, a sixteenth of the cap."""
    b = get_benchmark(bench, eps=0.05)
    for dx in [*np.geomspace(0.02, 0.4, 12), {"test1_eps": 0.001, "test2_oblique": 0.125,
                                              "test3_exit": 0.1}[bench]]:
        mesh = build_mesh_for(b, float(dx))
        assert len(mesh._cell_table) <= 4 * len(mesh.simplices) <= (
            MAX_CELLS_PER_SIMPLEX / 16 * len(mesh.simplices))
