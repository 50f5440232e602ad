"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""
import math

import numpy as np

from hjbsl.cli import StudyConfig, run_study
from hjbsl.geometry import Disk, RotatedNormalField, layer_distance, \
    oblique_projection
from hjbsl.markov import estimate_sojourn, transition_law
from hjbsl.mesh import build_disk_mesh, build_interval_mesh, \
    build_rect_with_hole_mesh
from hjbsl.problems import make_test1, make_test3
from hjbsl.scheme import SchemeParams, apply_S, consistency_residual, sweep

from test_markov import _tiny_instances, dp_oracle


def _check(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)
    assert ok, label


def _fitted_slope(dxs, errs):
    return float(np.polyfit(np.log(dxs), np.log(errs), 1)[0])


def test_criterion_1_interval_ladder_eps0():
    targets = [2.83e-2, 1.42e-2, 7.08e-3, 3.54e-3]
    ladder = [5e-2, 2.5e-2, 1.25e-2, 6.25e-3]
    report = run_study(StudyConfig(benchmark="test1_eps", eps=0.0,
                                   dx_ladder=ladder))
    errs = [lv.e_inf for lv in report.levels]
    ok_vals = all(abs(e - t) <= 0.25 * t for e, t in zip(errs, targets))
    slope = _fitted_slope(ladder, errs)
    _check(f"criterion 1: eps=0 ladder errors within 25% "
           f"(max dev {max(abs(e / t - 1) for e, t in zip(errs, targets)):.1%})"
           f", fitted rate {slope:.3f} in [0.85, 1.15]",
           ok_vals and 0.85 <= slope <= 1.15)


def test_criterion_2_interval_ladder_eps005():
    targets = [3.99e-2, 2.25e-2, 1.17e-2]
    ladder = [5e-2, 2.5e-2, 1.25e-2]
    report = run_study(StudyConfig(benchmark="test1_eps", eps=0.05,
                                   dx_ladder=ladder))
    errs = [lv.e_inf for lv in report.levels]
    rates = [lv.p_inf for lv in report.levels[1:]]
    ok_vals = all(abs(e - t) <= 0.35 * t for e, t in zip(errs, targets))
    ok_rates = all(0.7 <= p <= 1.4 for p in rates)
    _check(f"criterion 2: eps=0.05 ladder errors within 35%, rates "
           f"{[round(p, 2) for p in rates]} in [0.7, 1.4]",
           ok_vals and ok_rates)


def test_criterion_3_disk_neumann_ladder():
    targets = [2.73e-1, 1.24e-1, 5.55e-2]
    ladder = [2.5e-1, 1.25e-1, 6.25e-2]
    report = run_study(StudyConfig(benchmark="test2_neumann",
                                   dx_ladder=ladder, c_bar=0.25, n_a=16))
    errs = [lv.e_inf for lv in report.levels]
    factors = [max(e / t, t / e) for e, t in zip(errs, targets)]
    slope = _fitted_slope(ladder, errs)
    wall = report.levels[-1].wall_seconds
    _check(f"criterion 3: neumann errors within factor 2.5 "
           f"(max {max(factors):.2f}), fitted rate {slope:.3f} >= 0.8, "
           f"finest wall {wall:.0f}s < 300s",
           max(factors) <= 2.5 and slope >= 0.8 and wall < 300.0)


def test_criterion_4_disk_oblique_ladders():
    ladder = [2.5e-1, 1.25e-1, 6.25e-2]
    tables = {0.25: [3.06e-1, 1.56e-1, 8.10e-2],
              0.5: [2.94e-1, 1.49e-1, 7.55e-2]}
    ok = True
    detail = []
    for c_bar, targets in tables.items():
        report = run_study(StudyConfig(benchmark="test2_oblique",
                                       dx_ladder=ladder, c_bar=c_bar, n_a=16))
        errs = [lv.e_inf for lv in report.levels]
        factor = max(max(e / t, t / e) for e, t in zip(errs, targets))
        slope = _fitted_slope(ladder, errs)
        detail.append(f"c_bar={c_bar}: factor {factor:.2f}, rate {slope:.2f}")
        ok = ok and factor <= 2.5 and slope >= 0.6
    _check("criterion 4: oblique errors within factor 2.5, rates >= 0.6 "
           f"({'; '.join(detail)})", ok)


def test_criterion_5a_monotone_commutation():
    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.1)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        U = rng.uniform(-1.0, 1.0, mesh.n_vertices)
        V = U + rng.uniform(0.0, 1.0, mesh.n_vertices)
        c = rng.uniform(-5.0, 5.0)
        i = int(rng.integers(mesh.n_vertices))
        su = apply_S(bench.problem, mesh, U, 0, i, params)
        ok = ok and su <= apply_S(bench.problem, mesh, V, 0, i, params) + 1e-12
        ok = ok and abs(apply_S(bench.problem, mesh, U + c, 0, i, params)
                        - su - c) <= 1e-12
    _check("criterion 5a: monotonicity and commutation on 100 instances "
           "to 1e-12", ok)


def test_criterion_5b_dp_equivalence():
    mesh = build_interval_mesh(0.0, 1.0, 0.5)
    params = SchemeParams(dt=0.5, c_bar=0.2)
    worst = 0.0
    instances = _tiny_instances()
    for pr in instances:
        gap = np.max(np.abs(dp_oracle(pr, mesh, params)
                            - sweep(pr, mesh, params).values[0]))
        worst = max(worst, float(gap))
    _check(f"criterion 5b: sweep equals policy enumeration on "
           f"{len(instances)} instances (worst gap {worst:.1e} <= 1e-10)",
           worst <= 1e-10)


def test_criterion_5c_projection_and_layer():
    disk = Disk((0.0, 0.0), 1.0)
    gam = RotatedNormalField(disk, math.pi / 6)
    rng = np.random.default_rng(1)
    worst_res = 0.0
    for _ in range(10_000):
        r = rng.uniform(0.5 + 1e-6, 1.5 - 1e-6)
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        pr = oblique_projection(disk, gam, None, x)
        worst_res = max(worst_res, float(
            np.linalg.norm(x - pr.p - pr.d * gam(pr.p, None))))
    worst_layer = 0.0
    for _ in range(2000):
        delta = rng.uniform(0.05, 0.5)
        r = rng.uniform(1.0 - delta, 1.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        worst_layer = max(worst_layer, abs(
            abs(disk.signed_distance(x)) + layer_distance(disk, delta, x)
            - delta))
    _check(f"criterion 5c: projection residual {worst_res:.1e} <= 1e-10, "
           f"layer identity {worst_layer:.1e} <= 1e-12",
           worst_res <= 1e-10 and worst_layer <= 1e-12)


def test_criterion_5d_interpolation_and_rows():
    rng = np.random.default_rng(2)
    pts = []
    while len(pts) < 400:
        x = rng.uniform(-1.0, 1.0, size=2)
        if np.linalg.norm(x) <= 1.0:
            pts.append(x)
    dxs = [0.25, 0.125, 0.0625]
    errs = []
    for dx in dxs:
        m = build_disk_mesh((0.0, 0.0), 1.0, dx)
        nodal = np.sin(m.vertices[:, 0]) * np.sin(m.vertices[:, 1])
        P = np.array(pts)
        errs.append(np.abs(m._interpolate_rows(nodal, P)
                           - np.sin(P[:, 0]) * np.sin(P[:, 1])).max())
    slope = _fitted_slope(dxs, errs)

    bench = make_test1(0.05)
    mesh = build_interval_mesh(0.0, 1.0, 0.05)
    params = SchemeParams(dt=0.05, c_bar=bench.c_bar)
    worst_row = max(abs(transition_law(bench.problem, mesh, 0, i, 0.0, 0.0,
                                       params).sum() - 1.0)
                    for i in range(mesh.n_vertices))
    _check(f"criterion 5d: interpolation rate {slope:.2f} >= 1.8, "
           f"row-sum deviation {worst_row:.1e} <= 1e-12",
           slope >= 1.8 and worst_row <= 1e-12)


def test_criterion_5e_consistency_order():
    bench = make_test1(0.05)
    phi = (lambda x: float(np.atleast_1d(x)[0]) ** 2,
           lambda x: np.array([2.0 * float(np.atleast_1d(x)[0])]),
           lambda x: np.array([[2.0]]))
    dts = [1e-2, 5e-3, 2.5e-3]
    rs = [abs(consistency_residual(bench.problem, phi, 0, np.array([0.5]), 0.0, 0.0,
                                   SchemeParams(dt=dt, c_bar=bench.c_bar)))
          for dt in dts]
    slope = _fitted_slope(dts, rs)
    _check(f"criterion 5e: interior consistency rate {slope:.2f} >= 1.4",
           slope >= 1.4)


def test_criterion_5f_stability_and_sojourn():
    norms = []
    for dx in (0.05, 0.025, 0.0125):
        bench = make_test1(0.05)
        mesh = build_interval_mesh(0.0, 1.0, dx)
        vf = sweep(bench.problem, mesh,
                   SchemeParams(dt=dx, c_bar=bench.c_bar))
        norms.append(float(np.max(np.abs(vf.values))))
    growth = max(b / a for a, b in zip(norms, norms[1:]))

    scaled = []
    for dt in (4e-2, 1e-2, 2.5e-3):
        bench = make_test1(0.05)
        mesh = build_interval_mesh(0.0, 1.0, dt)
        est, _ = estimate_sojourn(bench.problem, mesh, lambda m, i: (0, 0),
                                  SchemeParams(dt=dt, c_bar=bench.c_bar),
                                  n_paths=500, seed=0)
        scaled.append(est * math.sqrt(dt))
    ratio = max(max(a / b, b / a) for a, b in zip(scaled, scaled[1:]))
    _check(f"criterion 5f: max-norm growth {growth - 1:+.2%} <= 1%, "
           f"sojourn*sqrt(dt) level ratio {ratio:.2f} <= 2.5",
           growth <= 1.01 and ratio <= 2.5)


def test_criterion_6_exit_problem_qualitative():
    bench = make_test3()
    dom = bench.problem.domain
    mesh = build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                     dom.hole_radius, 0.1)
    vf = sweep(bench.problem, mesh, SchemeParams(dt=0.05, c_bar=0.25))
    U = vf.values[vf.report_index]
    t = vf.times[vf.report_index]
    bound = 3.0 * 1.0 + 0.2
    doors_ok = all(
        vf(t, np.array([-1.0 + off, 0.0])) < vf(t, np.array([1.0 - off, 0.0]))
        for off in (0.1, 0.2))
    _check(f"criterion 6: exit solution in [0, {bound}] "
           f"(range [{U.min():.3f}, {U.max():.3f}]), cheaper near the "
           f"zero-cost door at matched offsets",
           U.min() >= 0.0 and U.max() <= bound and doors_ok)
