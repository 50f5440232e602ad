"""Batch driver: refinement studies, error tables, solution dumps.

CSV layout is fixed (dx, dt, e_inf, e_1, p_inf, p_1, max_u, wall_seconds)
so downstream tooling can diff runs; everything except wall_seconds is
deterministic for identical configs.
"""
from __future__ import annotations

import argparse
import configparser
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, ConfigError, HJBError
from .geometry import real_array
from .mesh import (
    Mesh,
    build_disk_mesh,
    build_interval_mesh,
    build_rect_with_hole_mesh,
)
from .problems import Benchmark, get_benchmark
from .scheme import SchemeParams, ValueFunction, sweep

CSV_COLUMNS = ["dx", "dt", "e_inf", "e_1", "p_inf", "p_1", "max_u", "wall_seconds"]
# the keys save_config writes and load_config reads
STUDY_KEYS = {"benchmark", "eps", "dx_ladder", "dt_rule", "c_bar", "n_a"}


@dataclass
class StudyConfig:
    benchmark: str
    eps: float = 0.0
    dx_ladder: list = field(default_factory=lambda: [0.05, 0.025])
    dt_rule: str = "dx"          # dx | dx/2
    c_bar: float = None          # benchmark default when None
    n_a: int = 16
    out: str = None

    def __post_init__(self):
        ladder = self.dx_ladder
        if not (isinstance(ladder, (list, tuple)) and ladder
                and all(isinstance(dx, numbers.Real) and not isinstance(dx, bool)
                        and 0 < dx < math.inf for dx in ladder)):
            raise ConfigError(f"dx ladder must be a nonempty list of positive finite "
                              f"real numbers, got {ladder!r}")
        if self.dt_rule not in ("dx", "dx/2"):
            raise ConfigError(f"unknown dt rule {self.dt_rule!r}")

    def dt_for(self, dx: float) -> float:
        return dx if self.dt_rule == "dx" else 0.5 * dx


@dataclass
class LevelResult:
    dx: float
    dt: float
    e_inf: float
    e_1: float
    p_inf: float = None
    p_1: float = None
    max_u: float = None
    wall_seconds: float = None


@dataclass
class ErrorReport:
    benchmark: str
    levels: list


def build_mesh_for(benchmark: Benchmark, dx: float) -> Mesh:
    dom = benchmark.problem.domain
    if dom.kind == "interval":
        return build_interval_mesh(dom.a, dom.b, dx)
    if dom.kind == "disk":
        return build_disk_mesh(dom.center, dom.radius, dx)
    if dom.kind == "rect_with_hole":
        return build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                         dom.hole_radius, dx)
    raise ConfigError(f"no mesher for domain kind {dom.kind!r}")


def solution_errors(vf: ValueFunction, exact) -> tuple:
    """E_inf at vertices and measure-weighted E_1 at the reporting time."""
    mesh = vf.mesh
    idx = vf.report_index
    t = vf.times[idx]
    U = vf.values[idx]
    diff = U - real_array(exact(t, mesh.vertices), "exact_solution", (mesh.n_vertices,))
    e_inf = float(np.max(np.abs(diff)))
    if mesh.dim == 1:
        e_1 = float(mesh.mesh_size * np.sum(np.abs(diff)))
    else:
        bcs = mesh.barycenters()
        # the P1 value at a barycenter is the mean of its simplex's vertex values
        vals = U[mesh.simplices].mean(axis=1) - real_array(
            exact(t, bcs), "exact_solution", (len(bcs),))
        e_1 = float(np.sum(mesh.simplex_measures() * np.abs(vals)))
    return e_inf, e_1


def run_study(config: StudyConfig) -> ErrorReport:
    bench = get_benchmark(config.benchmark, eps=config.eps, n_a=config.n_a)
    if bench.problem.exact_solution is None:
        raise ConfigError(f"benchmark {config.benchmark!r} has no exact "
                          "solution; use the solve command")
    c_bar = bench.c_bar if config.c_bar is None else config.c_bar
    levels = []
    for dx in config.dx_ladder:
        dt = config.dt_for(dx)
        start = time.perf_counter()
        try:
            mesh = build_mesh_for(bench, dx)
            vf = sweep(bench.problem, mesh, SchemeParams(dt=dt, c_bar=c_bar))
        except HJBError as exc:
            raise type(exc)(f"level dx={dx:g}: {exc}") from exc
        e_inf, e_1 = solution_errors(vf, bench.problem.exact_solution)
        levels.append(LevelResult(
            dx=dx, dt=dt, e_inf=e_inf, e_1=e_1,
            max_u=float(np.max(np.abs(vf.values))),
            wall_seconds=time.perf_counter() - start))
    for prev, cur in zip(levels, levels[1:]):
        ratio = math.log(prev.dx / cur.dx)
        if prev.e_inf > 0 and cur.e_inf > 0:
            cur.p_inf = math.log(prev.e_inf / cur.e_inf) / ratio
        if prev.e_1 > 0 and cur.e_1 > 0:
            cur.p_1 = math.log(prev.e_1 / cur.e_1) / ratio
    return ErrorReport(benchmark=config.benchmark, levels=levels)


def _fmt(v, digits=6):
    return "" if v is None else f"{v:.{digits}g}"


def emit_report(report: ErrorReport, fmt: str, path=None):
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for lv in report.levels:
            lines.append(",".join(_fmt(getattr(lv, c)) for c in CSV_COLUMNS))
        text = "\n".join(lines) + "\n"
    elif fmt == "table":
        head = f"{'dx':>10} {'dt':>10} {'E_inf':>11} {'E_1':>11} " \
               f"{'p_inf':>6} {'p_1':>6}"
        rows = [f"# {report.benchmark}", head]
        for lv in report.levels:
            rows.append(f"{lv.dx:>10.4g} {lv.dt:>10.4g} {lv.e_inf:>11.3e} "
                        f"{lv.e_1:>11.3e} {_fmt(lv.p_inf, 3):>6} "
                        f"{_fmt(lv.p_1, 3):>6}")
        text = "\n".join(rows) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def dump_solution(vf: ValueFunction, time_index: int, path):
    if not 0 <= time_index < len(vf.values):
        raise BadParams(f"time index {time_index} out of range")
    with open(path, "w", encoding="ascii") as fh:
        for x, v in zip(vf.mesh.vertices, vf.values[time_index]):
            coords = " ".join(repr(float(c)) for c in x)
            fh.write(f"{coords} {float(v)!r}\n")


def save_config(config: StudyConfig, path):
    cp = configparser.ConfigParser()
    cp["study"] = {
        "benchmark": config.benchmark,
        "eps": repr(config.eps),
        "dx_ladder": " ".join(repr(dx) for dx in config.dx_ladder),
        "dt_rule": config.dt_rule,
        "c_bar": "" if config.c_bar is None else repr(config.c_bar),
        "n_a": str(config.n_a),
    }
    with open(path, "w", encoding="ascii") as fh:
        cp.write(fh)


def load_config(path) -> StudyConfig:
    cp = configparser.ConfigParser()
    try:
        found = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not found:
        raise ConfigError(f"cannot read config {path}")
    if not cp.has_section("study"):
        raise ConfigError(f"no [study] section in {path}")
    s = cp["study"]
    unknown = sorted(set(s) - STUDY_KEYS)
    if unknown:
        raise ConfigError(f"unknown [study] keys in {path}: {', '.join(unknown)}")
    missing = sorted({"benchmark", "dx_ladder"} - set(s))
    if missing:
        raise ConfigError(f"missing [study] keys in {path}: {', '.join(missing)}")
    c_bar = s.get("c_bar", "")
    try:
        numbers = dict(
            eps=float(s.get("eps", "0")),
            dx_ladder=[float(v) for v in s["dx_ladder"].split()],
            c_bar=None if not c_bar else float(c_bar),
            n_a=int(s.get("n_a", "16")),
        )
    except ValueError as exc:
        raise ConfigError(f"bad number in [study] of {path}: {exc}") from exc
    return StudyConfig(benchmark=s["benchmark"], dt_rule=s.get("dt_rule", "dx"),
                       **numbers)


def _add_common(p):
    p.add_argument("--benchmark", default="test1_eps")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--cbar", type=float, default=None)
    p.add_argument("--na", type=int, default=16)
    p.add_argument("--out", default=None)


def _config_from_args(args) -> StudyConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
        cfg.out = args.out
        return cfg
    ladder = []
    for entry in args.dx_ladder.split(","):
        try:
            ladder.append(float(entry))
        except ValueError:
            raise ConfigError(f"--dx-ladder entry {entry!r} is not a number") from None
    return StudyConfig(
        benchmark=args.benchmark, eps=args.eps, dx_ladder=ladder,
        dt_rule=args.dt_rule, c_bar=args.cbar,
        n_a=args.na, out=args.out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hjbsl",
                                 description="semi-Lagrangian HJB solver")
    sub = ap.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="refinement ladder with error table")
    _add_common(st)
    st.add_argument("--dx-ladder", default="0.05,0.025,0.0125")
    st.add_argument("--dt-rule", choices=["dx", "dx/2"], default="dx")
    st.add_argument("--format", choices=["csv", "table"], default="table")
    st.add_argument("--config", default=None)

    sv = sub.add_parser("solve", help="single sweep and solution dump")
    _add_common(sv)
    sv.add_argument("--dx", type=float, required=True)
    sv.add_argument("--dt", type=float, default=None)
    sv.add_argument("--time-index", type=int, default=-1)

    vf_p = sub.add_parser("verify", help="quick property checks")
    vf_p.add_argument("--seed", type=int, default=0)

    args = ap.parse_args(argv)
    try:
        if args.command == "study":
            config = _config_from_args(args)
            report = run_study(config)
            if config.out:
                os.makedirs(config.out, exist_ok=True)
                emit_report(report, "csv", os.path.join(config.out, "report.csv"))
                emit_report(report, "table", os.path.join(config.out, "report.txt"))
                save_config(config, os.path.join(config.out, "study.cfg"))
            emit_report(report, args.format)
        elif args.command == "solve":
            bench = get_benchmark(args.benchmark, eps=args.eps, n_a=args.na)
            c_bar = bench.c_bar if args.cbar is None else args.cbar
            dt = args.dt if args.dt is not None else args.dx
            mesh = build_mesh_for(bench, args.dx)
            vf = sweep(bench.problem, mesh, SchemeParams(dt=dt, c_bar=c_bar))
            idx = args.time_index
            if idx < 0:
                idx += len(vf.values)
            out = args.out or "solution.txt"
            dump_solution(vf, idx, out)
            print(f"wrote {out} ({mesh.n_vertices} vertices, "
                  f"t={vf.times[idx]:g})")
        elif args.command == "verify":
            return _verify(args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HJBError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0


def _verify(seed: int) -> int:
    """Fast sanity slice of the property suites: the disk's projection
    along the normal and along the rotated field, then every row of one
    assembled operator per boundary kind: test1's 1D one, test2_oblique's
    with oblique reflection and test3_exit's with Dirichlet absorption;
    exit 0 iff all pass.  ConfigError for a negative seed."""
    from .geometry import Disk, NormalField, RotatedNormalField, oblique_projection_many
    from .scheme import Operator

    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    failures = []

    disk = Disk((0.0, 0.0), 1.0)
    r = rng.uniform(0.6, 1.4, 500)
    th = rng.uniform(0.0, 2.0 * math.pi, 500)
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])
    for label, gamma in (("normal", NormalField(disk)),
                         ("oblique", RotatedNormalField(disk, math.pi / 6))):
        pr = oblique_projection_many(disk, gamma, None, X, r_max=math.inf)
        _report(f"{label} projection residual <= 1e-10", pr.residual.max() <= 1e-10,
                failures)

    for name, dx, dt in (("test1_eps", 0.05, 0.05), ("test2_oblique", 0.25, 0.25),
                         ("test3_exit", 0.2, 0.1)):
        bench = get_benchmark(name, eps=0.05)
        mesh = build_mesh_for(bench, dx)
        op = Operator(bench.problem, mesh, SchemeParams(dt=dt, c_bar=bench.c_bar))
        U = rng.uniform(-1, 1, mesh.n_vertices)
        V = U + rng.uniform(0, 1, mesh.n_vertices)
        SU, _, (_, probs) = op.apply(0, U)
        # a row's mass: its transition probabilities plus its absorbed branches
        mass = probs.sum(axis=0) + op.rows(0).dirichlet.mean(axis=1)
        _report(f"{name} dx {dx}: transition row sums to 1",
                np.abs(mass - 1.0).max() <= 1e-12, failures)
        _report(f"{name} dx {dx}: one-step operator monotone",
                np.all(SU <= op.apply(0, V)[0] + 1e-12), failures)

    return 1 if failures else 0


def _report(label: str, ok: bool, failures: list):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


if __name__ == "__main__":
    sys.exit(main())
