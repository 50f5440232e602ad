"""One workload in one process: warm-up, set-up, timed repetitions, gate.

The end-to-end run calls only get_benchmark, build_*_mesh, SchemeParams,
sweep, ValueFunction (call, values, report_index, times), policy_cost and
estimate_sojourn.  The traced run makes the same calls with the solver's
layer boundaries wrapped from here (see install_boundaries).
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import gate
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PER_REP = 3          # set-up builds timed in each repetition
QUERY_PASSES = 3           # query passes timed in each repetition
CHAIN_PASSES = 2           # Markov-chain phases timed in each repetition
# Host speed: a fixed kernel of small numpy calls and Python arithmetic (the
# solver's own mix, without the solver) is timed between consecutive phases
# of each repetition.  Each end-to-end time sample is reported at the
# reference speed: raw * CAL_REFERENCE_S / mean of the two kernel times that
# bracket it.  On a shared 2-core host the speed changed by up to 1.7x
# between runs and every few seconds within some runs, and the phases of a
# repetition moved with the kernel; see README.md.
CAL_ITERS = 8000
CAL_REFERENCE_S = 0.03
_CAL_MATRIX = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
MIN_REPS = 3
MIN_TRACED_REPS = 1
WARMUP_POLICY = ("one untimed sweep plus 100 queries on the workload's problem "
                 "at twice the mesh size and time step, before anything is timed")
COUNT_SUFFIXES = (".calls", ".points", ".exits", ".reflections",
                  ".dirichlet_hits", ".fallback_scans")
RATIO_SUFFIXES = ("_per_point", "_per_exit", "_per_node_step")


# --------------------------------------------------------------------------
# Layer boundaries

def install_boundaries(tracer: tr.Tracer, problem) -> None:
    """Wrap every boundary where the solver looks its name up."""
    from hjbsl import geometry, markov, mesh, scheme

    as_point = geometry.as_point

    def locate_counts(args, result):
        # a fallback scan ran iff the hit is not among the grid-cell candidates
        cand = args[0]._candidates(as_point(args[1]))
        miss = cand is None or result is None or result.simplex not in cand
        return {"fallback_scans": int(miss)}

    def classify_counts(args, result):
        exited = bool(getattr(result, "exited", False))
        dirichlet = bool(getattr(result, "dirichlet", False))
        return {"exits": int(exited), "dirichlet_hits": int(dirichlet),
                "reflections": int(exited and not dirichlet)}

    has_cells = hasattr(mesh.Mesh, "_candidates")
    if not has_cells:
        tracer.absent.add("mesh.fallback_scans")
    tracer.patch(mesh.Mesh, "interpolation_weights", "mesh.interpolation_weights")
    tracer.patch(mesh.Mesh, "try_locate", "mesh.locate",
                 count=locate_counts if has_cells else None)
    tracer.patch(mesh.Mesh, "project", "mesh.project")

    domains = [c for c in vars(geometry).values()
               if isinstance(c, type) and issubclass(c, geometry.Domain)
               and c is not geometry.Domain and "signed_distance" in c.__dict__]
    for cls in domains:
        tracer.patch(cls, "signed_distance", "geometry.signed_distance")
    if not domains:
        tracer.absent.add("geometry.signed_distance")
    tracer.patch(scheme, "oblique_projection", "geometry.oblique_projection")

    tracer.patch(scheme, "discrete_characteristics", "scheme.characteristics",
                 count=lambda args, result: {"points": len(result)})
    tracer.patch(scheme, "_classify", "scheme.classify", count=classify_counts)
    tracer.patch(scheme, "build_node_table", "scheme.table_build", keep_span=True)
    node_table = getattr(scheme, "NodeTable", None)
    if node_table is None:
        tracer.absent.add("scheme.apply")
    else:
        tracer.patch(node_table, "apply", "scheme.apply")
    tracer.patch(markov, "_classify", "markov.classify")

    tracer.patch(problem, "f", "problems.f")
    tracer.patch(problem, "g", "problems.g")
    tracer.patch(problem, "mu", "problems.dynamics")
    tracer.patch(problem, "sigma", "problems.dynamics")
    tracer.patch(problem, "psi", "problems.psi")


def layer_metrics(sweep_d: dict, chain_d: dict, node_step_pairs: int) -> dict:
    """Per-layer numbers of one traced repetition.

    sweep_d and chain_d are the tracer deltas over the sweep and over the
    Markov-chain phase; counts are per sweep, times in seconds.
    """
    empty = tr.Stat()

    def st(d, name):
        return d.get(name, empty)

    iw, loc, proj = (st(sweep_d, n) for n in (
        "mesh.interpolation_weights", "mesh.locate", "mesh.project"))
    sd, op = (st(sweep_d, n) for n in (
        "geometry.signed_distance", "geometry.oblique_projection"))
    ch, cl, tb, ap, sw = (st(sweep_d, n) for n in (
        "scheme.characteristics", "scheme.classify", "scheme.table_build",
        "scheme.apply", "scheme.sweep"))
    f, g, dyn, psi = (st(sweep_d, n) for n in (
        "problems.f", "problems.g", "problems.dynamics", "problems.psi"))
    pc, so, mc = (st(chain_d, n) for n in (
        "markov.policy_cost", "markov.estimate_sojourn", "markov.classify"))
    exits = cl.extra.get("exits", 0)
    return {
        "mesh.interpolation_weights.calls": iw.calls,
        "mesh.interpolation_weights.s": iw.total,
        "mesh.locate.calls": loc.calls,
        "mesh.locate.self_s": loc.self_time,
        "mesh.project.calls": proj.calls,
        "mesh.project.self_s": proj.self_time,
        "mesh.locate_per_point": loc.calls / iw.calls if iw.calls else 0.0,
        "mesh.fallback_scans": loc.extra.get("fallback_scans", 0),
        "geometry.signed_distance.calls": sd.calls,
        "geometry.signed_distance.self_s": sd.self_time,
        "geometry.oblique_projection.calls": op.calls,
        "geometry.oblique_projection.self_s": op.self_time,
        "geometry.signed_distance_per_exit": sd.calls / exits if exits else 0.0,
        "scheme.characteristics.points": ch.extra.get("points", 0),
        "scheme.characteristics.self_s": ch.self_time,
        "scheme.classify.calls": cl.calls,
        "scheme.classify.self_s": cl.self_time,
        "scheme.classify.exits": exits,
        "scheme.classify.reflections": cl.extra.get("reflections", 0),
        "scheme.classify.dirichlet_hits": cl.extra.get("dirichlet_hits", 0),
        "scheme.table_build.calls": tb.calls,
        "scheme.table_build.s": tb.total,
        "scheme.apply.calls": ap.calls,
        "scheme.apply.self_s": ap.self_time,
        "scheme.sweep.s": sw.total,
        "scheme.sweep.self_s": sw.self_time,
        "problems.f.calls": f.calls,
        "problems.f.s": f.total,
        "problems.g.calls": g.calls,
        "problems.g.s": g.total,
        "problems.dynamics.calls": dyn.calls,
        "problems.dynamics.s": dyn.total,
        "problems.psi.calls": psi.calls,
        "problems.f_per_node_step": f.calls / node_step_pairs,
        "markov.policy_cost.calls": pc.calls,
        "markov.policy_cost.s": pc.total,
        "markov.estimate_sojourn.s": so.total,
        "markov.classify.calls": mc.calls,
    }


def unit_of(name: str) -> str:
    if name.endswith(RATIO_SUFFIXES):
        return "ratio"
    return "count" if name.endswith(COUNT_SUFFIXES) else "s"


# --------------------------------------------------------------------------
# Phases

class Run:
    """Seeded inputs, the solved problem, and the gate's operation count."""

    def __init__(self, hjbsl, w: wl.Workload, seed: int, ref: dict, tracer):
        self.hjbsl, self.w, self.ref, self.tracer = hjbsl, w, ref, tracer
        self.ops = gate.Ops()
        self.pts = wl.query_points(w, seed)
        self.mc_seed = wl.mc_seed(seed)
        self.bench = self.mesh = self.params = None
        self.policy = self.starts = self.query_ref = None

    def warm_up(self) -> None:
        bench, mesh = wl.make_problem(self.hjbsl, self.w, self.w.warmup_dx)
        params = self.hjbsl.SchemeParams(dt=2.0 * self.w.dt, c_bar=bench.c_bar)
        vf = self.hjbsl.sweep(bench.problem, mesh, params)
        t = vf.times[vf.report_index]
        for x in self.pts[:100]:
            vf(t, x)

    def build(self) -> float:
        """One timed problem construction plus mesh build, checked."""
        span = self.tracer.span
        t0 = time.perf_counter()
        with span("setup"):
            bench, mesh = wl.make_problem(self.hjbsl, self.w, self.w.dx,
                                          mesh_span=span("mesh.build"))
        elapsed = time.perf_counter() - t0
        ok = gate.same_mesh(gate.mesh_fingerprint(mesh), self.ref["mesh"])
        self.ops.record("setup: mesh differs from the reference", ok)
        if self.bench is None:
            self._prepare(bench, mesh)
        return elapsed

    def _prepare(self, bench, mesh) -> None:
        """Keep the first problem and mesh; derive the fixed chain inputs."""
        self.bench, self.mesh = bench, mesh
        self.params = self.hjbsl.SchemeParams(dt=self.w.dt, c_bar=bench.c_bar)
        self.policy = wl.steering_policy(bench.problem, mesh, self.w)
        self.starts = wl.start_nodes(mesh, self.w)
        self.query_ref = gate.p1_reference(mesh.vertices, mesh.simplices,
                                           self.ref["values"], self.pts)

    def solve(self):
        with self.tracer.span("scheme.sweep"):
            t0 = time.perf_counter()
            vf = self.hjbsl.sweep(self.bench.problem, self.mesh, self.params)
            elapsed = time.perf_counter() - t0
        U = vf.values[vf.report_index]
        t = float(vf.times[vf.report_index])
        ok = (gate.max_abs_diff(U, self.ref["values"]) <= gate.TOL
              and abs(t - self.ref["report_time"]) <= gate.TOL)
        self.ops.record("sweep: nodal values differ from the reference", ok)
        if self.w.e_inf_band is not None:
            e_inf = float(np.max(np.abs(U - wl.exact_values(self.w, t, self.mesh.vertices))))
            lo, hi = self.w.e_inf_band
            self.ops.record(f"sweep: e_inf {e_inf:.4g} outside [{lo:.4g}, {hi:.4g}]",
                            lo <= e_inf <= hi)
        return vf, elapsed

    def query(self, vf) -> float:
        t = vf.times[vf.report_index]
        t0 = time.perf_counter()
        q = [vf(t, x) for x in self.pts]
        elapsed = time.perf_counter() - t0
        good = np.abs(np.asarray(q, dtype=float) - self.query_ref) <= gate.TOL
        n_bad = len(q) - int(np.count_nonzero(good))
        self.ops.record("query: values differ from the P1 reference", n_bad == 0,
                        n=len(q), n_failed=n_bad)
        return elapsed

    def chain(self) -> float:
        """Exact and Monte Carlo policy_cost from each start, then sojourn."""
        hj, span, pr = self.hjbsl, self.tracer.span, self.bench.problem
        pol = self.policy

        def policy(m, i):
            return pol[i]

        k0 = self.ref["chain_k"]
        t0 = time.perf_counter()
        exact, mcs = [], []
        for i in self.starts:
            with span("markov.policy_cost"):
                exact.append(hj.policy_cost(pr, self.mesh, policy, k0, i, self.params))
        for i in self.starts:
            with span("markov.policy_cost"):
                mcs.append(hj.policy_cost(pr, self.mesh, policy, k0, i, self.params,
                                          mode="monte_carlo",
                                          n_paths=self.w.mc_paths, seed=self.mc_seed))
        with span("markov.estimate_sojourn"):
            soj, soj_se = hj.estimate_sojourn(pr, self.mesh, policy, self.params,
                                              n_paths=self.w.sojourn_paths,
                                              seed=self.mc_seed)
        elapsed = time.perf_counter() - t0
        ref = self.ref["policy_cost_exact"]
        for j, (J, (mean, se)) in enumerate(zip(exact, mcs)):
            self.ops.record(f"policy_cost exact from start {j}: {J!r} vs {ref[j]!r}",
                            abs(J - ref[j]) <= gate.TOL)
            self.ops.record(f"policy_cost monte_carlo from start {j}: "
                            f"{mean:.6g} +- {se:.3g} vs {ref[j]:.6g}",
                            gate.mc_within(mean, se, ref[j]))
        self.ops.record(f"estimate_sojourn {soj!r} outside [0, n_steps]",
                        math.isfinite(soj) and math.isfinite(soj_se)
                        and 0.0 <= soj <= self.ref["n_steps"])
        return elapsed


def _median(xs) -> float:
    return float(statistics.median(xs))


def calibrate() -> float:
    """Wall time of the fixed host-speed kernel (touches no solver code)."""
    v = np.ones(3)
    acc = 0.0
    slots = {}
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        v = _CAL_MATRIX @ v
        v /= v.sum()
        acc += math.sqrt(i + 1.0) * float(v[0])
        slots[i & 63] = acc
    return time.perf_counter() - t0


def _window_done(n_reps: int, min_reps: int, start: float, rep_start: float,
                 seconds: float) -> bool:
    """Stop once min_reps ran and another repetition would overrun."""
    now = time.perf_counter()
    return n_reps >= min_reps and (now - start) + (now - rep_start) > seconds


def run_untraced(run: Run, seconds: float) -> tuple:
    run.warm_up()
    run.build()
    names = ("setup_s", "solve_s", "query_s", "policy_eval_s")
    raw = {name: [] for name in names}
    scaled = {name: [] for name in names}
    cal = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        c0 = calibrate()
        setups = [run.build() for _ in range(SETUP_PER_REP)]
        c1 = calibrate()
        vf, solve = run.solve()
        c2 = calibrate()
        queries = [run.query(vf) for _ in range(QUERY_PASSES)]
        c3 = calibrate()
        chains = [run.chain() for _ in range(CHAIN_PASSES)]
        c4 = calibrate()
        del vf
        cal += [c0, c1, c2, c3, c4]
        for name, xs, before, after in (("setup_s", setups, c0, c1),
                                        ("solve_s", [solve], c1, c2),
                                        ("query_s", queries, c2, c3),
                                        ("policy_eval_s", chains, c3, c4)):
            raw[name] += xs
            scale = 2.0 * CAL_REFERENCE_S / (before + after)
            scaled[name] += [x * scale for x in xs]
        if _window_done(len(raw["solve_s"]), MIN_REPS, start, r0, seconds):
            break
    metrics = {name: (_median(scaled[name]), "s") for name in names}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, {"raw_s": raw, "calibration_s": cal,
                     "raw_median_s": {name: _median(xs) for name, xs in raw.items()}}


def run_traced(run: Run, seconds: float) -> tuple:
    """Each repetition: set-up builds and one untraced sweep, then a traced
    sweep, query pass and chain phase with the boundaries installed."""
    tracer = run.tracer
    plain = tr.NullTracer()
    run.warm_up()
    run.build()
    pr = run.bench.problem
    node_step_pairs = (run.mesh.n_vertices * run.ref["n_steps"]
                       * len(pr.controls_a) * len(pr.controls_b))
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for _ in range(SETUP_PER_REP):
            run.build()
        run.tracer = plain
        vf, solve = run.solve()
        untraced.append(solve)
        del vf
        run.tracer = tracer
        install_boundaries(tracer, pr)
        try:
            s0 = tracer.snapshot()
            vf, solve = run.solve()
            s1 = tracer.snapshot()
            run.query(vf)
            s2 = tracer.snapshot()
            run.chain()
            s3 = tracer.snapshot()
        finally:
            tracer.restore()
        del vf
        traced.append(solve)
        layers.append(layer_metrics(tr.delta(s1, s0), tr.delta(s3, s2),
                                    node_step_pairs))
        if _window_done(len(traced), MIN_TRACED_REPS, start, r0, seconds):
            break
    builds = [end - beg for name, beg, end, _ in tracer.spans if name == "mesh.build"]
    metrics = {name: (_median([lm[name] for lm in layers]), unit_of(name))
               for name in layers[0]}
    metrics["mesh.build.s"] = (_median(builds), "s")
    metrics["trace.overhead_s"] = (_median(traced) - _median(untraced), "s")
    t_origin = tracer.spans[0][1]
    spans = [(name, round(beg - t_origin, 6), round(end - t_origin, 6), parent)
             for name, beg, end, parent in tracer.spans
             if name not in ("setup", "mesh.build")]
    return metrics, {"untraced_solve_s": untraced, "traced_solve_s": traced,
                     "spans": spans}


# --------------------------------------------------------------------------
# Metadata

def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "hjbsl").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def metadata(run: Run, seed: int, seconds: float, trace: int, threads: dict,
             samples: dict) -> dict:
    import scipy
    pr = run.bench.problem
    return {
        "workload": run.w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(), "source_sha256": _source_sha256(),
        "thread_pools": threads, "warm_up": WARMUP_POLICY,
        "setup_per_rep": SETUP_PER_REP, "query_passes": QUERY_PASSES,
        "chain_passes": CHAIN_PASSES,
        "min_reps": MIN_REPS, "calibration_reference_s": CAL_REFERENCE_S,
        "sizes": {"vertices": run.mesh.n_vertices, "steps": run.ref["n_steps"],
                  "control_pairs": len(pr.controls_a) * len(pr.controls_b),
                  "query_points": len(run.pts)},
        "absent": sorted(getattr(run.tracer, "absent", ())),
        "failures": run.ops.messages[:20],
        "samples": samples,
    }
