"""Write the gate's frozen references from the solver as it is now.

    python3 perfbench/freeze.py [workload ...]

Run from the root of a source checkout.  Rewrite references only when a
change is meant to alter the solver's outputs, and say so in the change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402


def reference(hjbsl, w: wl.Workload) -> dict:
    bench, mesh = wl.make_problem(hjbsl, w, w.dx)
    params = hjbsl.SchemeParams(dt=w.dt, c_bar=bench.c_bar)
    vf = hjbsl.sweep(bench.problem, mesh, params)
    U = vf.values[vf.report_index]
    t = float(vf.times[vf.report_index])
    n_steps = len(vf.values) - 1
    chain_k = 0 if w.chain_steps is None else n_steps - w.chain_steps
    pol = wl.steering_policy(bench.problem, mesh, w)
    costs = [hjbsl.policy_cost(bench.problem, mesh, lambda m, i: pol[i],
                               chain_k, i, params)
             for i in wl.start_nodes(mesh, w)]
    exact = wl.exact_values(w, t, mesh.vertices)
    return {
        "workload": w.name,
        "tolerance": gate.TOL,
        "mesh": gate.mesh_fingerprint(mesh),
        "n_steps": n_steps,
        "report_time": t,
        "e_inf": None if exact is None else float(np.max(np.abs(U - exact))),
        "chain_k": chain_k,
        "policy_cost_exact": [float(c) for c in costs],
        "values": [float(v) for v in U],
    }


def main(argv=None) -> int:
    import hjbsl
    names = (argv if argv is not None else sys.argv[1:]) or list(wl.WORKLOADS)
    gate.REF_DIR.mkdir(exist_ok=True)
    for name in names:
        ref = reference(hjbsl, wl.WORKLOADS[name])
        with open(gate.ref_path(name), "w", encoding="ascii") as fh:
            json.dump(ref, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(ref['values'])} values, e_inf {ref['e_inf']}, "
              f"policy_cost {ref['policy_cost_exact']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
