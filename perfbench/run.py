"""Outside-in benchmark of the hjbsl solver.

    python3 perfbench/run.py --workload disk_oblique --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the solver is imported from ./src,
nothing is installed.  Each run is one process and one workload:

1. warm-up: one untimed sweep and a few queries at twice the mesh size and
   time step (the first sweep in a fresh process can be markedly slower);
2. repetitions of three set-ups (problem construction plus mesh build), a
   sweep, three query passes and two Markov-chain phases, with a host-speed
   kernel timed between phases, until the next repetition would overrun
   --seconds, but at least three.

Every output is checked against perfbench/refs before its numbers count.
With --trace 0 the last stdout line holds the end-to-end metrics: medians
over repetitions, each sample scaled to the reference host speed by the
kernel times around it (raw samples are in the metadata).  With --trace 1 the solver's layer boundaries are
wrapped and it holds the per-layer metrics; each repetition then also times
one untraced sweep, for trace.overhead_s.  The line before it holds the run
metadata.  Exit code 2 when the solver source or a reference is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict:
    """Cap native thread pools at the core count (at most 2).

    Must run before numpy is first imported.
    """
    n = str(max(1, min(os.cpu_count() or 1, 2)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, n)
    return {var: os.environ[var] for var in THREAD_VARS}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workload_names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    threads = cap_threads()
    sys.path[:0] = [str(HERE), str(SRC)]
    import gate
    import workloads
    args = parse_args(argv, workloads.WORKLOADS)
    if not (SRC / "hjbsl" / "__init__.py").is_file():
        print(f"perfbench: no solver source at {SRC / 'hjbsl'}", file=sys.stderr)
        return 2
    if not gate.ref_path(args.workload).is_file():
        print(f"perfbench: missing reference {gate.ref_path(args.workload)}",
              file=sys.stderr)
        return 2
    import hjbsl
    import harness
    import tracer

    run = harness.Run(hjbsl, workloads.WORKLOADS[args.workload], args.seed,
                      gate.load_ref(args.workload),
                      tracer.Tracer() if args.trace else tracer.NullTracer())
    if args.trace:
        metrics, samples = harness.run_traced(run, args.seconds)
    else:
        metrics, samples = harness.run_untraced(run, args.seconds)
    meta = harness.metadata(run, args.seed, args.seconds, args.trace, threads,
                            samples)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
