#!/usr/bin/env python3
"""Benchmark of contactnewton: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload column_fast --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it wraps the layer functions and prints the per-layer metrics instead.
Human-readable lines come first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. After the timed steps the
run writes its full result (and, traced, its spans) under ``perfbench/out/``.
The exit code is 0 when every output check passes, 1 when one fails, and 2
when the program to benchmark is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("column_fast", "column_standard", "grasp_rotate"))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload is a deterministic scene")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="sets the planned step count through the workload's nominal step time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "contactnewton" / "__init__.py").is_file() or not (
        ROOT / "scenes"
    ).is_dir():
        print(f"perfbench: no contactnewton sources or scenes under {ROOT}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    workload = harness.WORKLOADS[args.workload]
    n_steps = harness.planned_steps(workload, args.seconds)
    res = harness.run_workload(workload, n_steps, trace=bool(args.trace))
    metrics = harness.metrics(res, bool(args.trace))
    correct = not res.checks

    n = len(res.step_times)
    pct = harness.tail(res.step_times)[0] if n else 100.0
    print(f"workload {workload.name}: {res.dofs} DOFs, contact groups "
          f"{min(res.groups, default=0)}-{max(res.groups, default=0)}, "
          f"{harness.SETUPS} cold set-ups + {n} timed steps "
          f"(planned {n_steps}), seed {args.seed} (no effect), "
          f"trace {args.trace}; step_ms_tail is p{pct:.1f}")
    raw = harness.end_to_end(res)
    probes = [t for burst in res.probe.bursts for t in burst]
    print(f"  times at the reference host speed (speed probe: median "
          f"{statistics.median(probes) if probes else float('nan'):.4f} s, reference "
          f"{harness.PROBE_REF_S} s); as measured: setup_s {raw['setup_s']:.4f} s, "
          f"step_ms_p50 {raw['step_ms_p50']:.2f} ms, step_ms_tail {raw['step_ms_tail']:.2f} ms")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']!r} {m['unit']}")
    table = harness.function_table(res.tracer) if args.trace else []
    if table:
        print(f"  {'span (times as measured)':38s} {'calls':>7s} {'total ms':>11s} "
              f"{'median ms':>10s} {'self ms':>11s}")
        for row in table:
            print(f"  {row['name']:38s} {row['calls']:7d} {row['total_ms']:11.2f} "
                  f"{row['median_ms']:10.4f} {row['self_ms']:11.2f}")
    for message in res.checks:
        print(f"CHECK FAILED: {message}")
    if res.failure:
        print(f"step failure ({res.failed} of {res.planned} planned steps failed):\n"
              f"{res.failure}", file=sys.stderr)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_applies": False,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "checks": res.checks,
        "planned_steps": res.planned,
        "failed_steps": res.failed,
        "timed_steps": n,
        "tail_percentile": pct,
        "dofs": res.dofs,
        "contact_groups": res.groups,
        "setup_s": res.setup_times,
        "step_s": res.step_times,
        "probe_bursts_s": res.probe.bursts,
        "probe_ref_s": harness.PROBE_REF_S,
        "unscaled": raw,
        "pen_after_m": res.pen_after,
        "metrics": metrics,
        "functions": table,
        "machine": {**harness.machine_info(),
                    "thread_cap": {var: os.environ[var] for var in THREAD_VARS}},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        spans = [s.as_list() for s in res.tracer.spans]
        Path(f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "step", "value"], "spans": spans}
        ))

    print(json.dumps({"correct": correct, "attempted": res.planned, "failed": res.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
