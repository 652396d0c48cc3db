"""Command-line entry points: run simulations, benchmark, verify properties.

Thread control: CONTACT_NEWTON_THREADS caps the BLAS/OpenMP pools backing
numpy and the sparse solver. It must take effect before numpy is imported,
so this module and the package root import nothing heavy; the command
handlers import what they need after the cap is set. `bench`
and `verify` pin the cap to 1 by default: timings stay clean, and the
verify lines do not depend on how a threaded BLAS splits its sums.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _apply_thread_cap(default: int | None = None) -> None:
    cap = os.environ.get("CONTACT_NEWTON_THREADS")
    if cap is None and default is not None:
        cap = str(default)
    if cap is None:
        return
    for var in _THREAD_ENV:
        os.environ.setdefault(var, cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactnewton",
        description="Implicit FEM contact solver with recursive constraint correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scene for N steps")
    p_run.add_argument("--scene", required=True, help="scene file (.scn, YAML)")
    p_run.add_argument("--steps", required=True, type=int, help="number of steps")
    p_run.add_argument("--scheme", choices=("single", "standard", "fast"),
                       help="override the scene's correction scheme")
    p_run.add_argument("--out", default="out", help="output directory (default: ./out)")

    p_bench = sub.add_parser("bench", help="standard-vs-fast benchmark matrix")
    p_bench.add_argument("--spec", required=True, help="bench spec file (YAML)")
    p_bench.add_argument("--out", default="out", help="output directory (default: ./out)")

    p_verify = sub.add_parser("verify", help="run the algebraic property checks")
    p_verify.add_argument("--scene", required=True, help="scene file (.scn, YAML)")
    return parser


def cmd_run(args) -> int:
    from dataclasses import replace

    from .scene import Simulation, load_scene, run

    config = load_scene(args.scene)
    if args.scheme:
        config = replace(config, newton=replace(config.newton, scheme=args.scheme))
    reports = run(Simulation(config), args.steps, out_dir=args.out)
    last = reports[-1]
    print(
        f"{len(reports)} steps of {os.path.basename(args.scene)} "
        f"({config.newton.scheme} scheme): {last.c_groups} contact groups, "
        f"final penetration {last.pen_after:.3e} m; outputs in {args.out}/"
    )
    return 0


def cmd_bench(args) -> int:
    from .bench import load_bench_spec, run_bench, write_bench_csv

    spec = load_bench_spec(args.spec)
    rows, summary = run_bench(spec)
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "bench.csv")
    write_bench_csv(rows, out_csv)
    print(summary)
    print(f"rows written to {out_csv}")
    return 0


def cmd_verify(args) -> int:
    from .scene import load_scene
    from .verify import run_verification

    config = load_scene(args.scene)
    results = run_verification(config)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_thread_cap(default=1 if args.command in ("bench", "verify") else None)
    from .errors import ContactNewtonError

    try:
        handler = {"run": cmd_run, "bench": cmd_bench, "verify": cmd_verify}[args.command]
        return handler(args)
    except (ContactNewtonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
