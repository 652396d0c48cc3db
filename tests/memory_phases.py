"""Resident memory around each phase of a scene's set-up, as the benchmark runs it.

    PYTHONPATH=src python tests/memory_phases.py scenes/bench_column.scn [--setups 3]
        [--divisions NX NY NZ]

Runs the set-up ``--setups`` times in one process, as ``perfbench`` does:
each time the scene is loaded and a new ``Simulation`` built while the
previous one is still alive, then its first step is made. Around each
phase it prints this process's peak resident memory (``ru_maxrss``) and,
where ``/proc/self/status`` exists, its resident memory now (``VmRSS``),
both in MB. The phases are the load, ``Simulation()``, the stiffness
assembly (``dynamics.assemble_stiffness``) and the factorization
(``linalg.Factorization``), both inside the first step, and the first step
itself. ``--divisions`` re-meshes the scene's procedural box. The script
reads only its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import resource
from dataclasses import replace
from pathlib import Path

from contactnewton import dynamics, linalg
from contactnewton.scene import OutputConfig, Simulation, load_scene, with_box_divisions

STATUS = Path("/proc/self/status")


def vm_rss_mb() -> float | None:
    """This process's resident memory now, in MB, or None without ``/proc``."""
    if not STATUS.is_file():
        return None
    for line in STATUS.read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0  # kB
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _mb(value) -> str:
    return "      -" if value is None else f"{value:7.1f}"


@contextlib.contextmanager
def phase(setup: int, name: str):
    """Print the memory before and after the block it wraps."""
    before = vm_rss_mb()
    yield
    print(f"setup {setup}  {name:14s} VmRSS {_mb(before)} -> {_mb(vm_rss_mb())} MB"
          f"   peak {peak_rss_mb():7.1f} MB", flush=True)


@contextlib.contextmanager
def traced(setup: list):
    """Wrap the assembly and the factorization in :func:`phase` lines,
    restoring both on exit; ``setup[0]`` is the current set-up."""
    assemble = dynamics.assemble_stiffness
    init = linalg.Factorization.__init__

    @functools.wraps(assemble)
    def assemble_traced(*args, **kwargs):
        with phase(setup[0], "assembly"):
            return assemble(*args, **kwargs)

    @functools.wraps(init)
    def init_traced(self, *args, **kwargs):
        with phase(setup[0], "factorization"):
            init(self, *args, **kwargs)

    dynamics.assemble_stiffness = assemble_traced
    linalg.Factorization.__init__ = init_traced
    try:
        yield
    finally:
        dynamics.assemble_stiffness = assemble
        linalg.Factorization.__init__ = init


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scene", type=Path)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--divisions", type=int, nargs=3, default=None)
    args = parser.parse_args(argv)

    print(f"start              VmRSS {_mb(vm_rss_mb())} MB   peak {peak_rss_mb():7.1f} MB")
    setup = [0]
    with traced(setup):
        for i in range(args.setups):
            setup[0] = i
            with phase(i, "load"):
                config = load_scene(args.scene)
                if args.divisions is not None:
                    config = with_box_divisions(config, args.divisions)
                config = replace(config, output=OutputConfig(snapshots=False, metrics=False))
            with phase(i, "Simulation()"):
                # the previous simulation lives until this assignment, as in the benchmark
                sim = Simulation(config)
            with phase(i, "first step"):
                sim.step()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
