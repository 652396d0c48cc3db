"""One-value mutations of the shipped scenes: bad input must end cleanly.

    PYTHONPATH=src python tests/mutation_sweep.py

A mutation replaces one mapping value or list entry, at any depth, of
``block_on_plane``, ``point_mass``, ``grasp_rotate`` or ``two_body_press``
with one of the 33 :data:`VALUES`: 237 sites, so 7821 mutations. Each is
written to a temporary directory, with mesh file paths made absolute, so
nothing is written under ``scenes/``. It is loaded, its ``Simulation`` built
and 2 steps made, with warnings as errors and a 30 s alarm, in this one
process, whose address space is capped first (as ``ulimit -v 3000000``).
A run ends clean, refused (a ``ContactNewtonError``), or escaped (anything
else: a warning, a ``MemoryError``, the alarm). The sweep prints each escape
as it happens and then the three counts. It runs numpy at one BLAS thread,
as tier-1 does, whatever the shell sets; 7821 mutations took 101 s on a
shared 2-core host.

``--serve`` runs mutations one by one for the tier-1 test
(``tests/test_scene_mutations.py``): each input line is a JSON list
``[scene, site, value index]``, and each output line a JSON list
``[outcome, detail]``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import resource
import signal
import sys
import tempfile
import warnings
from pathlib import Path

import yaml

# one BLAS thread, as tier-1 runs (``tests/conftest.py``), set before numpy's first import
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

from contactnewton.errors import ContactNewtonError  # noqa: E402 (after the thread count)
from contactnewton.scene import Simulation, load_scene  # noqa: E402

SCENES = Path(__file__).resolve().parent.parent / "scenes"
SCENE_NAMES = ("block_on_plane", "point_mass", "grasp_rotate", "two_body_press")
VALUES = (
    True, False, None, "", "x", "1.0", "nan", [], [[1.0, 2.0], [3.0]], {}, {"x": {"y": 1}},
    0, 1, -1, 2, 3, 0.5, -0.5, 1e308, -1e308, 1e-300, -1e-300, math.nan, math.inf, -math.inf,
    1e30, -1e30, 10**30, 2**53 - 1, 2**53, 1e6, 1e16, 1e-12,
)
STEPS = 2
ALARM_S = 30
MEMORY_CAP = 3_000_000 * 1024  # bytes of address space, as ``ulimit -v 3000000``


def read_scene(name: str) -> dict:
    """The scene's mapping, its mesh file paths made absolute."""
    raw = yaml.safe_load((SCENES / f"{name}.scn").read_text())
    for entry in raw["objects"]:
        mesh = entry.get("mesh", {})
        if "file" in mesh:
            mesh["file"] = str(SCENES / mesh["file"])
    return raw


def sites(node, path=()) -> list:
    """Paths of every mapping value and list entry under ``node``, in file order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    found = []
    for key, child in items:
        found.append(path + (key,))
        found += sites(child, path + (key,))
    return found


def mutated(raw: dict, site, value) -> dict:
    out = copy.deepcopy(raw)
    node = out
    for key in site[:-1]:
        node = node[key]
    node[site[-1]] = value
    return out


def _ring(signum, frame):
    raise TimeoutError(f"no end within {ALARM_S} s")


def run_one(raw: dict, site, value, directory) -> tuple[str, str]:
    """``(outcome, detail)`` of one mutation: clean, refused or escape."""
    path = os.path.join(directory, "mutated.scn")
    with open(path, "w") as fh:
        yaml.safe_dump(mutated(raw, site, value), fh, sort_keys=False)
    signal.alarm(ALARM_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulation(load_scene(path))
            for _ in range(STEPS):
                sim.step()
        return "clean", ""
    except ContactNewtonError as exc:
        return "refused", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a warning, MemoryError and the alarm included
        return "escape", f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)


def serve(directory) -> None:
    scenes = {name: read_scene(name) for name in SCENE_NAMES}
    for line in sys.stdin:
        name, site, index = json.loads(line)
        print(json.dumps(run_one(scenes[name], site, VALUES[index], directory)), flush=True)


def sweep(directory) -> int:
    counts = dict.fromkeys(("clean", "refused", "escape"), 0)
    for name in SCENE_NAMES:
        raw = read_scene(name)
        for site in sites(raw):
            for value in VALUES:
                outcome, detail = run_one(raw, site, value, directory)
                counts[outcome] += 1
                if outcome == "escape":
                    print(f"ESCAPE {name} {list(site)} = {value!r}: {detail}", flush=True)
    print(f"{sum(counts.values())} mutations: {counts['clean']} clean, "
          f"{counts['refused']} refused (ContactNewtonError), {counts['escape']} escaped")
    return 1 if counts["escape"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", action="store_true",
                        help="run the mutations named on stdin, one JSON line each")
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    signal.signal(signal.SIGALRM, _ring)
    with tempfile.TemporaryDirectory() as directory:
        if args.serve:
            serve(directory)
            return 0
        return sweep(directory)


if __name__ == "__main__":
    sys.exit(main())
