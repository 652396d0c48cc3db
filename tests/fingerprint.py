"""Step fingerprints of the shipped and test scenes, for bitwise claims.

    PYTHONPATH=src python tests/fingerprint.py --out F.json [--steps 4] [--case PATTERN]
    python tests/fingerprint.py --compare A.json B.json

``--out`` steps every case and writes, per case and per step, q and v of
every dynamic object, lambda, the frames, ``pen_before``, ``pen_after`` and
the counts of the step: its contact groups, its Newton exit and, per Newton
iteration, the contact solve's iterations, work and convergence (PGS's
sweeps, local solves and verdict in trees before the Newton solve, in the
layout of trees that named them ``pgs_*``, so that their fingerprints
compare too). A case is a scene
under one scheme (``single``, ``standard`` or ``fast``) with the scene's own
Newton tolerances or with forced iterations (4, with a negative penetration
tolerance). The scenes are the shipped ones and the test scenes
``SPINNING_BALL``, ``COUPLED_BALL``, ``MIXED_SCENE`` and ``PINNED_BOX`` of
``tests/test_scene.py``. ``--case`` keeps the cases whose name contains
PATTERN (repeatable). Arrays are stored as their float64 bytes, so a
fingerprint of one tree compares bit for bit with another's: run this file
with ``PYTHONPATH`` pointing at the other tree's ``src``.

``--compare`` prints one line per case: ``bitwise``; ``rounding (max
relative X)`` when every count agrees and every float agrees to
``ROUNDING_RTOL`` relative to its field's magnitude in that step, or to
``ABSOLUTE_FLOOR`` where the field is smaller (a resting contact's
``pen_after`` is rounding noise about 1e-17 m, or exactly 0.0); else
``differs``. Each
line that is not ``bitwise`` names the first step and field that differ. It
exits with 1 if a case differs or is missing on one side.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMES = ("single", "standard", "fast")
TOLERANCES = ("scene", "forced")
FORCED_ITERATIONS = 4
ROUNDING_RTOL = 1e-8
ABSOLUTE_FLOOR = 1e-6  # the least magnitude a field is scaled by, in its SI unit (m, m/s, N s)


def _test_scenes() -> dict[str, str]:
    from test_scene import COUPLED_BALL, MIXED_SCENE, PINNED_BOX, SPINNING_BALL  # beside this file

    return {"SPINNING_BALL": SPINNING_BALL, "COUPLED_BALL": COUPLED_BALL,
            "MIXED_SCENE": MIXED_SCENE, "PINNED_BOX": PINNED_BOX}


def case_names() -> list[str]:
    scenes = [p.stem for p in sorted((ROOT / "scenes").glob("*.scn"))] + list(_test_scenes())
    return [f"{scene}-{scheme}-{tol}" for scene in scenes for scheme in SCHEMES
            for tol in TOLERANCES]


def case_config(name: str):
    """The scene config of case ``name``, ``<scene>-<scheme>-<scene|forced>``."""
    from contactnewton.scene import load_scene  # from PYTHONPATH: --compare needs no tree

    scene, scheme, tol = name.rsplit("-", 2)
    texts = _test_scenes()
    if scene in texts:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{scene}.scn"
            path.write_text(texts[scene])
            config = load_scene(path)
    else:
        config = load_scene(ROOT / "scenes" / f"{scene}.scn")
    newton = replace(config.newton, scheme=scheme)
    if tol == "forced":
        newton = replace(newton, max_iterations=FORCED_ITERATIONS, penetration_tol=-1.0)
    return replace(config, newton=newton)


def _array(a) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(entry: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(entry["f8"]), dtype="<f8").reshape(entry["shape"])


def run_case(name: str, steps: int) -> list[dict]:
    """One record per step of case ``name``: fields in a fixed order."""
    from contactnewton.scene import Simulation

    sim = Simulation(case_config(name))
    records = []
    for _ in range(steps):
        report = sim.step()
        record = {}
        for obj in sim.dynamic_objects:
            q, v = obj.saved_state()
            record[f"q{obj.oid}"] = _array(q)
            record[f"v{obj.oid}"] = _array(v)
        record["lam"] = _array(sim.last_lam)
        record["frames"] = _array(sim.last_frames)
        record["pen_before"] = _array(report.pen_before)
        record["pen_after"] = _array(report.pen_after)
        record["counts"] = [report.c_groups, report.newton_exit,
                            [[it.solve_iterations, it.solve_work, it.solve_converged]
                             for it in report.iterations]]
        records.append(record)
    return records


def fingerprint(names, steps: int) -> dict:
    return {"steps": steps, "cases": {name: run_case(name, steps) for name in names}}


def compare_case(a: list[dict], b: list[dict]) -> str:
    """``bitwise``, ``rounding (...)`` or ``differs (...)`` for two step lists."""
    if len(a) != len(b):
        return f"differs ({len(a)} against {len(b)} steps)"
    worst, first, exact = 0.0, None, True
    for step, (ra, rb) in enumerate(zip(a, b)):
        if ra.keys() != rb.keys():
            return f"differs (step {step}: fields {sorted(ra)} against {sorted(rb)})"
        for key in ra:
            if ra[key] == rb[key]:
                continue
            where = f"step {step}, {key}"
            if key == "counts":
                return f"differs (first at {where}: {ra[key]} against {rb[key]})"
            x, y = _decode(ra[key]), _decode(rb[key])
            if x.shape != y.shape:
                return f"differs (first at {where}: shapes {x.shape} against {y.shape})"
            if x.tobytes() == y.tobytes():
                continue
            exact = False
            first = first or where
            with np.errstate(invalid="ignore", over="ignore"):
                scale = max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0),
                            ABSOLUTE_FLOOR)
                rel = float(np.abs(x - y).max(initial=0.0)) / scale
            worst = max(worst, np.inf if np.isnan(rel) else rel)
    if exact:
        return "bitwise"
    if worst <= ROUNDING_RTOL:
        return f"rounding (max relative {worst:.3e}; first at {first})"
    return f"differs (max relative {worst:.3e}; first at {first})"


def compare(a: dict, b: dict) -> list[str]:
    lines = []
    for name in list(a["cases"]) + [n for n in b["cases"] if n not in a["cases"]]:
        if name not in a["cases"] or name not in b["cases"]:
            lines.append(f"{name}: missing in {'A' if name not in a['cases'] else 'B'}")
        else:
            lines.append(f"{name}: {compare_case(a['cases'][name], b['cases'][name])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the fingerprint of every case to this JSON file")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two fingerprints")
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--case", action="append", default=[], metavar="PATTERN")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines))
        return 0 if all(": bitwise" in line or ": rounding (" in line for line in lines) else 1
    names = [n for n in case_names() if not args.case or any(p in n for p in args.case)]
    Path(args.out).write_text(json.dumps(fingerprint(names, args.steps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
