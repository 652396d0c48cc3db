"""Bad input ends cleanly: one-value mutations of the shipped scenes.

A derandomized sample of ``tests/mutation_sweep.py``'s mutations, and every
one of its values at each shipped scene's ``mu``. They run in one child
interpreter, whose address space that script caps, so a runaway allocation
cannot take the test process with it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutation_sweep

SWEEP = Path(mutation_sweep.__file__)
SITES = {name: mutation_sweep.sites(mutation_sweep.read_scene(name))
         for name in mutation_sweep.SCENE_NAMES}
SHIPPED = sorted(path.stem for path in mutation_sweep.SCENES.glob("*.scn"))


@pytest.fixture(scope="module")
def child():
    src = str(SWEEP.resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen([sys.executable, str(SWEEP), "--serve"], env=env, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        yield proc  # leaving closes its stdin, which ends it, and waits


mutations = st.sampled_from(mutation_sweep.SCENE_NAMES).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(SITES[name]),
                           st.integers(0, len(mutation_sweep.VALUES) - 1)))


def served(child, mutation) -> tuple[str, str]:
    """``(outcome, detail)`` of one mutation: load, build and 2 steps with
    warnings as errors, in the child interpreter."""
    child.stdin.write(json.dumps(mutation) + "\n")
    child.stdin.flush()
    line = child.stdout.readline()
    assert line, f"the child interpreter ended on {mutation}"
    return tuple(json.loads(line))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(mutation=mutations)
def test_one_value_mutation_steps_or_is_refused(child, mutation):
    # success or a ContactNewtonError, never another exception, a warning or the alarm
    outcome, detail = served(child, mutation)
    assert outcome in ("clean", "refused"), f"{mutation}: {detail}"


@pytest.mark.parametrize("index", range(len(mutation_sweep.VALUES)))
@pytest.mark.parametrize("name", SHIPPED)
def test_every_value_at_mu_steps_or_is_refused(child, name, index):
    # the extremes a 40-example sample can miss, such as mu = 1e308, on every
    # shipped scene, bench_column included
    outcome, detail = served(child, [name, ["mu"], index])
    assert outcome in ("clean", "refused"), f"{name} mu = {mutation_sweep.VALUES[index]!r}: {detail}"
