"""Bad input ends cleanly: one-value mutations of the shipped scenes.

A derandomized sample of ``tests/mutation_sweep.py``'s mutations. They run in
one child interpreter, whose address space that script caps, so a runaway
allocation cannot take the test process with it.
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


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(mutation=mutations)
def test_one_value_mutation_steps_or_is_refused(child, mutation):
    # load, build and 2 steps with warnings as errors: success or a
    # ContactNewtonError, never another exception, a warning or the alarm
    child.stdin.write(json.dumps(mutation) + "\n")
    child.stdin.flush()
    line = child.stdout.readline()
    assert line, f"the child interpreter ended on {mutation}"
    outcome, detail = json.loads(line)
    assert outcome in ("clean", "refused"), f"{mutation}: {detail}"
