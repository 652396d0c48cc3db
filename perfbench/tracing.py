"""Span tracing of contactnewton's layers, installed from outside the program.

The tracer replaces each traced function with a wrapper at the place its
caller looks the name up (``scene.assemble_Wg``, ``solver.pgs``, the
``Factorization`` methods, ...) and restores the originals on exit. Every
call records a span: name, start, end, parent span and step id. Spans are
kept in memory; the harness writes them out after the run.

Newton iterations are not functions, so the tracer marks them itself: an
iteration span opens when the W rebuild starts inside a ``newton_*`` span
and closes when the proximity update ends (``fast_update_proximity`` for
the fast scheme, the ``refresh_proximity`` after the mechanical correction
for the standard one). That is the paper's split of an iteration into
rebuild + PGS + proximity update, and it matches the program's own
``rebuild_times`` / ``pgs_times`` / ``correction_times``.

``local_solve`` is counted, not spanned: it runs tens of thousands of times
per run at about 11 us each, and a span per call would swamp the trace.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from contactnewton import collision, dynamics, linalg, scene, solver

ITERATION = "solver.newton_iteration"
NEWTON = ("solver.newton_fast", "solver.newton_standard")
SOLVES = ("linalg.solve", "linalg.solve_multi")


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "value")

    def __init__(self, name, start, parent, step):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index into Tracer.spans, -1 for a root span
        self.step = step
        self.value = None  # what the call reports: pairs, (PGS sweeps, converged), columns

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.step, self.value]


def _pairs(args, result, before):
    return len(result)


def _sweeps(args, result, before):
    return (result.iterations, result.converged)


def _solve_count_before(args):
    return args[0].solve_count


def _solved_columns(args, result, before):
    return args[0].solve_count - before


# (owner, attribute, span name, value before the call, value after the call)
TRACED = (
    (scene.Simulation, "step", "scene.step", None, None),
    (scene.Simulation, "prepare_step", "scene.prepare_step", None, None),
    (collision, "detect", "collision.detect", None, _pairs),
    (collision, "build_frames", "collision.build_frames", None, None),
    (collision, "refresh_proximity", "collision.refresh_proximity", None, None),
    (collision, "signed_gaps", "collision.signed_gaps", None, None),
    (solver, "relinearize", "collision.relinearize", None, None),
    (solver, "max_frame_rotation", "collision.max_frame_rotation", None, None),
    (dynamics.SoftBody, "assemble", "dynamics.assemble", None, None),
    (dynamics.RigidBody, "assemble", "dynamics.assemble", None, None),
    (scene, "compute_free_motion", "dynamics.compute_free_motion", None, None),
    (scene, "integrate_correction", "dynamics.integrate_correction", None, None),
    (linalg.Factorization, "__init__", "linalg.factorize", None, None),
    (linalg.Factorization, "solve", "linalg.solve", _solve_count_before, _solved_columns),
    (linalg.Factorization, "solve_multi", "linalg.solve_multi",
     _solve_count_before, _solved_columns),
    (scene, "build_signed_mapping", "constraints.build_signed_mapping", None, None),
    (scene, "assemble_Wg", "constraints.assemble_wg", None, None),
    (solver, "assemble_direction", "constraints.assemble_direction", None, None),
    (solver, "assemble_H", "constraints.assemble_h", None, None),
    (solver, "assemble_W_standard", "constraints.assemble_w_standard", None, None),
    (solver, "rebuild_W_fast", "constraints.rebuild_w_fast", None, None),
    (solver, "compute_violation", "constraints.compute_violation", None, None),
    (solver, "fast_update_proximity", "constraints.fast_update_proximity", None, None),
    (scene, "newton_fast", "solver.newton_fast", None, None),
    (scene, "newton_standard", "solver.newton_standard", None, None),
    (solver, "pgs", "solver.pgs", None, _sweeps),
    (solver, "_mechanical_correction", "solver.mechanical_correction", None, None),
)

# The first span of the W rebuild opens an iteration; the end of the
# proximity update closes it.
_OPENS_ITERATION = ("constraints.rebuild_w_fast", "constraints.assemble_h")
_CLOSES_ITERATION = ("constraints.fast_update_proximity", "collision.refresh_proximity")


class Tracer:
    """Records spans and counts while installed (``with Tracer() as t:``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (name, step id) -> calls, for counted names
        self.step = None
        self._stack: list[int] = []
        self._originals = []

    # --- span bookkeeping ------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.step))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index=None) -> Span:
        """Close the top span, or span ``index`` and whatever an exception left above it."""
        end = time.perf_counter()
        while True:
            top = self._stack.pop()
            self.spans[top].end = end
            if index is None or top == index:
                return self.spans[top]

    def _top(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    def begin_step(self, step_id) -> None:
        """Tag the following spans; close what a failed step left open."""
        while self._stack:
            self._close()
        self.step = step_id

    # --- installation ----------------------------------------------------

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in _OPENS_ITERATION and tracer._top() in NEWTON:
                tracer._open(ITERATION)
            mark = before(args) if before is not None else None
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(index)
            if after is not None:
                span.value = after(args, result, mark)
            if name in _CLOSES_ITERATION and tracer._top() == ITERATION:
                tracer._close()
            return result

        return wrapper

    def _count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name, tracer.step] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for owner, attr, name, before, after in TRACED:
            fn = owner.__dict__[attr]
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, before, after))
        fn = solver.local_solve
        self._originals.append((solver, "local_solve", fn))
        solver.local_solve = self._count(fn, "solver.local_solve")
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()
        self.begin_step(None)
        return False

    # --- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Spans of one thread nest, so the children of a span never overlap
        and the time they cover is the sum of their durations.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            kids.setdefault(s.parent, []).append(i)
        return kids

    def inside(self, index: int, name: str) -> bool:
        """True if span ``index`` has an ancestor called ``name``."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def solves_in_fast_iterations(self) -> int:
        """Number of linalg solve spans inside a fast-scheme Newton iteration."""
        return sum(
            1
            for i, s in enumerate(self.spans)
            if s.name in SOLVES
            and self.inside(i, ITERATION)
            and self.inside(i, "solver.newton_fast")
        )
