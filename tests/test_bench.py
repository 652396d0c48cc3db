from pathlib import Path

import pytest

from contactnewton import bench
from contactnewton.bench import BenchSpec, measure_cell
from contactnewton.scene import load_scene, with_box_divisions

SCENES = Path(__file__).resolve().parents[1] / "scenes"


@pytest.mark.parametrize("scheme", ["standard", "fast"])
def test_every_measured_step_runs_every_newton_iteration(monkeypatch, scheme):
    # "no early exit": with 0.0 tolerances a step whose penetration or frame
    # turn reads exactly 0.0 stopped early, so the cell timed fewer iterations
    reports = []

    class Recording(bench.Simulation):
        def step(self):
            reports.append(super().step())
            return reports[-1]

    monkeypatch.setattr(bench, "Simulation", Recording)
    spec = BenchSpec(scene=str(SCENES / "bench_column.scn"), resolutions=[4], repetitions=4)
    config = with_box_divisions(load_scene(spec.scene), (7, 4, 7))
    measure_cell(config, scheme, spec)
    assert len(reports) == spec.warmup + spec.repetitions
    for report in reports:
        assert report.c_groups > 0
        assert report.newton_exit == "max_iterations"
        assert report.newton_iterations == spec.newton_iterations
