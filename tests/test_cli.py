import csv
import functools
import os
import re
from pathlib import Path

import pytest

from contactnewton import cli
from contactnewton.scene import load_scene
from contactnewton.verify import check_congruence_identity, check_scheme_equivalence, prepare
from test_scene import MIXED_SCENE

SCENES = Path(__file__).resolve().parents[1] / "scenes"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--scene", str(SCENES / "point_mass.scn"), "--steps", "3",
                     "--out", str(out)])
    assert code == 0
    with open(out / "metrics.csv") as fh:
        metrics = list(csv.DictReader(fh))
    assert len(metrics) == 3
    assert [(m["newton_exit"], m["pgs_converged"], m["system_solves"]) for m in metrics] == [
        ("penetration", "True", "5")] * 3  # free motion, 3 W columns, 1 correction
    with open(out / "newton.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["step", "iteration", "penetration"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        "step_000000.bin", "step_000001.bin", "step_000002.bin"]
    assert "3 steps of point_mass.scn" in capsys.readouterr().out


def test_verify_passes_on_block_on_plane(capsys):
    assert cli.main(["verify", "--scene", str(SCENES / "block_on_plane.scn")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "congruence-identity:"], ["PASS", "complementarity:"],
        ["PASS", "scheme-equivalence:"]]


def test_verify_passes_on_rigid_and_plane_attachments(tmp_path, capsys):
    # a rigid sphere on the plane (the lever mapping), a spinning kinematic
    # plate and a soft box: no shipped scene has a rigid side
    scene = tmp_path / "mixed.scn"
    scene.write_text(MIXED_SCENE)
    assert (prepare(load_scene(scene)).pairs.a.lever != 0.0).any()
    assert cli.main(["verify", "--scene", str(scene)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "congruence-identity:"], ["PASS", "complementarity:"],
        ["PASS", "scheme-equivalence:"]]


def clear_thread_vars(monkeypatch):
    for var in THREAD_VARS + ("CONTACT_NEWTON_THREADS",):
        monkeypatch.setenv(var, "")  # records the old value, restored after the test
        monkeypatch.delenv(var)


@pytest.mark.parametrize("cap, expect", [(None, "1"), ("2", "2")])
def test_verify_pins_one_blas_thread_by_default(monkeypatch, capsys, cap, expect):
    clear_thread_vars(monkeypatch)
    if cap is not None:
        monkeypatch.setenv("CONTACT_NEWTON_THREADS", cap)
    assert cli.main(["verify", "--scene", str(SCENES / "point_mass.scn")]) == 0
    assert all(os.environ[var] == expect for var in THREAD_VARS)


def test_bench_tiny_spec(tmp_path, capsys, monkeypatch):
    # bench pins the BLAS thread cap in the environment; restore it afterwards
    clear_thread_vars(monkeypatch)
    spec = tmp_path / "tiny.spec"
    spec.write_text(
        f"scene: {SCENES / 'bench_column.scn'}\n"
        "resolutions: [4]\nrepetitions: 3\nwarmup: 1\n"
        "newton_iterations: 2\npgs_iterations: 10\n"
    )
    out = tmp_path / "out"
    assert cli.main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    with open(out / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["resolution"], r["scheme"]) for r in rows] == [("4", "standard"), ("4", "fast")]
    # the fast cell's first step fills the cache of A^-1 columns
    assert float(rows[1]["build_wg_cold_ms"]) > 0.0
    assert re.search(r"resolution 4: fast is \d+\.\d+x faster per Newton iteration",
                     capsys.readouterr().out)


# one prepared context per scene serves both checks, which only read it
@functools.cache
def prepared(scene):
    config = load_scene(scene)
    return config, prepare(config)


# Both checks must hold on every shipped scene. Complementarity is not gated
# here: it fails on two_body_press, where PGS does not converge in 200 sweeps.
@pytest.mark.parametrize("check", [check_congruence_identity, check_scheme_equivalence],
                         ids=["congruence-identity", "scheme-equivalence"])
@pytest.mark.parametrize("scene", sorted(SCENES.glob("*.scn")), ids=lambda p: p.stem)
def test_verify_check_passes_on_shipped_scene(scene, check):
    result = check(*prepared(scene))
    assert result.passed, result.detail


def test_congruence_identity_fails_on_scaled_wg():
    config = load_scene(SCENES / "block_on_plane.scn")
    ctx = prepare(config)
    ctx.wg = 1.01 * ctx.wg
    result = check_congruence_identity(config, ctx)
    assert not result.passed, result.detail
