import csv
import functools
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from contactnewton import cli, linalg, solver, verify
from contactnewton.constraints import assemble_direction, compute_violation, rebuild_W_fast
from contactnewton.errors import SingularBlockError
from contactnewton.scene import Simulation, load_scene
from contactnewton.solver import (IterationStats, PgsConfig, PgsResult, complementarity_residual,
                                  pgs, prepare_solve)
from contactnewton.verify import (
    COMPLEMENTARITY_PGS,
    check_complementarity,
    check_congruence_identity,
    check_scheme_equivalence,
    prepare,
)
from test_scene import (COUPLED_BALL, MIXED_SCENE, PINNED_BOX, SPINNING_BALL, blow_up_scene_text,
                        write_scene)
from test_solver import lcp_enumeration_oracle

SCENES = Path(__file__).resolve().parents[1] / "scenes"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "contactnewton", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: contactnewton" in proc.stdout
    assert all(cmd in proc.stdout for cmd in ("run", "bench", "verify"))


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--scene", str(SCENES / "point_mass.scn"), "--steps", "3",
                     "--out", str(out)])
    assert code == 0
    with open(out / "metrics.csv") as fh:
        metrics = list(csv.DictReader(fh))
    assert len(metrics) == 3
    assert [(m["newton_exit"], m["solve_converged"], m["system_solves"]) for m in metrics] == [
        ("penetration", "True", "6")] * 3  # free motion, 3 W columns, 1 correction, 1 final
    # the point rests on the plane: from step 1 on, S is the previous step's
    assert [m["mapping_reused"] for m in metrics] == ["False", "True", "True"]
    with open(out / "newton.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["step", "iteration", "penetration"]
    assert rows[0] == ["step", "iteration", *(f.name for f in fields(IterationStats))]
    assert len(rows) - 1 == sum(int(m["newton_iterations"]) for m in metrics)
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        "step_000000.npz", "step_000001.npz", "step_000002.npz"]
    assert "3 steps of point_mass.scn" in capsys.readouterr().out


def test_a_band_above_the_bound_is_one_error_line_naming_the_body(tmp_path, capsys,
                                                                  monkeypatch):
    # grasp_rotate's 5 x 5 x 5 cube: 648 DOFs at half-bandwidth 110, 575,424 bytes
    monkeypatch.setattr(linalg, "MAX_BAND_BYTES", 575_423)
    assert cli.main(["run", "--scene", str(SCENES / "grasp_rotate.scn"), "--steps", "1",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: cube: the band of 648 DOFs at half-bandwidth 110 takes 575424 bytes "
        "(0.000536 GiB), more than the 575423 allowed\n")


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_failed_run_keeps_the_newton_rows_of_completed_steps(tmp_path, monkeypatch):
    header = ["step", "iteration", *(f.name for f in fields(IterationStats))]
    # the non-finite scene fails in its first step: both files hold their header
    out = tmp_path / "blow_up"
    path = write_scene(tmp_path, blow_up_scene_text())
    assert cli.main(["run", "--scene", str(path), "--steps", "2", "--out", str(out)]) == 1
    assert read_rows(out / "newton.csv") == [header]
    assert len(read_rows(out / "metrics.csv")) == 1

    # a third step that fails leaves the first two steps' rows in both files
    calls = []

    def failing_pgs(W, delta, h, config, prepared, _pgs=solver.pgs):
        calls.append(1)
        if len(calls) == 3:
            raise SingularBlockError("injected failure")
        return _pgs(W, delta, h, config, prepared)

    monkeypatch.setattr(solver, "pgs", failing_pgs)
    out = tmp_path / "third"
    assert cli.main(["run", "--scene", str(SCENES / "point_mass.scn"), "--steps", "4",
                     "--out", str(out)]) == 1
    rows = read_rows(out / "newton.csv")
    assert rows[0] == header
    assert [r[:2] for r in rows[1:]] == [["0", "0"], ["1", "0"]]
    assert len(read_rows(out / "metrics.csv")) == 3


def test_newton_csv_agrees_with_metrics_on_grasp_rotate(tmp_path, capsys):
    # every step's per-iteration solve records add up to its metrics.csv row;
    # with the contact solve capped at 3 iterations, some solves stop
    # unconverged, steps take more than one Newton iteration, and both
    # aggregates are exercised
    text = (SCENES / "grasp_rotate.scn").read_text()
    capped = text.replace("pgs: {iterations: 200}", "pgs: {iterations: 3}")
    assert capped != text
    scene = write_scene(tmp_path, capped, "grasp_rotate.scn")
    out = tmp_path / "out"
    assert cli.main(["run", "--scene", str(scene), "--steps", "18",
                     "--scheme", "fast", "--out", str(out)]) == 0
    with open(out / "metrics.csv") as fh:
        metrics = list(csv.DictReader(fh))
    with open(out / "newton.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == sum(int(m["newton_iterations"]) for m in metrics)
    for m in metrics:
        mine = [r for r in rows if r["step"] == m["step"]]
        assert [r["iteration"] for r in mine] == [str(k) for k in range(len(mine))]
        assert sum(int(r["solve_iterations"]) for r in mine) == int(m["solve_iterations_total"])
        for r in mine:  # F's evaluations, at most one per group and iteration here
            assert 0 < int(r["solve_work"]) <= int(m["c_groups"]) * int(r["solve_iterations"])
        assert str(all(r["solve_converged"] == "True" for r in mine)) == m["solve_converged"]
        # the loop stops on the geometric penetration after a move, 1e-7 m
        # in this scene, and a step's first iteration holds no preparation to keep
        stops = [float(r["penetration"]) <= 1e-7 for r in mine]
        assert stops == [False] * (len(mine) - 1) + [m["newton_exit"] == "penetration"]
        assert mine[0]["kept"] == "False"
    assert any(m["newton_iterations"] != "1" for m in metrics)
    assert any(m["solve_converged"] == "False" for m in metrics)


def test_run_without_metrics_writes_neither_csv(tmp_path):
    text = PINNED_BOX + "output: {metrics: false}\n"
    out = tmp_path / "out"
    assert cli.main(["run", "--scene", str(write_scene(tmp_path, text)), "--steps", "2",
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["snapshots"]


def test_run_scheme_choices_are_the_solver_schemes(capsys):
    # the CLI spells the schemes out so that it need not import numpy to parse
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--help"])
    assert f"--scheme {{{','.join(solver.SCHEMES)}}}" in capsys.readouterr().out


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


def test_verify_passes_on_a_spinning_ball(tmp_path, capsys):
    # the ball's contact point turns with it over the forced iterations, and
    # both schemes follow it geometrically; with the coupled inertia the fast
    # move must also displace the spin about y, which no lever reaches
    for name, text in (("isotropic", SPINNING_BALL), ("coupled", COUPLED_BALL)):
        scene = write_scene(tmp_path, text, f"{name}.scn")
        assert cli.main(["verify", "--scene", str(scene)]) == 0, name
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["PASS", "congruence-identity:"], ["PASS", "complementarity:"],
            ["PASS", "scheme-equivalence:"]], (name, lines)


def test_verify_passes_on_pinned_box(tmp_path, capsys):
    # pinned vertices are not paired, so every W block is posed
    scene = write_scene(tmp_path, PINNED_BOX, "pinned.scn")
    assert cli.main(["verify", "--scene", str(scene)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "congruence-identity:"], ["PASS", "complementarity:"],
        ["PASS", "scheme-equivalence:"]]


def test_run_on_pinned_box_reports_less_than_its_weight(tmp_path, capsys):
    # 20 of the 25 bottom vertices are paired; the 5 pinned ones carry part
    # of the 1 kg box's weight
    scene = write_scene(tmp_path, PINNED_BOX, "pinned.scn")
    out = tmp_path / "out"
    assert cli.main(["run", "--scene", str(scene), "--steps", "5", "--out", str(out)]) == 0
    with open(out / "metrics.csv") as fh:
        metrics = list(csv.DictReader(fh))
    assert [m["c_groups"] for m in metrics] == ["20"] * 5
    assert all(0.0 < float(m["lambda_n_sum"]) < 9.81 for m in metrics)


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
    for row in rows:
        assert float(row["newton_iter_iqr_ms"]) >= 0.0
        assert float(row["step_total_iqr_ms"]) >= 0.0
    # the column's frames repeat from each step's second iteration on, so both
    # schemes rebuild W once in each of the 3 measured steps
    assert [row["rebuilds"] for row in rows] == ["3", "3"]
    assert re.search(r"resolution 4: fast is \d+\.\d+x faster per Newton iteration that "
                     r"rebuilds W \(3 standard and 3 fast rebuilds\), \d+\.\d+x over the "
                     r"whole step", capsys.readouterr().out)


def test_bench_writes_the_final_correction_column(tmp_path, capsys, monkeypatch):
    clear_thread_vars(monkeypatch)
    spec = tmp_path / "tiny.spec"
    spec.write_text(
        f"scene: {SCENES / 'bench_column.scn'}\n"
        "resolutions: [4]\nschemes: [fast]\nrepetitions: 3\nwarmup: 1\n"
        "newton_iterations: 1\npgs_iterations: 5\n"
    )
    out = tmp_path / "out"
    assert cli.main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    with open(out / "bench.csv") as fh:
        header = next(csv.reader(fh))
        rows = list(csv.DictReader(fh, fieldnames=header))
    assert header.index("final_corr_ms") == header.index("rebuild_w_ms") - 1
    assert len(rows) == 1 and float(rows[0]["final_corr_ms"]) > 0.0
    assert "final corr" in capsys.readouterr().out


COLUMN = f"scene: {SCENES / 'bench_column.scn'}\n"

# (spec text, the key the error must name)
BAD_SPECS = {
    "repetitions-text": (COLUMN + "resolutions: [4]\nrepetitions: abc\n", "bench.repetitions:"),
    "resolutions-scalar": (COLUMN + "resolutions: 6\n", "bench.resolutions:"),
    "misspelt-key": (COLUMN + "resolutions: [4]\nrepetition: 3\n",
                     "bench: unknown key 'repetition'"),
    "schemes-string": (COLUMN + "resolutions: [4]\nschemes: fast\n", "bench.schemes:"),
    "scene-number": ("scene: 5\nresolutions: [4]\n", "bench.scene:"),
    "repetitions-fraction": (COLUMN + "resolutions: [4]\nrepetitions: 3.9\n",
                             "bench.repetitions:"),
    "resolutions-fraction": (COLUMN + "resolutions: [4.5]\n", "bench.resolutions:"),
    "resolutions-zero": (COLUMN + "resolutions: [0]\n", "bench.resolutions:"),
    "warmup-negative": (COLUMN + "resolutions: [4]\nwarmup: -2\n", "bench.warmup:"),
    "schemes-empty": (COLUMN + "resolutions: [4]\nschemes: []\n", "bench.schemes:"),
    "newton-iterations-zero": (COLUMN + "resolutions: [4]\nnewton_iterations: 0\n",
                               "bench.newton_iterations:"),
    "pgs-iterations-zero": (COLUMN + "resolutions: [4]\npgs_iterations: 0\n",
                            "bench.pgs_iterations:"),
}


@pytest.mark.parametrize("text, message", BAD_SPECS.values(), ids=BAD_SPECS.keys())
def test_bench_reports_bad_spec(tmp_path, capsys, monkeypatch, text, message):
    clear_thread_vars(monkeypatch)
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    assert cli.main(["bench", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
    assert "Traceback" not in err


# (the command line before the file, text of a file whose YAML breaks on its
# line 3); the spec is refused before anything is written to --out
MALFORMED = {
    "scene": (["verify", "--scene"], "dt: 0.01\ngravity: [0, -9.81, 0]\n  pgs: 3\n"),
    "spec": (["bench", "--out", "out", "--spec"], COLUMN + "resolutions: [4\nwarmup: 2\n"),
}


@pytest.mark.parametrize("args, text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_yaml_is_one_error_line(tmp_path, capsys, monkeypatch, args, text):
    clear_thread_vars(monkeypatch)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert cli.main([*args, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: ") and len(err.splitlines()) == 1


# one prepared context per scene serves both checks, which only read it
@functools.cache
def prepared(scene):
    config = load_scene(scene)
    return config, prepare(config)


def shipped_scene_checks():
    """(scene, check) for every shipped scene and verify check."""
    checks = {"congruence-identity": check_congruence_identity,
              "complementarity": check_complementarity,
              "scheme-equivalence": check_scheme_equivalence}
    for scene in sorted(SCENES.glob("*.scn")):
        for name, check in checks.items():
            yield pytest.param(scene, check, id=f"{scene.stem}-{name}")


# Every verify check must hold on every shipped scene.
@pytest.mark.parametrize("scene, check", shipped_scene_checks())
def test_verify_check_passes_on_shipped_scene(scene, check):
    result = check(*prepared(scene))
    assert result.passed, result.detail


def test_scheme_equivalence_fails_when_fast_keeps_its_detection_frame_W(monkeypatch):
    # the check runs re-linearized iterations, so a fast rebuild that ignores
    # the turned directions must fail it on the shipped scenes whose frames
    # turn after the first move (the plane and point scenes' do not)
    kept = []

    def detection_frame_W(D, wg, last=None, _rebuild=solver.rebuild_W_fast):
        if not kept:
            kept.append(_rebuild(D, wg))
        return kept[0]

    monkeypatch.setattr(solver, "rebuild_W_fast", detection_frame_W)
    for scene in ("grasp_rotate.scn", "two_body_press.scn"):
        kept.clear()
        result = check_scheme_equivalence(*prepared(SCENES / scene))
        assert len(kept) == 1 and not result.passed, (scene, result.detail)


def complementarity_reference(config, ctx):
    """(passed, worst residual) by the per-group loop the array check replaced."""
    D = assemble_direction(ctx.detection_frames)
    delta = compute_violation(D, ctx.r0)
    pcfg = PgsConfig(friction=config.pgs.friction, **COMPLEMENTARITY_PGS)
    W = rebuild_W_fast(D, ctx.wg)
    return complementarity_loop(pgs(W, delta, config.h, pcfg, prepare_solve(W, config.h)), delta,
                                pcfg.friction)


def complementarity_loop(res, delta, mu):
    """(passed, worst residual) of a solve of violation ``delta``, group by group."""
    tol_c = 1e-6 * max(1.0, float(np.abs(delta).max()))
    worst = 0.0
    ok = True
    for g in range(len(delta) // 3):
        ln = res.lam[3 * g]
        lt = float(np.hypot(res.lam[3 * g + 1], res.lam[3 * g + 2]))
        dn = res.delta_end[3 * g]
        ok &= ln >= 0.0
        ok &= dn >= -1e-6
        ok &= ln * dn <= tol_c
        ok &= lt <= mu * ln + 1e-9
        worst = max(worst, abs(min(dn, 0.0)), ln * dn, lt - mu * ln)
    return bool(ok), worst


@pytest.mark.parametrize("scene", ["grasp_rotate.scn", "two_body_press.scn"])
def test_each_iterations_solve_residual_is_verifys(monkeypatch, scene):
    # every Newton iteration, forced, with a kept or a new preparation,
    # reports the residual that verify's check computes for the same lambda
    # and delta_end, bit for bit
    solved = []

    def recording(W, delta, h, config, prepared, _fn=solver.pgs):
        res = _fn(W, delta, h, config, prepared)
        solved.append((res, delta, config.friction))
        return res

    monkeypatch.setattr(solver, "pgs", recording)
    config = load_scene(SCENES / scene)
    newton = replace(config.newton, scheme="fast", max_iterations=3, penetration_tol=-1.0)
    sim = Simulation(replace(config, newton=newton))
    stats = [it for _ in range(2) for it in sim.step().iterations]
    assert len(stats) == len(solved) == 6
    for it, (res, delta, mu) in zip(stats, solved):
        worst = complementarity_loop(res, delta, mu)[1]
        assert it.solve_residual == worst == complementarity_residual(res.lam, res.delta_end, mu)
        assert worst > 0.0


def test_a_stub_contact_solve_fills_the_reports_and_verify(tmp_path, monkeypatch):
    # the Newton loop, the reports and verify reach the contact solve through
    # its seam alone: an exact frictionless solver and a preparation of its
    # own in place of the Newton solve and its preparation run a step, and newton.csv,
    # metrics.csv and verify's complementarity line carry its results
    results = []

    def prepare_stub(W, h):
        return ("stub", W)

    def exact_solve(W, delta, h, config, prepared):
        assert prepared[0] == "stub" and prepared[1] is W
        lam = np.zeros(len(delta))
        lam[0::3] = lcp_enumeration_oracle(W[0::3, 0::3], delta[0::3], h)
        delta_end = delta + h * h * (W @ lam)
        results.append(PgsResult(lam, delta_end, 1, True, 7,
                                 complementarity_residual(lam, delta_end, config.friction)))
        return results[-1]

    monkeypatch.setattr(solver, "prepare_solve", prepare_stub)
    monkeypatch.setattr(solver, "pgs", exact_solve)
    text = (SCENES / "block_on_plane.scn").read_text().replace("mu: 0.5", "mu: 0.0")
    path = write_scene(tmp_path, text.replace("meshes/", f"{SCENES / 'meshes'}/"))
    out = tmp_path / "out"
    assert cli.main(["run", "--scene", str(path), "--steps", "1", "--out", str(out)]) == 0
    [res] = results
    assert res.residual < 1e-12 and res.lam[0::3].min() > 0.0
    with open(out / "newton.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert [row[key] for key in ("solve_iterations", "solve_work", "solve_residual",
                                 "solve_converged")] == ["1", "7", repr(res.residual), "True"]
    with open(out / "metrics.csv") as fh:
        [m] = list(csv.DictReader(fh))
    assert (m["solve_iterations_total"], m["solve_converged"]) == ("1", "True")
    config = load_scene(path)
    result = check_complementarity(config, prepare(config))
    assert result.passed
    assert result.detail == (f"25 groups, worst residual {results[-1].residual:.3e} "
                             "(converged=True in 1 iterations)")


@pytest.mark.parametrize("scene", sorted(SCENES.glob("*.scn")), ids=lambda p: p.stem)
def test_complementarity_matches_the_per_group_reference(scene):
    config, ctx = prepared(scene)
    passed, worst = complementarity_reference(config, ctx)
    result = check_complementarity(config, ctx)
    assert result.passed == passed
    assert f"worst residual {worst:.3e} " in result.detail


@pytest.mark.parametrize("scene", ["block_on_plane.scn", "point_mass.scn", "mixed"])
def test_congruence_identity_checks_relinearized_directions(tmp_path, monkeypatch, scene):
    # its second half runs two fast iterations, the second in re-linearized
    # directions; zero tolerances ended the loop after one on these scenes
    iterations = []

    def newton_fast(ctx, ncfg, pcfg, _fn=verify.newton_fast):
        result = _fn(ctx, ncfg, pcfg)
        iterations.append(len(result.iterations))
        return result

    monkeypatch.setattr(verify, "newton_fast", newton_fast)
    path = write_scene(tmp_path, MIXED_SCENE) if scene == "mixed" else SCENES / scene
    config = load_scene(path)
    result = check_congruence_identity(config, prepare(config))
    assert iterations == [2]
    assert result.passed, result.detail


def test_congruence_identity_fails_on_scaled_wg():
    config = load_scene(SCENES / "block_on_plane.scn")
    ctx = prepare(config)
    ctx.wg = 1.01 * ctx.wg
    result = check_congruence_identity(config, ctx)
    assert not result.passed, result.detail
