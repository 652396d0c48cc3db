import copy
import json

import fingerprint

# a kept W_g across steps and a kept W and preparation within a step (the column and
# the block on its plane), re-linearized frames every iteration (soft-soft),
# turning plates, a rigid ball and every scheme
CASES = ["bench_column-fast-forced", "block_on_plane-fast-scene", "two_body_press-fast-forced",
         "grasp_rotate-standard-scene", "MIXED_SCENE-fast-forced", "COUPLED_BALL-single-scene"]


def test_case_names_cover_every_scene_scheme_and_tolerance():
    names = fingerprint.case_names()
    assert len(names) == len(set(names)) == (5 + 4) * 3 * 2
    assert set(CASES) <= set(names)


def test_two_runs_in_one_process_are_bitwise_equal():
    # each run builds its simulations afresh, so nothing a simulation keeps
    # between steps may leak into another's
    first = fingerprint.fingerprint(CASES, 2)
    second = fingerprint.fingerprint(CASES, 2)
    assert fingerprint.compare(first, second) == [f"{name}: bitwise" for name in CASES]


def test_compare_names_the_first_difference():
    base = fingerprint.fingerprint(["point_mass-fast-scene"], 2)
    steps = base["cases"]["point_mass-fast-scene"]
    q = fingerprint._decode(steps[1]["q0"])

    def changed(step, key, value):
        other = copy.deepcopy(steps)
        other[step][key] = value
        return fingerprint.compare_case(steps, other)

    assert changed(1, "q0", fingerprint._array(q * (1 + 1e-12))).startswith(
        "rounding (max relative ")
    assert changed(1, "q0", fingerprint._array(q * 1.01)).endswith("first at step 1, q0)")
    assert changed(0, "counts", [0, "penetration", []]).startswith(
        "differs (first at step 0, counts")
    assert fingerprint.compare_case(steps, steps[:1]) == "differs (2 against 1 steps)"


def test_noise_near_zero_reads_as_rounding():
    # a field that is rounding noise near zero, as a resting contact's
    # pen_after is, is scaled by the absolute floor, not by its own size
    steps = fingerprint.fingerprint(["point_mass-fast-scene"], 1)["cases"]["point_mass-fast-scene"]
    a, b = copy.deepcopy(steps), copy.deepcopy(steps)
    a[0]["pen_after"] = fingerprint._array(0.0)
    b[0]["pen_after"] = fingerprint._array(6.9e-18)
    assert fingerprint.compare_case(a, b) == (
        "rounding (max relative 6.900e-12; first at step 0, pen_after)")
    b[0]["pen_after"] = fingerprint._array(1e-12)  # 1e-12 m above the floor's rounding
    assert fingerprint.compare_case(a, b).startswith("differs (max relative 1.000e-06")


def test_command_line_round_trip(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert fingerprint.main(["--out", str(a), "--steps", "1", "--case", "point_mass-single"]) == 0
    assert fingerprint.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "point_mass-single-scene: bitwise", "point_mass-single-forced: bitwise"]
    data = json.loads(a.read_text())
    data["cases"]["point_mass-single-forced"][0]["counts"][0] += 1
    b.write_text(json.dumps(data))
    assert fingerprint.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[1].startswith(
        "point_mass-single-forced: differs (first at step 0, counts")
