import re
from pathlib import Path

import memory_phases  # beside this file
from contactnewton import dynamics, linalg

SCENES = Path(__file__).resolve().parents[1] / "scenes"
PHASES = ("load", "Simulation()", "assembly", "factorization", "first step")


def test_memory_phases_prints_every_phase_of_every_setup(capsys):
    assemble, init = dynamics.assemble_stiffness, linalg.Factorization.__init__
    assert memory_phases.main([str(SCENES / "bench_column.scn"), "--setups", "2",
                               "--divisions", "7", "6", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("start")
    # the column factors once per set-up, inside its first step
    assert [line.split("  ")[1].strip() for line in lines[1:]] == [
        name for _ in range(2) for name in PHASES]
    for line in lines[1:]:
        rss = re.search(r"VmRSS +([\d.]+|-) -> +([\d.]+|-) MB +peak +([\d.]+) MB$", line)
        assert rss, line
        assert float(rss[3]) > 0
    # the wrapped functions are restored
    assert (dynamics.assemble_stiffness, linalg.Factorization.__init__) == (assemble, init)
