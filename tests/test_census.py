"""The benchmark's job outcomes match the committed failure census.

``tests/census/`` holds the lines of ``tools/replay.py --census`` (seed, job,
exit code, error class, missed check) for decay_phases seeds 1-30 and
pole_scan and bath_ladder seeds 1-3.  The census records failures; it turns
none into a pass.  A change that fixes a job rewrites its census file.  Seed 3
of each workload replays here; the other seeds replay with the tool.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPLAY = ROOT / "tools" / "replay.py"


@pytest.mark.parametrize("workload", ["decay_phases", "pole_scan", "bath_ladder"])
def test_seed_3_matches_census(workload):
    done = subprocess.run([sys.executable, str(REPLAY), workload, "3", "--census",
                           str(ROOT / "tests" / "census" / f"{workload}.txt")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


RECORDED = ["3 pole01 0 - -", "3 survival02 4 DualMethodMismatch -",
            "3 density04 1 AmplitudeOutOfRange -"]


@pytest.mark.parametrize("line, code, message", [
    ("3 survival02 0 - -", 0, "new pass"),
    ("3 pole01 3 NoConvergence -", 1, "new failure"),
    ("3 pole01 0 - alpha_residual", 1, "new failure"),
    ("3 density04 4 DualMethodMismatch -", 1, "changed failure"),
    ("3 density04 0 - density_trace", 1, "changed failure"),
    ("4 pole01 0 - -", 1, "not in the census"),
])
def test_census_compare(tmp_path, capsys, line, code, message):
    spec = importlib.util.spec_from_file_location("replay", REPLAY)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    path = tmp_path / "census.txt"
    assert replay.census(RECORDED, path) == 0
    assert path.read_text().splitlines() == RECORDED
    assert replay.census(RECORDED, path) == 0
    capsys.readouterr()
    assert replay.census(RECORDED[:1] + [line], path) == code
    assert f"{message}: {line}" in capsys.readouterr().out
