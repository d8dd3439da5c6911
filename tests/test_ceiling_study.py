"""The ceiling study's recorded winners, recomputed through its own check."""

import importlib.util
import json
from pathlib import Path

from fockpulse import CompositePulse

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_study():
    spec = importlib.util.spec_from_file_location(
        "ceiling_study", TOOLS / "ceiling_study.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorded_joint_three_pulse_winner_reproduces():
    study = _load_study()
    lines = (TOOLS / "ceiling_study.txt").read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.split()[:2] == ["joint", "3"])
    winner = CompositePulse.from_dicts(json.loads(lines[head + 1]))
    grid = study.GridFloors(3)
    # raises when the batched floors and ``sweep`` differ by more than 1e-9
    row = study.checked_floors(grid, grid.layout.pack(winner))
    floors = [
        f"{row[key]:.5f}"
        for key in ("phase_floor", "duration_floor", "duration_floor_whole_periods")
    ]
    assert floors == lines[head].split()[2:5] == ["0.96904", "0.96899", "0.97318"]
