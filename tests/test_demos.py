"""The narrative demos run to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_graphs_and_words.py",
    "02_minsquare_structure.py",
    "03_relative_hyperbolicity.py",
    "04_hyperplanes_and_balls.py",
    "05_electrification.py",
    "06_qi_comparison.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
