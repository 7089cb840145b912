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


def test_readme_quick_start(capsys):
    # the fenced block of README "Library quick start" runs, and each print
    # with a comment shows the commented output (the prints before it write
    # one line each)
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    shown = {i: line.split("# ", 1)[1] for i, line in enumerate(prints) if "# " in line}
    assert list(shown.values()) == ["({a,b,c,d},)", "proper"]
    for i, want in shown.items():
        assert out[i] == want
