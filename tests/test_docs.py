"""The README's code examples run as written, and its figures name the code's constants."""

import re
from pathlib import Path

from candlegate.forecaster import Forecasts
from candlegate.market_data import BLOCK

README = Path(__file__).resolve().parent.parent / "README.md"


def _example(heading: str) -> str:
    """The first Python block after the given README heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^## {heading}\n.*?```python\n(.*?)```", text, re.S | re.M).group(1)


def test_library_use_example_runs_on_the_block_path(monkeypatch, capsys):
    """The example runs from the repository root, and its forecaster never takes the
    per-origin path, whose forecasts are stacked into columns."""
    monkeypatch.chdir(README.parent)
    stacked = []
    stack = Forecasts.stack.__func__

    def counting_stack(cls, forecasts):
        stacked.append(len(forecasts))
        return stack(cls, forecasts)

    monkeypatch.setattr(Forecasts, "stack", classmethod(counting_stack))
    exec(compile(_example("Library use"), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("Models") and "drift+gate" in out
    assert stacked == []


def test_readme_names_the_current_block_size():
    stated = re.findall(r"`(?:indicators\.)?BLOCK` \((\d+)\)", README.read_text(encoding="utf-8"))
    assert len(stated) >= 2 and set(stated) == {str(BLOCK)}, stated
