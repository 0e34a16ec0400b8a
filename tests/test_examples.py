"""The README's library example and the demo scripts run as published.

Each runs in its own temporary working directory: weight_profiles.py
writes its chart and CSV there.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_library_example():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_all_three_demos_found():
    assert [p.name for p in DEMOS] == [
        "catalog_tour.py", "exactness_demo.py", "weight_profiles.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    if demo.stem == "weight_profiles":
        assert (tmp_path / "weight_profile_d41.svg").exists()
        assert (tmp_path / "weight_profile_d41.csv").exists()
