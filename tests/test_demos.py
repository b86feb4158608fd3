"""Each demo script runs to the end against the current API, writing into a temporary directory."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.main()
    assert capsys.readouterr().out
    assert not hasattr(demo, "OUT") or any(tmp_path.iterdir())
