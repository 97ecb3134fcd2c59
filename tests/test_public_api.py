"""The package's public surface."""

from pathlib import Path

import votedim


def test_every_exported_name_resolves():
    missing = [name for name in votedim.__all__ if not hasattr(votedim, name)]
    assert missing == []
    assert len(set(votedim.__all__)) == len(votedim.__all__)


def test_readme_library_example_runs(capsys):
    # The first python block of README.md is the documented library use.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "24\n24 core-boost\n"
