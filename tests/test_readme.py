"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (tmp_path / "scan.txt").write_text("198.51.100.7\n198.51.100.8\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["prefix_stats"]) == 1
    assert namespace["plan"].total_targets() == 2
    assert capsys.readouterr().out == "198.51.100.0/24 2 False\n"
