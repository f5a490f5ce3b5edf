"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[1].endswith("/raw.log") and Path(printed[1]).is_file()
