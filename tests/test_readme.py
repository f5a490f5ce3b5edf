"""The README's examples run as written: the "Library use" code, and the
application, deployment config and load profile of "File formats" together."""

import re
from pathlib import Path

from faasbench.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[1].endswith("/raw.log") and Path(printed[1]).is_file()


def test_the_file_format_examples_run_together(tmp_path, capsys):
    text = README.read_text()
    docs = {}
    for name, heading in (("app", "Application"), ("config", "Deployment config"), ("profile", "Load profile")):
        docs[name] = tmp_path / f"{name}.json"
        docs[name].write_text(re.search(rf"\*\*{heading}\*\*.*?```json\n(.*?)```", text, re.S).group(1))
    assert main(["validate", str(docs["app"])]) == EXIT_OK
    assert ": ok (" in capsys.readouterr().out
    assert main(["run", str(docs["app"]), "--config", str(docs["config"]), "--profile", str(docs["profile"]),
                 "--scale", "0.01", "--out", str(tmp_path / "out")]) == EXIT_OK
