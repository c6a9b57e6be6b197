"""The README's library example runs and prints what it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "['hello', 'world']"
    assert float(lines[1]) > 0  # the AL line
