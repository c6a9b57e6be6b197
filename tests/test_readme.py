"""The README's library example runs and prints what it documents, and its
CLI usage lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from multisimul import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "['hello', 'world']"
    assert float(lines[1]) > 0  # the AL line
    assert lines[2] == "['hello', 'world']"  # the offline decode


def _cli_lines():
    """Every ``multisimul`` command of the README's sh blocks, with the lines
    that a backslash continues joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.split(None, 1)[1] for line in lines if line.startswith("multisimul ")]


CLI_LINES = _cli_lines()


def test_readme_documents_every_command():
    assert {line.split()[0] for line in CLI_LINES} == {
        "score", "noise-train", "noise-apply", "independence", "simulate", "sweep",
    }


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[0] for line in CLI_LINES])
def test_cli_usage_parses(line):
    # [...] marks optional arguments: the line parses with and without them
    for argv in (re.sub(r"\[.*?\]", "", line), line.replace("[", "").replace("]", "")):
        cli.build_parser().parse_args(shlex.split(argv))
