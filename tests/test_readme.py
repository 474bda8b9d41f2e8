"""The README's examples run as written: every `mockmod ...` line of its
command-line block exits 0, and its Python API block runs."""
import re
import shlex
from pathlib import Path

import pytest

from mockmod.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str, heading: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("sh", "Command line").splitlines()
            if line.startswith("mockmod ")]


def test_readme_has_examples():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `--json report.json` writes here
    assert main(shlex.split(line)[1:]) == 0


def test_readme_python_api_runs(capsys):
    exec(_block("python", "Python API"), {})
    assert "rank.transform pass" in capsys.readouterr().out
