"""The README's command line tour and library example, run as written."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from mayext.cli_runner import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _tour():
    """(argv text, expected stdout lines) for each `$ mayext ...` entry."""
    entries = []
    for chunk in _block("Command line tour", "text").strip().split("\n\n"):
        command, *lines = chunk.split("\n")
        assert command.startswith("$ mayext "), command
        entries.append((command[len("$ mayext "):], lines))
    return entries


def _name(command: str) -> str:
    """Test id: the subcommand words, e.g. "greek-thom"."""
    words = shlex.split(command)
    if words[0] == "-p":
        words = words[2:]
    name = []
    for word in words:
        if not re.fullmatch(r"[a-z][a-z0-9-]*", word):
            break
        name.append(word)
    return "-".join(name)


TOUR = _tour()


@pytest.mark.parametrize("command, expected", TOUR, ids=[_name(c) for c, _ in TOUR])
def test_tour_command(command, expected):
    # stdout only: `basis` writes its "total" line to stderr, which the
    # tour does not show
    res = CliRunner().invoke(main, shlex.split(command))
    assert res.exit_code == 0
    assert res.stdout.splitlines() == expected


def test_library_example(capsys):
    code = _block("Library", "python")
    assert "# UpperBound 1" in code
    exec(code, {})
    assert capsys.readouterr().out == "UpperBound 1\n"
