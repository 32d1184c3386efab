"""The README's command-line examples print what the README shows.

Every ``$ wcetbound ...`` line of a README code block that is followed by
output runs through ``cli.main`` in one scratch directory, in README order,
so files written by one command (``demo.prog``) are read by the next.  A
``$ cat FILE`` line writes the lines shown under it to FILE.  ``elapsed:``
lines are left out on both sides.
"""

import shlex
from pathlib import Path

from wcetbound.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def sessions(text):
    """(command, shown output lines) pairs from the README's code blocks."""
    out = []
    in_block = False
    shown = None  # the output lines of this block's latest command
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, shown = not in_block, None
        elif in_block and line.startswith("$ "):
            shown = []
            out.append((line[2:], shown))
        elif shown is not None:
            shown.append(line)
    return out


def without_elapsed(lines):
    return [line for line in lines if not line.startswith("elapsed:")]


def test_readme_commands_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = set()
    for command, shown in sessions(README.read_text()):
        argv = shlex.split(command)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(shown) + "\n")
            continue
        if argv[0] != "wcetbound" or not shown:
            continue
        capsys.readouterr()
        assert main(argv[1:]) == 0, command
        printed = capsys.readouterr().out.splitlines()
        assert without_elapsed(printed) == without_elapsed(shown), command
        ran.add(argv[1])
    assert ran == {"example", "wcet", "simulate", "feasibility", "sweep"}
