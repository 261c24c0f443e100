"""The README's eval, batch and sweep examples, reproduced byte for byte.

Each example is a text block of `$ command` lines, each followed by
what it prints (stdout, then stderr).  The examples run in README order
in one directory.  `cat FILE` shows a file: one that a command wrote is
compared, one that does not exist yet is created from the lines that
follow, as input for the commands after it.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from fisherbounds.cli import EXIT_DATA, EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("fisherbounds eval", "fisherbounds batch", "fisherbounds sweep")


def _examples() -> list[list[tuple[str, str]]]:
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        steps: list[tuple[str, str]] = []
        for line in block.splitlines(keepends=True):
            if line.startswith("$ "):
                steps.append((line[2:].strip(), ""))
            elif steps:
                steps[-1] = (steps[-1][0], steps[-1][1] + line)
        if any(command.startswith(COMMANDS) for command, _ in steps):
            examples.append(steps)
    return examples


EXAMPLES = _examples()


def test_readme_shows_every_example_command():
    commands = {command for steps in EXAMPLES for command, _ in steps}
    for prefix in COMMANDS:
        assert any(c.startswith(prefix) for c in commands), prefix


def test_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # shared, so later examples see earlier files
    for steps in EXAMPLES:
        for command, expected in steps:
            argv = shlex.split(command)
            if argv[0] == "cat":
                path = tmp_path / argv[1]
                if path.exists():
                    assert path.read_text(encoding="utf-8") == expected, command
                else:
                    path.write_text(expected, encoding="utf-8")
                continue
            assert argv[0] == "fisherbounds", command
            code = main(argv[1:])
            captured = capsys.readouterr()
            assert captured.out + captured.err == expected, command
            assert code == (EXIT_DATA if expected.startswith("error:") else EXIT_OK), command


def test_python_quickstart_matches_its_comments(capsys):
    # each print's comment starts with what it prints, and each commented
    # assignment whose comment starts with a number names its linear value
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    namespace: dict = {}
    exec(block, namespace)
    printed = capsys.readouterr().out.splitlines()
    commented = [line.split("#", 1) for line in block.splitlines() if "#" in line]
    expected = [(code.strip(), note.split()[0].rstrip(",")) for code, note in commented]
    prints = [value for code, value in expected if code.startswith("print(")]
    assert printed == prints
    assigned = {
        code.split("=")[0].strip(): value
        for code, value in expected
        if not code.startswith("print(") and re.fullmatch(r"-?[0-9.]+", value)
    }
    assert len(prints) + len(assigned) == 8
    for name, value in assigned.items():
        assert repr(namespace[name].linear_value) == value, name
