"""The README's Python and obw shell examples run against the current API."""

import re
import shlex
from pathlib import Path

from obw.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def shell_commands():
    """Each command of the README's sh blocks that runs obw or writes a
    file with echo, as its argv; continuation lines are joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] in ("obw", "echo"):
                commands.append(argv)
    return commands


def run_block(source):
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    return namespace


def test_every_python_block_runs(capsys):
    assert BLOCKS
    for source in BLOCKS:
        run_block(source)


def test_tour_prints_the_kernel_representation(capsys):
    # the tour's last line prints int rho(x, t) f'(t) dt, which equals tau
    tour = run_block(BLOCKS[0])
    printed = capsys.readouterr().out.splitlines()
    assert "kernel_integral" in BLOCKS[0].splitlines()[-1]
    assert abs(float(printed[-1]) - tour["bs"].deviation) <= 1e-10


def test_every_obw_example_exits_zero(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = shell_commands()
    assert sum(argv[0] == "obw" for argv in commands) >= 6
    assert any("--config" in argv for argv in commands)
    for argv in commands:
        if argv[0] == "echo":  # echo TEXT > FILE
            text, redirect, path = argv[1:]
            assert redirect == ">"
            Path(path).write_text(text + "\n", encoding="utf-8")
        else:
            assert main(argv[1:]) == 0, argv
