"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


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
