"""No command loads SciPy in a fresh process."""

import json
import os
import subprocess
import sys

import pytest

import obw
from obw.cli import main

# runs argv (JSON in argv[1]) through obw.cli.main in a fresh interpreter;
# the last stderr line says whether SciPy was loaded
SCRIPT = """\
import json, sys
import obw.cli
code = obw.cli.main(json.loads(sys.argv[1]))
sys.stdout.flush()
print("scipy loaded:", "scipy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def fresh(*argv):
    """(exit code, stdout, stderr less its last line, whether SciPy loaded)."""
    src = os.path.dirname(os.path.dirname(obw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    *err, last = done.stderr.splitlines(keepends=True)
    assert last.startswith("scipy loaded: ")
    return done.returncode, done.stdout, "".join(err), last == "scipy loaded: True\n"


@pytest.mark.parametrize("argv", [
    ("bounds", "--x", "0.5", "--function", "t^2", "--weight", "uniform"),
    ("bounds", "--x", "0.3", "--weight-expr", "1 + t", "--function", "sin(3*t)"),
    ("cdf", "--density", "2*t", "--weight", "uniform", "--x", "0.5"),
    ("audit", "--weights", "uniform,exponential,truncnorm", "--x-grid", "9"),
    ("sharpness", "--weight", "exponential", "--x-grid", "5"),
], ids=["bounds-uniform", "bounds-weight-expr", "cdf-uniform", "audit", "sharpness"])
def test_scipy_stays_unloaded(argv):
    code, out, _, scipy = fresh(*argv)
    assert code == 0 and out
    assert not scipy


@pytest.mark.parametrize("argv", [
    ("audit", "--weights", "power:p=-0.3", "--x-grid", "9"),
    ("audit", "--weights", "power:p=-0.49,q=0.7", "--x-grid", "9"),
    ("cdf", "--density", "2*t", "--weight", "arcsine", "--x", "0.5"),
    ("audit",),
    ("verify",),
], ids=["audit-power", "audit-power-two-keys", "cdf-arcsine", "audit-default", "verify"])
def test_no_command_loads_scipy(argv, capsys):
    code, out, err, scipy = fresh(*argv)
    assert (code, err) == (0, "")
    assert not scipy
    assert main(list(argv)) == 0
    assert out == capsys.readouterr().out


def test_non_integrable_power_is_a_compute_error():
    code, out, err, _ = fresh("audit", "--weights", "power:p=-1", "--x-grid", "9")
    assert (code, out) == (1, "")
    assert err == "error: power weight requires p > -1 and q > -1 for integrability\n"
