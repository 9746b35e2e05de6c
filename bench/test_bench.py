"""Tests of the benchmark itself: its checks reject corrupted output, its
traced per-layer counts repeat exactly, and it refuses to run without the
obw sources.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import obw.cli  # noqa: E402
from check import check  # noqa: E402
from gen import WORKLOADS, build_round  # noqa: E402
from run import invoke  # noqa: E402


def _first(workload: str, kind: str):
    return next(op for op in build_round(workload, 7) if op.kind == kind)


def _bump_digit(number: str, index: int) -> str:
    """Change the mantissa digit at `index` (0 is the leading digit)."""
    pos = [i for i, ch in enumerate(number) if ch.isdigit()][index]
    return number[:pos] + str((int(number[pos]) + 1) % 10) + number[pos + 1:]


def _corrupt_csv(out: str, column: int) -> str:
    lines = out.splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    fields[column] = _bump_digit(fields[column], 5)
    lines[1] = ",".join(fields) + "\n"
    return "".join(lines)


def _corrupt_line(out: str, key: str) -> str:
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        name, _, value = line.partition(" = ")
        if name == key:
            lines[i] = f"{name} = {_bump_digit(value, 5)}"
    return "".join(lines)


@pytest.mark.parametrize(
    "workload, kind, corrupt, field",
    [
        ("corpus-sweep", "audit", lambda out: _corrupt_csv(out, 5), "exact_inf_factor"),
        ("corpus-sweep", "sharpness", lambda out: _corrupt_csv(out, 3), "ratio"),
        ("cdf-grid", "cdf", lambda out: _corrupt_csv(out, 1), "F_w"),
        ("expr-queries", "bounds", lambda out: _corrupt_line(out, "tau"), "tau"),
        ("expr-queries", "bounds", lambda out: _corrupt_line(out, "exact_p"), "exact_p"),
    ],
)
def test_checker_rejects_one_perturbed_digit(workload, kind, corrupt, field):
    op = _first(workload, kind)
    rc, out, err, _ = invoke(obw.cli, op.argv)
    assert rc == 0, err
    records, problems = check(op, out, err)
    assert records > 0 and problems == []
    _, problems = check(op, corrupt(out), err)
    assert any(field in p for p in problems), problems


def test_checker_rejects_verify_failure():
    op = _first("corpus-sweep", "verify")
    out = "identity: 1 failures (180 checked)\nsoundness: 0 failures (180 checked)\n"
    _, problems = check(op, out, "")
    assert len(problems) == 2  # one failure, and two of the four suites missing


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat(workload):
    metrics = _traced(workload, 3)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    first = {k: v["value"] for k, v in metrics.items()}
    second = {k: v["value"] for k, v in _traced(workload, 3).items()}
    counts = [k for k in first if not k.endswith("self_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["cli.main.calls"] == len(build_round(workload, 3))
    spans = HERE / "out" / f"spans-{workload}-seed3.jsonl"
    head = json.loads(spans.read_text().splitlines()[0])
    assert head["workload"] == workload and head["spans"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
