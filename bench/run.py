"""Run one obw benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: obw is imported from its `src/`.
One process, one closed-loop client: each CLI invocation (`obw.cli.main`
called in-process on a generated argv) starts after the previous one ends.
The seed builds a fixed round of invocations (gen.py). The first round is a
warm-up; it also computes the mpmath references the checks use (check.py).
Then whole rounds repeat until --seconds have passed and at least
MIN_TIMED invocations were timed. Every output is checked outside the timed
region.

The speed of a shared VM drifts by a factor of two or more within minutes,
and the process is as slow on its own CPU time as on the wall clock. So each
invocation's time is scaled to a fixed reference speed: it is multiplied by
REF_S over the time that a fixed pure-Python loop of the benchmark's own (no
obw code) took right before it. results_per_s, op_p50_ms and op_p90_ms are
figures at that speed; their raw wall-clock values go to stderr. setup_s is
raw wall time: a fresh interpreter's start-up does not follow the loop's
speed.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones:
setup_s, results_per_s, op_p50_ms, op_p90_ms, peak_rss_mb. With --trace 1
the public obw functions are wrapped (tracer.py) and the metrics are the
per-layer totals per round; the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import check
from gen import WORKLOADS, build_round
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
MIN_TIMED = 100  # so at least ten invocations lie beyond the 90th percentile
MAX_REPORTED_PROBLEMS = 20
REF_ITERS = 10_000
REF_S = 2e-3  # the reference speed: reference_loop() takes this long

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import obw.cli; obw.cli.build_parser()"
)


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERS):
        x = i * 1e-3
        acc += math.exp(-x) * x + math.sqrt(x + 1.0)
    return time.perf_counter() - t0


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import obw.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def invoke(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Run `obw <argv>` in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed invocation
            rc = -1
            err.write(traceback.format_exc())
    elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "obw" / "cli.py").is_file():
        print(f"bench: no obw sources under {SRC}", file=sys.stderr)
        return 2
    ops = build_round(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    import obw.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: obw imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    attempted = failed = 0
    problems: list[str] = []

    def run_round() -> tuple[list[float], list[float], int]:
        """Scaled and raw latencies of the invocations that exited 0, and records."""
        nonlocal attempted, failed
        scaled, raw, records = [], [], 0
        for op in ops:
            ref = reference_loop()
            rc, out, err, elapsed = invoke(cli, op.argv)
            attempted += 1
            if rc != 0:
                failed += 1
                problems.append(f"FAILED obw {' '.join(op.argv)}: exit {rc}: {err.strip()[-500:]}")
                continue
            scaled.append(elapsed * REF_S / ref)
            raw.append(elapsed)
            n, bad = check(op, out, err)
            records += n
            problems.extend(bad)
        return scaled, raw, records

    run_round()  # warm-up: lazy imports, first calls, reference values
    if tracer:
        tracer.reset()

    latencies: list[float] = []
    raw: list[float] = []
    records = rounds = 0
    start = time.perf_counter()
    while (rounds == 0 or time.perf_counter() - start < args.seconds
           or (not tracer and len(latencies) < MIN_TIMED)):
        lat, lat_raw, n = run_round()
        latencies += lat
        raw += lat_raw
        records += n
        rounds += 1
    wrong = sum(not p.startswith("FAILED") for p in problems)

    for line in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"bench: {line}", file=sys.stderr)
    busy, busy_raw = sum(latencies), sum(raw)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"timed={len(latencies)} round_s={busy_raw / rounds:.4f} "
          f"scaled_round_s={busy / rounds:.4f} wall_s={time.perf_counter() - start:.2f} "
          f"problems={len(problems)}", file=sys.stderr)

    if tracer:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in tracer.layer_metrics(rounds).items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "round_s": busy_raw / rounds})
    else:
        print(f"bench: raw wall clock: results_per_s={records / busy_raw:.2f} "
              f"op_p50_ms={1e3 * statistics.median(raw):.3f} "
              f"op_p90_ms={1e3 * statistics.quantiles(raw, n=10)[8]:.3f}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "results_per_s": {"value": records / busy if busy else 0.0, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * statistics.quantiles(latencies, n=10)[8],
                          "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(metric: str) -> str:
    field = metric.rpartition(".")[2]
    if field == "self_s":
        return "s"
    if field in ("err_max", "err_sum"):
        return "abs_err"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
