"""Command-line surface: bounds, verify, audit, sharpness, cdf."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import astuple
from typing import Sequence

from .bounds import (
    AUDIT_COLUMNS,
    audit_paper_vs_exact,
    bound_set,
    sharpness_search,
)
from .cdf import CDF_COLUMNS, DensityModel, cdf_report
from .corpus import function_by_name
from .expr import ParseError, as_fn1d, compile_expr, parse
from .kernel import TauParams
from .quadrature import Fn1D, QuadConfig, QuadratureError
from .suites import run_verify_suites
from .weights import Weight, WeightSpecError, builtin_weight, tabulated_weight

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


class _UsageError(ValueError):
    """Missing or conflicting flags, or a bad config file."""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.8e}"  # 9 significant digits, fixed exponent style
    return str(v)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _weight(spec: str, a: float, b: float) -> Weight:
    """Specs look like "uniform" or "power:p=1,q=0"."""
    name, _, tail = spec.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise WeightSpecError(
                    f"bad weight parameter {item!r} in {spec!r}"
                ) from None
    return builtin_weight(name, a, b, **params)


def _weights(text: str, a: float, b: float) -> list[Weight]:
    """Comma list of specs; a bare key=value item belongs to the spec before it."""
    specs: list[str] = []
    for item in text.split(","):
        if specs and "=" in item and ":" not in item:
            specs[-1] += "," + item
        else:
            specs.append(item)
    return [_weight(spec, a, b) for spec in specs]


def _coeff_pairs(spec: str) -> list[tuple[float, float]]:
    pairs = []
    for item in spec.split(","):
        a_str, _, b_str = item.partition(":")
        try:
            pairs.append((float(a_str), float(b_str)))
        except ValueError:
            raise _UsageError(f"--alphas: bad item {item!r} (expected alpha:beta)") from None
    return pairs


# 129 Chebyshev points of the first kind on [-1, 1], ascending.
_SIGN_CHECK_NODES = tuple(math.cos(math.pi * (k + 0.5) / 129) for k in reversed(range(129)))


def _check_samples(fn, a: float, b: float, flag: str, nonnegative: bool = False) -> None:
    """Sample fn on a grid inside (a, b); a point with no real value (fn
    raises ValueError), or with `nonnegative` a negative value, raises
    ValueError naming flag and t.

    NaN and infinite values are left to the quadrature, which rejects them.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    for c in _SIGN_CHECK_NODES:
        t = mid + half * c
        try:
            v = fn(t)
        except ValueError as exc:
            raise ValueError(f"{flag} is not real at t={t:.9g}: {exc}") from None
        if nonnegative and v < 0:
            raise ValueError(f"{flag} is negative at t={t:.9g}: value {v:.9g}")


def _expression(text: str, flag: str, a: float, b: float) -> Fn1D:
    """The expression with its derivative; it must be real on the sample grid."""
    f = as_fn1d(text)
    _check_samples(f.fn, a, b, flag)
    return f


def _function(text: str, a: float, b: float) -> Fn1D:
    try:
        return function_by_name(text)
    except ValueError:
        return _expression(text, "--function", a, b)


def _weight_expr(text: str, a: float, b: float, cfg: QuadConfig) -> Weight:
    """The weight w(t) = text: not negative on the sample grid, with positive mass."""
    fn = compile_expr(parse(text))
    _check_samples(fn, a, b, "--weight-expr", nonnegative=True)
    w = tabulated_weight(text, fn, a, b, cfg)
    if not w.total > 0:
        raise ValueError(f"--weight-expr has no positive mass on [{a:g}, {b:g}]")
    return w


def _check_x(x: float, w: Weight) -> None:
    """--x must lie in the weight's domain [a, b]."""
    if not w.a <= x <= w.b:
        raise _UsageError(f"--x must lie in [a, b] = [{w.a:g}, {w.b:g}], got {x:g}")


def _interior_grid(a: float, b: float, n: int) -> list[float]:
    if n < 1:
        raise _UsageError(f"--x-grid must be at least 1, got {n}")
    return [a + (b - a) * k / (n + 1) for k in range(1, n + 1)]


def _cmd_bounds(args, cfg: QuadConfig) -> tuple[str, int]:
    errors = []
    if args.x is None:
        errors.append("--x is required")
    if args.function is None:
        errors.append("--function is required")
    if args.weight is not None and args.weight_expr is not None:
        errors.append("--weight and --weight-expr are mutually exclusive")
    if errors:
        raise _UsageError("; ".join(errors))

    f = _function(args.function, args.a, args.b)
    if args.weight_expr is not None:
        w = _weight_expr(args.weight_expr, args.a, args.b, cfg)
    else:
        w = _weight("uniform" if args.weight is None else args.weight, args.a, args.b)
    _check_x(args.x, w)
    params = TauParams(a=args.a, b=args.b, x=args.x, alpha=args.alpha, beta=args.beta)
    result = bound_set(f, w, params, args.p, cfg)

    record = {
        "tau": result.deviation,
        "paper_inf": result.paper.inf,
        "paper_p": result.paper.p,
        "paper_one": result.paper.one,
        "exact_inf": result.exact.inf,
        "exact_p": result.exact.p,
        "exact_one": result.exact.one,
        "norm_inf": result.norms.inf,
        "norm_p": result.norms.p_norm,
        "norm_one": result.norms.one,
    }
    record.update({f"ratio_{k}": v for k, v in result.ratios().items()})
    if args.norm:
        keep = {"tau"} | {k for k in record if k.endswith(f"_{args.norm}")}
        record = {k: v for k, v in record.items() if k in keep}

    if args.format == "json":
        text = json.dumps({k: _fmt(v) for k, v in record.items()}, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv(list(record), [list(record.values())])
    else:
        text = "".join(f"{k} = {_fmt(v)}\n" for k, v in record.items())
    return text, EXIT_OK


def _cmd_verify(args, cfg: QuadConfig) -> tuple[str, int]:
    report = run_verify_suites(cfg)
    lines = report.summary_lines()
    for failure in (
        report.identity_failures
        + report.soundness_failures
        + report.reduction_failures
        + report.equivalence_failures
    ):
        lines.append(f"FAIL {failure}")
    text = "".join(line + "\n" for line in lines)
    return text, EXIT_OK if report.passed else EXIT_COMPUTE


def _cmd_audit(args, cfg: QuadConfig) -> tuple[str, int]:
    xs = _interior_grid(args.a, args.b, args.x_grid)
    weights = _weights(args.weights, args.a, args.b)
    rows = audit_paper_vs_exact(weights, xs, _coeff_pairs(args.alphas), cfg)
    text = _csv(
        AUDIT_COLUMNS,
        [
            [r.weight_name, r.x, r.alpha, r.beta, r.paper_inf_factor,
             r.exact_inf_factor, r.ratio, r.flagged]
            for r in rows
        ],
    )
    return text, EXIT_OK


def _cmd_sharpness(args, cfg: QuadConfig) -> tuple[str, int]:
    xs = _interior_grid(args.a, args.b, args.x_grid)
    w = _weight(args.weight, args.a, args.b)
    best, rows = sharpness_search(w, xs, _coeff_pairs(args.alphas), args.kind, cfg)
    print(
        f"best ratio {_fmt(best.ratio)} at x={_fmt(best.x)} "
        f"(alpha={best.alpha:g}, beta={best.beta:g})",
        file=sys.stderr,
    )
    return _csv(("x", "alpha", "beta", "ratio"), map(astuple, rows)), EXIT_OK


def _cmd_cdf(args, cfg: QuadConfig) -> tuple[str, int]:
    errors = []
    if args.density is None:
        errors.append("--density is required")
    if args.x is None and args.x_grid is None:
        errors.append("one of --x or --x-grid is required")
    if args.x is not None and args.x_grid is not None:
        errors.append("--x and --x-grid are mutually exclusive")
    if errors:
        raise _UsageError("; ".join(errors))

    xs = [args.x] if args.x is not None else _interior_grid(args.a, args.b, args.x_grid)
    w = _weight(args.weight, args.a, args.b)
    if args.x is not None:
        _check_x(args.x, w)
    density = as_fn1d(args.density)
    _check_samples(density.fn, args.a, args.b, "--density", nonnegative=True)
    model = DensityModel(density, w, cfg)
    rows = cdf_report(model, xs, args.alpha, args.beta, args.p)
    return _csv(CDF_COLUMNS, map(astuple, rows)), EXIT_OK


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command, by name.

    Built on first use and kept for the process: nothing in it depends on
    the invocation (`OBW_TOL` and `--config` are read by `main`).
    """
    parser = argparse.ArgumentParser(
        prog="obw",
        description=(
            "Weighted deviation functionals, their derivative-norm error "
            "bounds, and CDF applications."
        ),
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command")

    def command(name: str, run, summary: str, interval: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if interval:
            p.add_argument("--a", type=float, default=0.0)
            p.add_argument("--b", type=float, default=1.0)
        p.add_argument("--tol", type=float, default=None,
                       help="absolute quadrature tolerance (default OBW_TOL, else 1e-10)")
        p.add_argument("--max-subdiv", type=int, default=1000)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        return p

    p_bounds = command("bounds", _cmd_bounds, "deviation and bound set for one configuration")
    p_bounds.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p_bounds.add_argument("--x", type=float, default=None)
    p_bounds.add_argument("--alpha", type=float, default=1.0)
    p_bounds.add_argument("--beta", type=float, default=1.0)
    p_bounds.add_argument("--weight", default=None, help="builtin weight spec")
    p_bounds.add_argument("--weight-expr", default=None, help="weight as an expression in t")
    p_bounds.add_argument("--function", default=None, help="expression in t or registry name")
    p_bounds.add_argument("--p", type=float, default=2.0)
    p_bounds.add_argument("--norm", choices=("inf", "p", "one"), default=None,
                          help="restrict the report to one branch")

    command("verify", _cmd_verify, "run the corpus-wide verification suites", interval=False)

    p_audit = command("audit", _cmd_audit, "printed vs exact sup-norm bound factors")
    p_audit.add_argument("--weights", default="uniform,decreasing,increasing")
    p_audit.add_argument("--x-grid", type=int, default=9)
    p_audit.add_argument("--alphas", default="1:1,2:1",
                         help="comma list of alpha:beta pairs")

    p_sharp = command("sharpness", _cmd_sharpness, "empirical sharpness sweep")
    p_sharp.add_argument("--weight", default="uniform")
    p_sharp.add_argument("--x-grid", type=int, default=9)
    p_sharp.add_argument("--alphas", default="1:1,2:1")
    p_sharp.add_argument("--kind", choices=("exact_inf", "exact_one"),
                         default="exact_inf")

    p_cdf = command("cdf", _cmd_cdf, "CDF bound report for a density")
    p_cdf.add_argument("--density", default=None, help="density expression in t")
    p_cdf.add_argument("--weight", default="uniform")
    p_cdf.add_argument("--x", type=float, default=None)
    p_cdf.add_argument("--x-grid", type=int, default=None)
    p_cdf.add_argument("--alpha", type=float, default=1.0)
    p_cdf.add_argument("--beta", type=float, default=1.0)
    p_cdf.add_argument("--p", type=float, default=2.0)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, shared by every call in the process."""
    return _parsers()[0]


def _config_defaults(
    command: argparse.ArgumentParser, path: str
) -> dict[argparse.Action, str]:
    """The file's values by the command's flag, each as if typed on the command line."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"bad config file: {exc}") from None
    if not isinstance(values, dict):
        raise _UsageError("bad config file: expected a JSON object")
    flags = {action.dest: action for action in command._actions if action.dest != "help"}
    defaults = {}
    for key, value in values.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise _UsageError(f"config key {key!r} is not a flag of {command.prog}")
        text = str(value)
        if action.choices is not None and text not in action.choices:
            raise _UsageError(f"config key {key!r}: {text!r} is not one of {action.choices}")
        defaults[action] = text
    return defaults


def _parse_with_config(
    parser: argparse.ArgumentParser,
    command: argparse.ArgumentParser,
    path: str,
    argv: Sequence[str] | None,
) -> argparse.Namespace:
    """Parse argv with the config file's values as the command's defaults.

    The parsers are shared by every call in the process, so the defaults
    are put back before returning.
    """
    defaults = _config_defaults(command, path)
    saved = {action: action.default for action in defaults}
    try:
        for action, text in defaults.items():
            action.default = text
        return parser.parse_args(argv)
    finally:
        for action, default in saved.items():
            action.default = default


def _tol(flag: float | None) -> float:
    """--tol if given, else OBW_TOL as it is set now, else 1e-10."""
    if flag is not None:
        return flag
    text = os.environ.get("OBW_TOL", "1e-10")
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"OBW_TOL: invalid float value: {text!r}") from None


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.config:
            args = _parse_with_config(parser, commands[args.command], args.config, argv)
        cfg = QuadConfig(abs_tol=_tol(args.tol), max_subdivisions=args.max_subdiv)
        text, code = args.run(args, cfg)
        _write(args.output, text)
        return code
    except (ParseError, WeightSpecError, _UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: arithmetic failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_COMPUTE
    except (QuadratureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
