"""Command-line surface: bounds, verify, audit, sharpness, cdf."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import fields
from operator import attrgetter
from typing import Iterable, NoReturn, Sequence

from .bounds import (AuditRow, SharpnessRow, audit_columns, audit_grid, bound_set,
                     sharpness_search)
from .cdf import CdfReport, DensityModel, cdf_report
from .corpus import FUNCTION_SOURCES
from .expr import ParseError, as_fn1d, compile_expr, parse
from .kernel import TauParams
from .quadrature import DegenerateIntervalError, Fn1D, QuadConfig, QuadratureError
from .suites import run_verify_suites
from .weights import Weight, WeightSpecError, _check_domain, builtin_weight, tabulated_weight

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


class _UsageError(ValueError):
    """A missing, conflicting or malformed flag, or a bad config file."""


# A token with one leading "-" is a value (a negative number in any form
# float() reads, the expression -t^2, the pair -1:2) unless it names a flag,
# which argparse checks first; every flag but -h starts with "--". The
# pattern argparse has (Python 3.10-3.13) takes only plain decimals.
_LEADING_MINUS_VALUE = re.compile(r"-[^-]")


class _Parser(argparse.ArgumentParser):
    """Raises a flag error as _UsageError, which `main` reports, and reads
    a token with one leading "-" after a flag as its value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _LEADING_MINUS_VALUE

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


# a value's form by its declared type: a float to 9 significant digits in
# exponent style; "text" is a cell already formatted, written as it is
_FORMATS = {"str": "%s", "float": "%.8e", "bool": "%d", "text": "%s"}


@functools.cache
def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _csv(names: Sequence[str], types: Sequence[str],
         blocks: Iterable[Sequence[Sequence]]) -> str:
    """CSV headed by names, then each block of columns of the given types
    in turn, each block read when its turn comes: one %-template a row,
    after a str value is quoted as csv.writer quotes it."""
    template = ",".join(_FORMATS[t] for t in types) + "\n"
    text = [",".join(names) + "\n"]
    for columns in blocks:
        columns = [map(_csv_field, c) if t == "str" else c for t, c in zip(types, columns)]
        text.append("".join(map(template.__mod__, zip(*columns))))
    return "".join(text)


def _table(row_type, rows) -> str:
    """CSV of dataclass rows, headed by the names of row_type's fields."""
    fs = fields(row_type)
    return _csv([f.name for f in fs], [f.type for f in fs],
                [[list(map(attrgetter(f.name), rows)) for f in fs]])


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
    """--alphas: a comma list of alpha:beta pairs."""
    pairs = []
    for item in spec.split(","):
        a_str, _, b_str = item.partition(":")
        try:
            pairs.append((float(a_str), float(b_str)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad item {item!r} (expected alpha:beta)") from None
    return pairs


def _grid_size(text: str) -> int:
    """--x-grid: the number of interior points, at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _exponent(text: str) -> float:
    """--p: the derivative norm's exponent, a finite number > 1."""
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 1 < p < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be a finite number > 1, got {p:g}")
    return p


# 129 Chebyshev points of the first kind on [-1, 1], ascending.
_SIGN_CHECK_NODES = tuple(math.cos(math.pi * (k + 0.5) / 129) for k in reversed(range(129)))


def _check_samples(fn, a: float, b: float, flag: str, nonnegative: bool = False) -> None:
    """Sample fn on a grid inside (a, b); a point with no real value (fn
    raises ValueError) or where fn's arithmetic fails (ArithmeticError:
    a division by zero, an overflow), or with `nonnegative` a negative
    value, raises ValueError naming flag and t.

    NaN and infinite values are left to the quadrature, which rejects them.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    for c in _SIGN_CHECK_NODES:
        t = mid + half * c
        try:
            v = fn(t)
        except ValueError as exc:
            raise ValueError(f"{flag} is not real at t={t:.9g}: {exc}") from None
        except ArithmeticError as exc:
            raise ValueError(f"{flag} fails at t={t:.9g}: {type(exc).__name__}: {exc}") from None
        if nonnegative and v < 0:
            raise ValueError(f"{flag} is negative at t={t:.9g}: value {v:.9g}")


def _expression(text: str, flag: str, a: float, b: float, nonnegative: bool = False) -> Fn1D:
    """The expression with its derivative; it must be real on the sample grid."""
    f = as_fn1d(text)
    _check_samples(f.fn, a, b, flag, nonnegative)
    return f


def _function(text: str, a: float, b: float) -> Fn1D:
    """--function: a registry name stands for its expression."""
    return _expression(FUNCTION_SOURCES.get(text, text), "--function", a, b)


def _flag_table(flag: str, a: float, b: float, build):
    """build(), the table of flag's expression on [a, b]; a failure names the flag."""
    try:
        return build()
    except DegenerateIntervalError:  # no positive mass, which the model names
        raise
    except QuadratureError as exc:
        raise QuadratureError(f"{flag} table on [{a:g}, {b:g}]: {exc}") from None
    except (ValueError, ArithmeticError) as exc:  # at a point between the samples
        raise ValueError(f"{flag} table on [{a:g}, {b:g}]: {type(exc).__name__}: {exc}") from None


def _weight_expr(text: str, a: float, b: float, cfg: QuadConfig) -> Weight:
    """The weight w(t) = text: not negative on the sample grid, with positive mass."""
    fn = compile_expr(parse(text))
    _check_domain(a, b)  # before the samples, so a bad domain keeps its own message
    _check_samples(fn, a, b, "--weight-expr", nonnegative=True)
    w = _flag_table("--weight-expr", a, b, lambda: tabulated_weight(text, fn, a, b, cfg))
    if not w.total > 0:
        raise ValueError(f"--weight-expr has no positive mass on [{a:g}, {b:g}]")
    return w


def _check_x(x: float, w: Weight) -> None:
    """--x must lie in the weight's domain [a, b]."""
    if not w.a <= x <= w.b:
        raise _UsageError(f"--x must lie in [a, b] = [{w.a:g}, {w.b:g}], got {x:g}")


def _interior_grid(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * k / (n + 1) for k in range(1, n + 1)]


def _cmd_bounds(args, cfg: QuadConfig) -> tuple[str, int]:
    if args.weight_expr is not None:
        w = _weight_expr(args.weight_expr, args.a, args.b, cfg)
    else:
        w = _weight("uniform" if args.weight is None else args.weight, args.a, args.b)
    _check_x(args.x, w)
    f = _function(args.function, args.a, args.b)
    params = TauParams(a=args.a, b=args.b, x=args.x, alpha=args.alpha, beta=args.beta)
    result = bound_set(f, w, params, args.p, cfg)

    dev = abs(result.deviation)
    triples = [("paper", result.paper), ("exact", result.exact), ("norm", result.norms)]
    triples += [(f"ratio_{label}", [dev / v if v > 0 else 0.0 for v in t])
                for label, t in triples[:2]]
    record = {"tau": result.deviation}
    for label, values in triples:
        record.update(zip((f"{label}_inf", f"{label}_p", f"{label}_one"), values))
    if args.norm:
        keep = {"tau"} | {k for k in record if k.endswith(f"_{args.norm}")}
        record = {k: v for k, v in record.items() if k in keep}

    cell = _FORMATS["float"].__mod__
    if args.format == "json":
        text = json.dumps({k: cell(v) for k, v in record.items()}, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv(list(record), ["float"] * len(record), [[[v] for v in record.values()]])
    else:
        text = "".join(f"{k} = {cell(v)}\n" for k, v in record.items())
    return text, EXIT_OK


def _cmd_verify(args, cfg: QuadConfig) -> tuple[str, int]:
    report = run_verify_suites(cfg)
    text = "".join(line + "\n" for line in report.lines())
    return text, EXIT_OK if report.passed else EXIT_COMPUTE


def _cmd_audit(args, cfg: QuadConfig) -> tuple[str, int]:
    xs = _interior_grid(args.a, args.b, args.x_grid)
    weights = _weights(args.weights, args.a, args.b)
    pairs = args.alphas
    # x, alpha and beta as text, each value formatted once: every weight
    # has the same grid, and each value repeats along it
    cell = _FORMATS["float"].__mod__
    grid = audit_grid(list(map(cell, xs)), [(cell(alpha), cell(beta)) for alpha, beta in pairs])
    blocks = ([[name] * len(values[0]), *grid, *values]  # one block per weight
              for name, *values in audit_columns(weights, xs, pairs, cfg))
    fs = fields(AuditRow)
    types = ["text" if f.name in ("x", "alpha", "beta") else f.type for f in fs]
    return _csv([f.name for f in fs], types, blocks), EXIT_OK


def _cmd_sharpness(args, cfg: QuadConfig) -> tuple[str, int]:
    xs = _interior_grid(args.a, args.b, args.x_grid)
    w = _weight(args.weight, args.a, args.b)
    best, rows = sharpness_search(w, xs, args.alphas, args.kind, cfg)
    print(
        f"best ratio {best.ratio:.8e} at x={best.x:.8e} "
        f"(alpha={best.alpha:g}, beta={best.beta:g})",
        file=sys.stderr,
    )
    return _table(SharpnessRow, rows), EXIT_OK


def _cmd_cdf(args, cfg: QuadConfig) -> tuple[str, int]:
    xs = [args.x] if args.x is not None else _interior_grid(args.a, args.b, args.x_grid)
    w = _weight(args.weight, args.a, args.b)
    if args.x is not None:
        _check_x(args.x, w)
    density = _expression(args.density, "--density", args.a, args.b, nonnegative=True)
    model = _flag_table("--density", args.a, args.b, lambda: DensityModel(density, w, cfg))
    rows = cdf_report(model, xs, args.alpha, args.beta, args.p)
    return _table(CdfReport, rows), EXIT_OK


def _config_flags(command: argparse.ArgumentParser, path: str) -> list[str]:
    """The file's values as --flag=value tokens of the command."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"bad config file: {exc}") from None
    if not isinstance(values, dict):
        raise _UsageError("bad config file: expected a JSON object")
    flags = {a.dest: a.option_strings[-1] for a in command._actions if a.dest != "help"}
    tokens = []
    for key, value in values.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise _UsageError(f"config key {key!r} is not a flag of {command.prog}")
        tokens.append(f"{flag}={value}")
    return tokens


class _Commands(argparse._SubParsersAction):
    """The command and its flags, with the --config file's values read as
    flags typed right after the command's name: a flag typed after them
    wins, since argparse keeps the last occurrence."""

    def __call__(self, parser, namespace, values, option_string=None):
        name, *rest = values
        if namespace.config and name in self.choices:
            rest = _config_flags(self.choices[name], namespace.config) + rest
        super().__call__(parser, namespace, [name, *rest], option_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and shared by every call
    in the process: nothing in it depends on the invocation (`OBW_TOL` is
    read by `main`, and a --config file while argv is parsed).
    """
    parser = _Parser(
        prog="obw",
        description=(
            "Weighted deviation functionals, their derivative-norm error "
            "bounds, and CDF applications."
        ),
    )
    parser.add_argument("--config", help="JSON file of flag values, as if typed after the command")
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)

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
    p_bounds.add_argument("--x", type=float, required=True)
    p_bounds.add_argument("--alpha", type=float, default=1.0)
    p_bounds.add_argument("--beta", type=float, default=1.0)
    weight = p_bounds.add_mutually_exclusive_group()
    # None stands for uniform: argparse tells a typed flag from its default
    # by identity, and a typed "uniform" may be the default's very object
    weight.add_argument("--weight", default=None, help="builtin weight spec (default uniform)")
    weight.add_argument("--weight-expr", default=None, help="weight as an expression in t")
    p_bounds.add_argument("--function", required=True, help="expression in t or registry name")
    p_bounds.add_argument("--p", type=_exponent, default=2.0)
    p_bounds.add_argument("--norm", choices=("inf", "p", "one"), default=None,
                          help="restrict the report to one branch")

    command("verify", _cmd_verify, "run the corpus-wide verification suites", interval=False)

    p_audit = command("audit", _cmd_audit, "printed vs exact sup-norm bound factors")
    p_audit.add_argument("--weights", default="uniform,decreasing,increasing")
    p_audit.add_argument("--x-grid", type=_grid_size, default=9)
    p_audit.add_argument("--alphas", type=_coeff_pairs, default="1:1,2:1",
                         help="comma list of alpha:beta pairs")

    p_sharp = command("sharpness", _cmd_sharpness, "empirical sharpness sweep")
    p_sharp.add_argument("--weight", default="uniform")
    p_sharp.add_argument("--x-grid", type=_grid_size, default=9)
    p_sharp.add_argument("--alphas", type=_coeff_pairs, default="1:1,2:1")
    p_sharp.add_argument("--kind", choices=("exact_inf", "exact_one"),
                         default="exact_inf")

    p_cdf = command("cdf", _cmd_cdf, "CDF bound report for a density")
    p_cdf.add_argument("--density", required=True, help="density expression in t")
    p_cdf.add_argument("--weight", default="uniform")
    at = p_cdf.add_mutually_exclusive_group(required=True)
    at.add_argument("--x", type=float, default=None)
    at.add_argument("--x-grid", type=_grid_size, default=None)
    p_cdf.add_argument("--alpha", type=float, default=1.0)
    p_cdf.add_argument("--beta", type=float, default=1.0)
    p_cdf.add_argument("--p", type=_exponent, default=2.0)
    return parser


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
    """Run one obw command; returns its exit code. Only -h raises SystemExit."""
    try:
        args = build_parser().parse_args(argv)
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
