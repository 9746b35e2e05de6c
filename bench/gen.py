"""Seeded inputs for the obw benchmark workloads.

A workload seed builds one *round*: a fixed list of `Op`s, each one CLI
invocation (its argv) plus the description the checker needs to compute
reference values with mpmath, apart from obw. A run repeats the same round,
so every run attempts whole rounds of the same operations.

Each round has a fixed make-up (which commands, weights, grid sizes,
tolerance levels and expression templates, and how many of each); the seed
draws the continuous parameters inside that make-up and how they pair up.
That keeps the cost of a round close to constant across seeds while the
program still sees different inputs for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import mpmath as mp

__all__ = ["Op", "BuiltinWeight", "Expr", "build_round", "WORKLOADS"]

WORKLOADS = ("corpus-sweep", "expr-queries", "cdf-grid")


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    argv: list[str]
    kind: str  # audit | sharpness | verify | bounds | cdf
    spec: dict
    ref: object = field(default=None, repr=False)  # filled by the checker once


def _num(v: float) -> str:
    """Shortest text that reads back as the same double."""
    return repr(float(v))


# --- built-in weights --------------------------------------------------------

class BuiltinWeight:
    """A built-in obw weight spec with its moments in closed form (mpmath).

    `fub_left(x)` = int_a^x (x - s) w(s) ds and `fub_right(x)` =
    int_x^b (s - x) w(s) ds are the two Fubini forms of the kernel L1
    branches: exact_inf_factor = (alpha fub_left / m(a, x)
    + beta fub_right / m(x, b)) / (alpha + beta).
    """

    def __init__(self, spec: str, a: float, b: float) -> None:
        self.spec = spec
        self.a, self.b = a, b
        name, _, tail = spec.partition(":")
        params = {}
        for item in filter(None, tail.split(",")):
            key, _, value = item.partition("=")
            params[key] = float(value)
        presets = {
            "increasing": ("power", {"p": 1.0, "q": 0.0}),
            "decreasing": ("power", {"p": 0.0, "q": 1.0}),
            "arcsine": ("power", {"p": -0.5, "q": -0.5}),
        }
        if name in presets:
            name, params = presets[name]
        self.kind = name
        if name == "power":
            self.p = params.get("p", 1.0)
            self.q = params.get("q", 0.0)
        elif name == "exponential":
            self.lam = params.get("lam", 1.0)
        elif name == "truncnorm":
            self.mu = params.get("mu", 0.5 * (a + b))
            self.sigma = params.get("sigma", 0.25 * (b - a))
        elif name != "uniform":
            raise ValueError(f"no reference for weight {spec!r}")

    def w(self, t):
        a, b = mp.mpf(self.a), mp.mpf(self.b)
        t = mp.mpf(t)
        if self.kind == "uniform":
            return mp.mpf(1)
        if self.kind == "power":
            return (t - a) ** self.p * (b - t) ** self.q
        if self.kind == "exponential":
            return mp.exp(-self.lam * t)
        return mp.exp(-((t - self.mu) / self.sigma) ** 2 / 2)

    def _ibeta(self, c, d, shift: int):
        """L^(p+q+1+shift) * int_{u(c)}^{u(d)} u^(p+shift) (1-u)^q du."""
        a, span = mp.mpf(self.a), mp.mpf(self.b) - mp.mpf(self.a)
        uc, ud = (mp.mpf(c) - a) / span, (mp.mpf(d) - a) / span
        return span ** (self.p + self.q + 1 + shift) * mp.betainc(
            self.p + 1 + shift, self.q + 1, uc, ud
        )

    def mass(self, c, d):
        c, d = mp.mpf(c), mp.mpf(d)
        if self.kind == "uniform":
            return d - c
        if self.kind == "power":
            return self._ibeta(c, d, 0)
        if self.kind == "exponential":
            lam = mp.mpf(self.lam)
            return (mp.exp(-lam * c) - mp.exp(-lam * d)) / lam
        s2 = self.sigma * mp.sqrt(2)
        return self.sigma * mp.sqrt(mp.pi / 2) * (
            mp.erf((d - self.mu) / s2) - mp.erf((c - self.mu) / s2)
        )

    def fub_left(self, x):
        a, x = mp.mpf(self.a), mp.mpf(x)
        if self.kind == "uniform":
            return (x - a) ** 2 / 2
        if self.kind == "power":
            # (x - s) = (x - a) - (s - a)
            return (x - a) * self._ibeta(a, x, 0) - self._ibeta(a, x, 1)
        if self.kind == "exponential":
            lam = mp.mpf(self.lam)
            return (x - a) * mp.exp(-lam * a) / lam - (
                mp.exp(-lam * a) - mp.exp(-lam * x)
            ) / lam**2
        return (x - self.mu) * self.mass(a, x) - self.sigma**2 * (self.w(a) - self.w(x))

    def fub_right(self, x):
        a, b, x = mp.mpf(self.a), mp.mpf(self.b), mp.mpf(x)
        if self.kind == "uniform":
            return (b - x) ** 2 / 2
        if self.kind == "power":
            return self._ibeta(x, b, 1) - (x - a) * self._ibeta(x, b, 0)
        if self.kind == "exponential":
            lam = mp.mpf(self.lam)
            return (mp.exp(-lam * x) - mp.exp(-lam * b)) / lam**2 - (
                b - x
            ) * mp.exp(-lam * b) / lam
        return self.sigma**2 * (self.w(x) - self.w(b)) + (self.mu - x) * self.mass(x, b)


# --- expressions ---------------------------------------------------------------

@dataclass
class Expr:
    """An expression in t as obw reads it, with mpmath twins.

    `f` evaluates it, `df` is its derivative and `F` an antiderivative (or
    None).
    """

    text: str
    f: object
    df: object
    F: object = None

    def __add__(self, other: "Expr") -> "Expr":
        F = None
        if self.F is not None and other.F is not None:
            F = lambda t, g=self.F, h=other.F: g(t) + h(t)
        return Expr(
            text=f"{self.text} + {other.text}",
            f=lambda t, g=self.f, h=other.f: g(t) + h(t),
            df=lambda t, g=self.df, h=other.df: g(t) + h(t),
            F=F,
        )

    def scaled(self, c: float) -> "Expr":
        F = None if self.F is None else (lambda t, g=self.F: c * g(t))
        return Expr(
            text=f"{_num(c)}*({self.text})",
            f=lambda t, g=self.f: c * g(t),
            df=lambda t, g=self.df: c * g(t),
            F=F,
        )


def _shift(c: float) -> str:
    return f"(t + {_num(c)})" if c >= 0 else f"(t - {_num(-c)})"


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


# Positive templates with closed antiderivatives: weights and densities.
# Each takes (rng, a, b) and returns an Expr that is >= 0.1 on [a, b].

def _pos_affine(rng, a, b):
    c1 = _r(rng, 0.5, 1.0) * rng.choice((-1, 1))
    c0 = round(0.3 + max(-c1 * a, -c1 * b) + rng.uniform(0.0, 0.3), 3)
    text = f"{_num(c0)} + {_num(c1)}*t" if c1 >= 0 else f"{_num(c0)} - {_num(-c1)}*t"
    return Expr(text, lambda t: c0 + c1 * t, lambda t: mp.mpf(c1),
                lambda t: c0 * t + c1 * t**2 / 2)


def _pos_exp(rng, a, b):
    k = _r(rng, 1.0, 1.5) * rng.choice((-1, 1))
    d = _r(rng, 0.1, 0.3)
    return Expr(
        f"exp({_num(k)}*t) + {_num(d)}",
        lambda t: mp.exp(k * t) + d,
        lambda t: k * mp.exp(k * t),
        lambda t: mp.exp(k * t) / k + d * t,
    )


def _pos_recip(rng, a, b):
    c = round(-a + rng.uniform(0.4, 0.6), 3)
    return Expr(
        f"1/{_shift(c)}",
        lambda t: 1 / (t + c),
        lambda t: -1 / (t + c) ** 2,
        lambda t: mp.log(t + c),
    )


def _pos_sqrt(rng, a, b):
    c = round(-a + rng.uniform(0.2, 0.4), 3)
    return Expr(
        f"sqrt{_shift(c)}",
        lambda t: mp.sqrt(t + c),
        lambda t: 1 / (2 * mp.sqrt(t + c)),
        lambda t: 2 * (t + c) ** mp.mpf(1.5) / 3,
    )


def _pos_trig(rng, a, b):
    k = _r(rng, 2.0, 3.0)
    d = _r(rng, 0.3, 0.6)
    return Expr(
        f"{_num(d)} + sin({_num(k)}*t)^2",
        lambda t: d + mp.sin(k * t) ** 2,
        lambda t: k * mp.sin(2 * k * t),
        lambda t: (d + mp.mpf(1) / 2) * t - mp.sin(2 * k * t) / (4 * k),
    )


def _pos_power(rng, a, b):
    c = round(-a + rng.uniform(0.3, 0.6), 3)
    r = _r(rng, 0.8, 1.6, 2)
    return Expr(
        f"{_shift(c)}^{_num(r)}",
        lambda t: (t + c) ** r,
        lambda t: r * (t + c) ** (r - 1),
        lambda t: (t + c) ** (r + 1) / (r + 1),
    )


# No abs() kink: obw's quadrature misses the error at a kink (see CHANGES.md).
POSITIVE_TEMPLATES = (
    _pos_affine, _pos_exp, _pos_recip, _pos_sqrt, _pos_trig, _pos_power,
)


# Increasing templates for the function f: f' > 0 on [a, b], so |f'|^p has
# no kink at a zero of f' (obw's quadrature misses the error there, see
# CHANGES.md). A sum with a positive coefficient stays increasing.

def _fn_exp(rng, a, b):
    k = _r(rng, 0.5, 1.5)
    return Expr(f"exp({_num(k)}*t)", lambda t: mp.exp(k * t), lambda t: k * mp.exp(k * t))


def _fn_log(rng, a, b):
    c = round(-a + rng.uniform(0.3, 0.6), 3)
    return Expr(f"log{_shift(c)}", lambda t: mp.log(t + c), lambda t: 1 / (t + c))


def _fn_sqrt(rng, a, b):
    c = round(-a + rng.uniform(0.2, 0.5), 3)
    return Expr(f"sqrt{_shift(c)}", lambda t: mp.sqrt(t + c),
                lambda t: 1 / (2 * mp.sqrt(t + c)))


def _fn_pow(rng, a, b):
    c = round(-a + rng.uniform(0.2, 0.5), 3)
    n = rng.choice((2, 3))
    return Expr(f"{_shift(c)}^{n}", lambda t: (t + c) ** n,
                lambda t: n * (t + c) ** (n - 1))


def _fn_sin(rng, a, b):
    # k t + c stays inside [-1.4, 1.4], where sin is increasing
    k = _r(rng, 0.8, 1.2)
    c = _r(rng, -1.4 - k * a, 1.4 - k * b)
    return Expr(f"sin({_num(k)}*t + {_num(c)})" if c >= 0 else f"sin({_num(k)}*t - {_num(-c)})",
                lambda t: mp.sin(k * t + c), lambda t: k * mp.cos(k * t + c))


def _fn_recip(rng, a, b):
    c = round(-a + rng.uniform(0.4, 0.8), 3)
    return Expr(f"2 - 1/{_shift(c)}", lambda t: 2 - 1 / (t + c), lambda t: 1 / (t + c) ** 2)


def _fn_texp(rng, a, b):
    # f' = (1 - k t) exp(-k t) > 0 while k t < 1
    k = round(rng.uniform(0.1, 0.8) / max(b, 0.5), 3)
    return Expr(f"t*exp(-{_num(k)}*t)", lambda t: t * mp.exp(-k * t),
                lambda t: (1 - k * t) * mp.exp(-k * t))


def _fn_cubic(rng, a, b):
    c = _r(rng, 0.5, 1.5)
    return Expr(f"t + {_num(c)}*t^3", lambda t: t + c * t**3, lambda t: 1 + 3 * c * t**2)


FUNCTION_TEMPLATES = (
    _fn_exp, _fn_log, _fn_sqrt, _fn_pow, _fn_sin, _fn_recip, _fn_texp, _fn_cubic,
)


def _pick_pair(templates, i: int):
    """The i-th of a fixed cycle of distinct template pairs."""
    n = len(templates)
    first = i % n
    second = (first + 1 + (i // n) % (n - 1)) % n
    return templates[first], templates[second]


def _combine(rng, templates, i, a, b) -> Expr:
    t1, t2 = _pick_pair(templates, i)
    return t1(rng, a, b) + t2(rng, a, b).scaled(_r(rng, 0.5, 1.5, 2))


def _interval(rng) -> tuple[float, float]:
    a = _r(rng, -0.3, 0.3)
    return a, round(a + rng.uniform(0.9, 1.3), 3)


def _pairs_text(pairs) -> str:
    return ",".join(f"{_num(al)}:{_num(be)}" for al, be in pairs)


def _seeded_pair(rng) -> tuple[float, float]:
    return (_r(rng, 0.2, 5.0, 2), _r(rng, 0.2, 5.0, 2))


# --- rounds ----------------------------------------------------------------------

def _corpus_sweep(rng: random.Random) -> list[Op]:
    tol = "1e-10"
    ops: list[Op] = []

    def audit(specs, n, pairs):
        weights = [BuiltinWeight(s, 0.0, 1.0) for s in specs]
        ops.append(Op(
            ["audit", "--weights", ",".join(specs), "--x-grid", str(n),
             "--alphas", _pairs_text(pairs), "--tol", tol],
            "audit",
            {"weights": weights, "n": n, "pairs": pairs, "tol": float(tol)},
        ))

    def sharpness(spec, n, pairs, kind):
        ops.append(Op(
            ["sharpness", "--weight", spec, "--x-grid", str(n),
             "--alphas", _pairs_text(pairs), "--kind", kind, "--tol", tol],
            "sharpness",
            {"weight": BuiltinWeight(spec, 0.0, 1.0), "n": n, "pairs": pairs,
             "kind": kind, "tol": float(tol)},
        ))

    def five_pairs():
        return [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), _seeded_pair(rng), _seeded_pair(rng)]

    def three_pairs():
        return [_seeded_pair(rng), (1.0, 0.0), (0.0, 1.0)]

    audit(["uniform", "increasing", "decreasing"], 99, five_pairs())
    audit([f"exponential:lam={_num(_r(rng, 1.0, 2.0, 2))}"], 99, five_pairs())
    audit([f"truncnorm:sigma={_num(_r(rng, 0.25, 0.35, 2))}"], 99, five_pairs())
    audit([f"truncnorm:mu={_num(_r(rng, 0.4, 0.6, 2))}"], 99, five_pairs())
    # Two arcsine audits and verify, the slowest three, hold the 90th percentile.
    audit(["arcsine"], 39, three_pairs())
    audit(["arcsine"], 39, three_pairs())
    # Endpoint-singular exponents in a narrow range: these eight invocations
    # cost about the same and hold the median latency, so op_p50_ms does not
    # jump between invocation kinds from seed to seed. The audit command
    # splits --weights on ",", so a spec there carries one key.
    for key in ("p", "q") * 4:
        audit([f"power:{key}={_num(_r(rng, -0.35, -0.3, 2))}"], 49, three_pairs())
    two_key = (
        f"power:p={_num(_r(rng, -0.55, -0.45, 2))},q={_num(_r(rng, 0.4, 0.8, 2))}",
        f"power:p={_num(_r(rng, -0.4, -0.3, 2))},q={_num(_r(rng, -0.4, -0.3, 2))}",
    )
    for spec in two_key:
        pairs = three_pairs()
        sharpness(spec, 29, pairs, "exact_inf")
        sharpness(spec, 29, pairs, "exact_one")
    sharpness(f"exponential:lam={_num(_r(rng, 1.0, 2.0, 2))}", 49, five_pairs(), "exact_inf")
    sharpness(f"truncnorm:sigma={_num(_r(rng, 0.25, 0.35, 2))}", 49, five_pairs(), "exact_one")
    ops.append(Op(["verify", "--tol", tol], "verify", {}))
    return ops


_TOLS = ("1e-08", "1e-09", "1e-10", "1e-11", "1e-12")
_P_VALUES = (1.5, 2.0, 3.0, 4.0)


def _expr_queries(rng: random.Random) -> list[Op]:
    n_ops = 80
    tols = [_TOLS[i % len(_TOLS)] for i in range(n_ops)]
    rng.shuffle(tols)
    ops = []
    for i in range(n_ops):
        a, b = _interval(rng)
        weight = _combine(rng, POSITIVE_TEMPLATES, i, a, b)
        fn = _combine(rng, FUNCTION_TEMPLATES, i, a, b)
        # Scale to max |f'| about 1: the tolerance is absolute, and
        # int |f'|^p must be computable to it in double precision.
        peak = max(abs(fn.df(a + (b - a) * k / 32)) for k in range(33))
        fn = fn.scaled(float(mp.nstr(1 / peak, 3)))
        x = round(a + (b - a) * rng.uniform(0.2, 0.8), 4)
        alpha, beta = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), _seeded_pair(rng))[i % 4]
        p = _P_VALUES[i % len(_P_VALUES)]
        ops.append(Op(
            ["bounds", "--a", _num(a), "--b", _num(b), "--x", _num(x),
             "--alpha", _num(alpha), "--beta", _num(beta),
             "--weight-expr", weight.text, "--function", fn.text,
             "--p", _num(p), "--tol", tols[i]],
            "bounds",
            {"a": a, "b": b, "x": x, "alpha": alpha, "beta": beta,
             "weight": weight, "fn": fn, "p": p, "tol": float(tols[i])},
        ))
    return ops


def _cdf_grid(rng: random.Random) -> list[Op]:
    # At --tol 1e-10 cdf_bound_general's internal identity check (fixed at
    # 1e-10) fails on some densities (see CHANGES.md).
    tol = "1e-12"
    a, b = 0.0, 1.0
    weight_specs = (
        "uniform",
        "increasing",
        "decreasing",
        f"exponential:lam={_num(_r(rng, 1.0, 2.0, 2))}",
        f"truncnorm:sigma={_num(_r(rng, 0.25, 0.35, 2))}",
        "arcsine",
        f"power:p={_num(_r(rng, -0.45, -0.35, 2))}",
    )
    ops = []
    for i in range(6 * len(weight_specs)):
        spec = weight_specs[i % len(weight_specs)]
        density = _combine(rng, POSITIVE_TEMPLATES, i, a, b)
        alpha, beta = ((1.0, 1.0), _seeded_pair(rng), (1.0, 0.0), (0.0, 1.0))[i % 4]
        argv = ["cdf", "--density", density.text, "--weight", spec,
                "--alpha", _num(alpha), "--beta", _num(beta),
                "--p", _num(_P_VALUES[i % 3]), "--tol", tol]
        if i >= 4 * len(weight_specs):  # two single-point reports per weight
            xs = [round(rng.uniform(0.1, 0.9), 4)]
            argv += ["--x", _num(xs[0])]
        else:
            n = 4
            xs = [a + (b - a) * k / (n + 1) for k in range(1, n + 1)]
            argv += ["--x-grid", str(n)]
        ops.append(Op(argv, "cdf", {
            "a": a, "b": b, "xs": xs, "alpha": alpha, "beta": beta,
            "weight": BuiltinWeight(spec, a, b), "density": density,
            "tol": float(tol),
        }))
    return ops


_BUILDERS = {
    "corpus-sweep": _corpus_sweep,
    "expr-queries": _expr_queries,
    "cdf-grid": _cdf_grid,
}


def build_round(workload: str, seed: int) -> list[Op]:
    """The round of invocations for one workload and seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
