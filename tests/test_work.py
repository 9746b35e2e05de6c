"""Work counts of the hot paths: no per-node work where it was removed.

Deterministic counts, no wall time: kernel_l1 runs no quadrature for a
built-in weight and takes an expression weight's moments outside any
integrand, kernel_lq, kernel_integral and the CDF report read
moments and F_w from closed forms or tables built before their integrals,
an expression weight's moments run no quadrature, and a compiled expression
is one Python call.
"""

import math
import sys

import pytest

import obw.bounds
import obw.cli
import obw.expr
import obw.suites
from obw import quadrature
from obw.cdf import DensityModel, cdf_report, expectation_identity_check
from obw.corpus import COEFF_PAIRS, corpus_functions, corpus_weights, corpus_x_values
from obw.expr import as_fn1d, compile_expr, parse
from obw.kernel import TauParams, kernel_integral, kernel_l1, kernel_lq
from obw.quadrature import QuadConfig
from obw.weights import Weight, builtin_weight, tabulated_weight


@pytest.fixture
def counts(monkeypatch):
    """Counters on Weight.moment and on quadrature.integrate in every obw module;
    "nested" counts integrate calls inside an integrand, "in_moment" those
    inside a Weight.moment call."""
    counts = {"moment": 0, "integrate": 0, "nested": 0, "in_moment": 0}
    inside = [0]
    in_moment = [0]
    integrate = quadrature.integrate
    moment = Weight.moment

    def counted_integrate(g, *args, **kwargs):
        counts["integrate"] += 1
        counts["nested"] += inside[0] > 0
        counts["in_moment"] += in_moment[0] > 0

        def integrand(t):
            inside[0] += 1
            try:
                return g(t)
            finally:
                inside[0] -= 1

        return integrate(integrand, *args, **kwargs)

    def counted_moment(self, *args, **kwargs):
        counts["moment"] += 1
        in_moment[0] += 1
        try:
            return moment(self, *args, **kwargs)
        finally:
            in_moment[0] -= 1

    for name, module in list(sys.modules.items()):
        if name.startswith("obw") and getattr(module, "integrate", None) is integrate:
            monkeypatch.setattr(module, "integrate", counted_integrate)
    monkeypatch.setattr(Weight, "moment", counted_moment)
    return counts


def expression_weight():
    return tabulated_weight("expr", compile_expr(parse("abs(t - 0.37) + 0.1")), 0.0, 1.0)


BUILTIN_WEIGHTS = [
    *corpus_weights(),
    builtin_weight("arcsine", 0.0, 1.0),
    builtin_weight("power", 0.0, 1.0, p=-0.49, q=0.7),
]


@pytest.mark.parametrize("w", BUILTIN_WEIGHTS, ids=lambda w: w.name)
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.0), (0.0, 3.0)])
def test_kernel_l1_builtin_weights_run_no_quadrature(counts, w, alpha, beta):
    # both branches are closed forms (moment_l1)
    kernel_l1(TauParams(a=0.0, b=1.0, x=0.3, alpha=alpha, beta=beta), w)
    assert counts["moment"] <= 3
    assert counts["integrate"] == 0


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.0), (0.0, 3.0)])
def test_kernel_l1_moments_outside_integrands(counts, alpha, beta):
    # an expression weight integrates each branch in its Fubini form
    kernel_l1(TauParams(a=0.0, b=1.0, x=0.3, alpha=alpha, beta=beta), expression_weight())
    assert counts["moment"] <= 3
    assert counts["nested"] == 0
    assert counts["integrate"] >= 1


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.0), (0.0, 3.0)])
def test_kernel_lq_and_kernel_integral_do_not_nest(counts, alpha, beta):
    params = TauParams(a=0.0, b=1.0, x=0.3, alpha=alpha, beta=beta)
    w = expression_weight()
    kernel_lq(params, w, 2.0)
    kernel_integral(as_fn1d("sin(3*t) + t^2").derivative, params, w)
    assert counts["nested"] == 0
    assert counts["moment"] <= 6  # the branch masses of each call
    assert counts["integrate"] >= 2


def test_expression_weight_moments_run_no_quadrature(counts, capsys):
    # the weight's one table is built when it is made; a moment reads it
    argv = ["bounds", "--x", "0.3", "--function", "sin(3*t) + t^2", "--weight-expr", "1 + t"]
    assert obw.cli.main(argv) == 0
    assert counts["moment"] >= 2
    assert counts["integrate"] >= 1
    assert counts["in_moment"] == 0


def density_models():
    cfg = QuadConfig(abs_tol=1e-12)
    density = as_fn1d("1 + 0.5*sin(3*t) + t^2")
    return [
        DensityModel(density, builtin_weight("arcsine", 0, 1), cfg),
        DensityModel(as_fn1d("exp(t) + 0.2"), expression_weight(), cfg),
    ]


@pytest.mark.parametrize("model", density_models(), ids=["arcsine", "expression"])
def test_cdf_layer_does_not_nest(counts, model):
    expectation_identity_check(model)
    cdf_report(model, [0.2, 0.5, 0.8], 1.0, 2.0, 2.0)
    assert counts["nested"] == 0
    assert counts["integrate"] >= 2


def test_audit_takes_no_deviation(monkeypatch, capsys):
    # the exact factor is the witness's |tau| (Hoelder's equality): no second computation
    calls = []
    tau = obw.bounds.tau

    def counted(*args):
        calls.append(args)
        return tau(*args)

    monkeypatch.setattr(obw.bounds, "tau", counted)
    assert obw.cli.main(["audit", "--weights", "decreasing,arcsine", "--x-grid", "9"]) == 0
    assert "1" in {line.split(",")[-1] for line in capsys.readouterr().out.splitlines()}
    assert calls == []


def test_counters_see_nested_quadrature(counts):
    # an integrand that integrates: the counters must notice
    quadrature.integrate(lambda t: quadrature.integrate(lambda s: s * t, 0.0, 1.0)[0], 0.0, 1.0)
    assert counts["nested"] > 0
    assert counts["integrate"] > 1


def python_calls(fn, t):
    """Names of the Python functions entered while fn(t) runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(t)
    finally:
        sys.setprofile(None)
    return calls


def test_no_tree_walker():
    assert not hasattr(obw.expr, "evaluate")
    assert "evaluate" not in obw.expr.__all__


@pytest.mark.parametrize("source", ["t^2 + sin(3*t) / (1 + exp(-t))", "sin(" * 60 + "t" + ")" * 60])
def test_compiled_expression_is_one_call(source):
    f = as_fn1d(source)
    fn = compile_expr(parse(source))
    assert python_calls(fn, 0.3) == [fn.__code__.co_name]
    assert python_calls(f.fn, 0.3) == [f.fn.__code__.co_name]


def test_verify_computes_each_norm_and_deviation_once(monkeypatch):
    # every corpus weight is on [0, 1], so the norms depend only on f
    calls = {"norm_triple": 0, "tau": 0}

    def counted(name):
        fn = getattr(obw.suites, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(obw.suites, name, counted(name))
    report = obw.suites.run_verify_suites()
    n_configs = (
        len(corpus_functions()) * len(corpus_weights()) * len(corpus_x_values()) * len(COEFF_PAIRS)
    )
    assert report.passed
    assert calls["norm_triple"] == len(corpus_functions()) * len(obw.suites.P_GRID)
    assert calls["tau"] == report.identity_checked == n_configs
    assert report.soundness_checked == 3 * n_configs
    assert report.reduction_checked == 36


def test_verify_computes_each_kernel_norm_once(monkeypatch, counts):
    # the kernel norms depend on (weight, x, pair, p), not on f; the identity
    # integrates rho f' once per configuration and reads tau from the sweep
    calls = {"kernel_lq": 0, "kernel_integral": 0, "tau": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(obw.bounds, "kernel_lq")
    counted(obw.suites, "kernel_integral")
    counted(obw.suites, "tau")
    report = obw.suites.run_verify_suites()
    n_kernels = len(corpus_weights()) * len(corpus_x_values()) * len(COEFF_PAIRS)
    assert report.passed
    assert calls["kernel_lq"] == n_kernels * len(obw.suites.P_GRID) == 90
    assert calls["kernel_integral"] == calls["tau"] == n_kernels * len(corpus_functions()) == 180
    assert counts["integrate"] <= 1656


def test_table_panel_count(monkeypatch):
    # refined like integrate, largest estimate first (19 panels when every
    # panel over an even share of abs_tol was bisected each round)
    panels = [0]
    gk15 = quadrature._gk15

    def counted(*args):
        panels[0] += 1
        return gk15(*args)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    density = as_fn1d("exp(1.469*t) + 0.291 + 1.15*(1/(t + 0.475))")
    builtin_weight("increasing", 0.0, 1.0).cumulative(density, 0.0, 1.0, QuadConfig(abs_tol=1e-10))
    assert panels[0] == 15


_TABLE_CASES = {
    "exp": (math.exp, 0.0, 1.0),
    "sin": (lambda t: math.sin(10 * t), 0.0, 2.0),
    "sqrt": (math.sqrt, 0.0, 1.0),
    "runge": (lambda t: 1 / (1 + 25 * t * t), -1.0, 1.0),
}
# integrate's |K15 - G7| estimate misses its error next to the square-root end
# point: at 1e-12 it is off by 2.3e-12 and reports 7.0e-13, while the table's
# total is within 3e-16 of 2/3
_SQRT_MISSES = pytest.mark.xfail(strict=True, reason="integrate's estimate misses at sqrt's end")


@pytest.mark.parametrize("g, c, d, tol", [
    pytest.param(*case, tol, id=f"{name}-{tol:g}",
                 marks=_SQRT_MISSES if (name, tol) == ("sqrt", 1e-12) else ())
    for name, case in _TABLE_CASES.items()
    for tol in (1e-9, 1e-12)
])
def test_table_total_matches_integrate(g, c, d, tol):
    cfg = QuadConfig(abs_tol=tol)
    assert abs(quadrature.cumulative(g, c, d, cfg).total - quadrature.integrate(g, c, d, cfg)[0]) <= tol
