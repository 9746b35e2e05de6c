"""Work counts of the hot paths: no per-node work where it was removed.

Deterministic counts, no wall time: kernel_l1 runs no quadrature for a
built-in weight and takes an expression weight's moments outside any
integrand, kernel_lq takes one integral per branch, kernel_lq,
kernel_integral and the CDF report read moments and F_w from closed forms
or tables built before their integrals, an expression weight's moments run
no quadrature, verify takes each integral once per (x, side) and lets the
pairs combine them, and a compiled expression is one Python call.
"""

import math
import sys
from dataclasses import replace

import pytest

import obw.bounds
import obw.cli
import obw.expr
import obw.norms
import obw.suites
from obw import quadrature
from obw.cdf import DensityModel, cdf_report, expectation_identity_check
from obw.corpus import COEFF_PAIRS, corpus_functions, corpus_weights, corpus_x_values
from obw.expr import as_fn1d, compile_expr, parse
from obw.functionals import tau, tau_combination, tau_decomposed
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


@pytest.mark.parametrize("q", [4 / 3, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.0), (0.0, 3.0)])
def test_kernel_lq_takes_one_integral_per_branch(counts, q, alpha, beta):
    # after the weight (and its table) is built, kernel_lq integrates each
    # branch once, reading m from the table through closed_moment, and takes
    # each branch mass once
    w = expression_weight()
    w.total
    counts.update(dict.fromkeys(counts, 0))
    kernel_lq(TauParams(a=0.0, b=1.0, x=0.3, alpha=alpha, beta=beta), w, q)
    branches = (alpha > 0) + (beta > 0)
    assert counts == {"moment": branches, "integrate": branches, "nested": 0, "in_moment": 0}


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


@pytest.mark.parametrize("index", [0, 1], ids=["arcsine", "expression"])
def test_identity_check_queries_no_cdf(monkeypatch, index):
    # int F_w comes from the table's leaves: no query of F_w or of any table,
    # and the one quadrature is E[X w(X)]'s integrate_against
    model = density_models()[index]
    queries, depth = [], [0]
    calls = [0, 0]  # integrate calls outside and inside integrate_against
    cdf = model.cdf
    object.__setattr__(model, "cdf", lambda x: queries.append(x) or cdf(x))
    monkeypatch.setattr(quadrature.Cumulative, "__call__", lambda self, t: queries.append(t))
    integrate, integrate_against = quadrature.integrate, Weight.integrate_against

    def counted_integrate(*args, **kwargs):
        calls[depth[0] > 0] += 1
        return integrate(*args, **kwargs)

    def counted_against(self, *args, **kwargs):
        depth[0] += 1
        try:
            return integrate_against(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    for name, module in list(sys.modules.items()):
        if name.startswith("obw") and getattr(module, "integrate", None) is integrate:
            monkeypatch.setattr(module, "integrate", counted_integrate)
    monkeypatch.setattr(Weight, "integrate_against", counted_against)
    expectation_identity_check(model)
    assert queries == []
    assert calls[0] == 0 and calls[1] >= 1


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


FEW_PAIRS = [(2.0, 1.0), (1.0, 2.0)]
MANY_PAIRS = [*FEW_PAIRS, (1.0, 0.0), (0.0, 1.0), (3.0, 3.0), (0.5, 4.0), (4.0, 0.5)]


@pytest.mark.parametrize("w", [builtin_weight("arcsine", 0.0, 1.0), expression_weight()],
                         ids=["arcsine", "expression"])
@pytest.mark.parametrize("sweep", ["audit", "exact_inf", "exact_one"])
def test_sweep_work_does_not_grow_with_pairs(counts, monkeypatch, w, sweep):
    # per x and side, the masses, first moments and witness integrals are
    # taken once; the pairs only combine them (FEW_PAIRS weights both sides
    # of both hat orientations, so MANY_PAIRS needs nothing more)
    xs = [0.2, 0.5, 0.9]
    w.total  # once per weight
    on_ramp = []  # per evaluation of a hat, whether t lies on its ramp [lo, hi]
    hat = obw.bounds._hat

    def recorded_hat(a, b, x, up):
        f = hat(a, b, x, up)
        lo, hi = f.kinks
        return replace(f, fn=lambda t: on_ramp.append(lo <= t <= hi) or f.fn(t))

    monkeypatch.setattr(obw.bounds, "_hat", recorded_hat)

    def work(pairs):
        for key in counts:
            counts[key] = 0
        if sweep == "audit":
            obw.bounds.audit_paper_vs_exact([w], xs, pairs)
        else:
            obw.bounds.sharpness_search(w, xs, pairs, kind=sweep)
        return dict(counts)

    few = work(FEW_PAIRS)
    assert work(MANY_PAIRS) == few
    # m(a, x) and m(x, b); the hat's plateau adds m(x, b) up and m(x + delta, b) down
    assert few["moment"] == (4 if sweep == "exact_one" else 2) * len(xs)
    if sweep == "exact_one":  # the hat is evaluated on its ramp only, f(x) at one end
        assert on_ramp and all(on_ramp)
    assert few["nested"] == 0
    # quadrature runs for the witness integrals and an expression weight's moment_l1
    assert (few["integrate"] > 0) == (sweep != "audit" or w.name == "expr")


@pytest.mark.parametrize("n", [3, 40])
def test_audit_checks_each_pair_once_per_weight(monkeypatch, n):
    # the pairs are checked at the first x; a later x checks only x against
    # a and b, so the TauParams built do not grow with the grid
    built = []
    post_init = TauParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TauParams, "__post_init__", counted)
    weights = [builtin_weight(name, 0.0, 1.0) for name in ("decreasing", "arcsine")]
    xs = [(k + 1) / (n + 1) for k in range(n)]
    rows = obw.bounds.audit_paper_vs_exact(weights, xs, MANY_PAIRS)
    assert len(rows) == len(weights) * n * len(MANY_PAIRS)
    assert len(built) <= len(weights) * len(MANY_PAIRS)


@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("kind", ["exact_inf", "exact_one"])
def test_sharpness_checks_each_pair_once(monkeypatch, n, kind):
    # the pairs are checked at the first x, a later x checks only x against a
    # and b, and the witnesses are built from x alone: the TauParams built do
    # not grow with the grid
    built = []
    post_init = TauParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TauParams, "__post_init__", counted)
    w = builtin_weight("arcsine", 0.0, 1.0)
    xs = [(k + 1) / (n + 1) for k in range(n)]
    _, rows = obw.bounds.sharpness_search(w, xs, MANY_PAIRS, kind=kind)
    assert len(rows) == n * len(MANY_PAIRS)
    assert len(built) <= len(MANY_PAIRS)


def test_cli_audit_builds_no_rows(monkeypatch, capsys):
    built = []
    init = obw.bounds.AuditRow.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(obw.bounds.AuditRow, "__init__", counted)
    argv = ["audit", "--weights", "uniform,arcsine", "--x-grid", "9", "--alphas", "1:1,2:0"]
    assert obw.cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 9 * 2
    assert built == []
    obw.bounds.audit_paper_vs_exact([builtin_weight("uniform", 0.0, 1.0)], [0.5], [(1.0, 1.0)])
    assert len(built) == 1  # the counter sees a row when one is built


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
    # every corpus weight is on [0, 1], so the norms depend only on f, and
    # the scan of f' (its sup and roots) and the L1 norm (f's variation over
    # the roots) not on p either; only the L_p norm integrates. tau is read
    # from the integrals per (x, side), so it is never called on its own
    calls = {"_scan": 0, "_norm_lp": 0, "tau": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in ((obw.norms, "_scan"), (obw.norms, "_norm_lp"), (obw.suites, "tau")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    report = obw.suites.run_verify_suites()
    n_configs = (
        len(corpus_functions()) * len(corpus_weights()) * len(corpus_x_values()) * len(COEFF_PAIRS)
    )
    assert report.passed
    assert calls["_scan"] == len(corpus_functions())
    assert calls["_norm_lp"] == len(corpus_functions()) * len(obw.suites.P_GRID)
    assert calls["tau"] == 0
    assert report.identity.checked == n_configs
    assert report.soundness.checked == 3 * n_configs
    assert report.reduction.checked == 36


def test_verify_computes_each_kernel_norm_once(monkeypatch, counts):
    # per (weight, x, side): J once per q, int m f' and int f w once per f,
    # whatever the pairs; int f w over [a, b] once per (weight, f). The
    # pairs take no kernel_lq, kernel_integral or tau of their own. 498
    # integrals, against 1 656 allowed (768 taken) when each pair took its own
    calls = {"_lq_side": 0, "_moment_integral": 0, "integrate_against": 0,
             "kernel_lq": 0, "kernel_integral": 0, "tau": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_lq_side", "_moment_integral", "kernel_integral", "tau"):
        counted(obw.suites, name)
    counted(obw.bounds, "kernel_lq")
    counted(Weight, "integrate_against")
    report = obw.suites.run_verify_suites()
    sides = len(corpus_weights()) * len(corpus_x_values()) * 2
    n_functions = len(corpus_functions())
    assert report.passed
    assert calls["_lq_side"] == sides * len(obw.suites.P_GRID) == 90
    assert calls["_moment_integral"] == sides * n_functions == 180
    assert calls["integrate_against"] == (sides + len(corpus_weights())) * n_functions == 210
    assert calls["kernel_lq"] == calls["kernel_integral"] == calls["tau"] == 0
    assert counts["integrate"] == 498


def test_verify_takes_each_weighted_mean_once(monkeypatch):
    # each integral once per (x, side), the pairs only combining them:
    # 667 G7/K15 panels, against 1 238 when each pair took its own kernel
    # integrals (and 2 270 when each form of tau took its own means)
    panels = [0]
    gk15 = quadrature._gk15

    def counted(*args):
        panels[0] += 1
        return gk15(*args)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    assert obw.suites.run_verify_suites().passed
    assert panels[0] == 667


def test_verify_forms_are_their_calls_on_their_own():
    # tau, its identity residual, tau_combination and tau_decomposed as
    # verify combines them equal the public calls bit for bit; the kernel
    # norms too, but ||rho||_q, whose Js verify takes to the tightest
    # tolerance a pair asks, within that tolerance
    cfg = QuadConfig()
    functions = [(f, f.derivative, None) for f in corpus_functions()]
    for w in corpus_weights():
        configurations = obw.suites._configurations(
            w, corpus_x_values(), COEFF_PAIRS, functions, cfg)
        for params, kernels, forms in configurations:
            for p, kernel in kernels.items():
                alone = obw.bounds.kernel_norms(params, w, p, cfg)
                assert (kernel.inf, kernel.one) == (alone.inf, alone.one)
                assert kernel.p == pytest.approx(alone.p, rel=0, abs=cfg.abs_tol)
            for f, (t0, res, t1, t2) in zip(corpus_functions(), forms):
                assert t0 == tau(f, w, params, cfg)
                assert res == kernel_integral(f.derivative, params, w, cfg) - t0
                assert t1 == tau_combination(f, w, params, cfg)
                assert t2 == tau_decomposed(f, w, params, cfg)


def test_table_panel_count(monkeypatch):
    # refined like integrate, largest estimate first: the whole interval and
    # two bisections, each leaf judged by its interpolant's last four Legendre
    # coefficients (15 panels under the bound on p - p7 that this replaced)
    panels = [0]
    gk15 = quadrature._gk15

    def counted(*args):
        panels[0] += 1
        return gk15(*args)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    density = as_fn1d("exp(1.469*t) + 0.291 + 1.15*(1/(t + 0.475))")
    builtin_weight("increasing", 0.0, 1.0).cumulative(density, 0.0, 1.0, QuadConfig(abs_tol=1e-10))
    assert panels[0] == 5


_TABLE_CASES = {
    "exp": (math.exp, 0.0, 1.0),
    "sin": (lambda t: math.sin(10 * t), 0.0, 2.0),
    "sqrt": (math.sqrt, 0.0, 1.0),
    "runge": (lambda t: 1 / (1 + 25 * t * t), -1.0, 1.0),
}
# integrate's |K15 - G7| estimate misses its error next to the square-root end
# point: at 1e-12 it is off by 2.3e-12 and reports 7.0e-13, while the table's
# total is within 4.5e-15 of 2/3
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
