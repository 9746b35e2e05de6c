import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obw.cdf
import obw.cli
import obw.weights
from obw.bounds import AuditRow, SharpnessRow, audit_paper_vs_exact
from obw.cdf import CdfReport
from obw.cli import main
from obw.corpus import FUNCTION_SOURCES
from obw.weights import builtin_weight


# f' jumps from s - 1 to s + 1 at k, past the outermost G7/K15 node of
# [0, 1/2], with no sign change: its L1 norm is (s - 1) k + (s + 1) (1 - k)
_SLIVER_JUMP = "abs(t - 0.4979137307079855) + 1.7953266111634716*t"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_basic_report(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--a", "0", "--b", "1", "--x", "0.5",
            "--alpha", "1", "--beta", "1",
            "--weight", "uniform", "--function", "t^2", "--p", "2",
        )
        assert code == 0
        assert "tau = -8.33333333e-02" in out
        assert "paper_inf = 5.00000000e-01" in out

    def test_constant_function(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--x", "0.5", "--function", "3", "--weight", "uniform"
        )
        assert code == 0
        tau_line = next(ln for ln in out.splitlines() if ln.startswith("tau ="))
        assert abs(float(tau_line.split("=")[1])) < 1e-12
        assert "paper_inf = 0.00000000e+00" in out
        assert "ratio_exact_inf = 0.00000000e+00" in out

    def test_missing_x_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--function", "t^2")
        assert code == 2
        assert out == ""
        assert err == "usage error: the following arguments are required: --x\n"

    def test_aggregated_usage_errors(self, capsys):
        code, out, err = run(capsys, "bounds")
        assert code == 2
        assert out == ""
        assert err == "usage error: the following arguments are required: --x, --function\n"

    def test_weight_and_weight_expr_are_exclusive(self, capsys):
        # "uniform" as typed here is the very object of a "uniform" default
        code, out, err = run(
            capsys, "bounds", "--x", "0.5", "--function", "t^2",
            "--weight", "uniform", "--weight-expr", "1 + t",
        )
        assert code == 2
        assert out == ""
        assert err == "usage error: argument --weight-expr: not allowed with argument --weight\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--x", "0.5", "--function", "t^2", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["tau"] == "-8.33333333e-02"

    def test_csv_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--x", "0.5", "--function", "t^2", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == (
            "tau,paper_inf,paper_p,paper_one,exact_inf,exact_p,exact_one,"
            "norm_inf,norm_p,norm_one,ratio_paper_inf,ratio_paper_p,ratio_paper_one,"
            "ratio_exact_inf,ratio_exact_p,ratio_exact_one"
        )
        assert row.split(",")[0] == "-8.33333333e-02"

    def test_registry_function_name(self, capsys):
        code, out, _ = run(capsys, "bounds", "--x", "0.5", "--function", "quadratic")
        assert code == 0
        assert "tau = -8.33333333e-02" in out

    @pytest.mark.parametrize("name", sorted(FUNCTION_SOURCES))
    def test_registry_name_is_its_expression(self, capsys, name):
        argv = ("bounds", "--x", "0.37", "--weight", "arcsine", "--p", "3", "--function")
        assert run(capsys, *argv, name) == run(capsys, *argv, FUNCTION_SOURCES[name])

    def test_kink_at_a_panel_midpoint(self, capsys):
        # f' of abs(t - 0.5) is 0/0 at t = 0.5, the first GK15 midpoint: the
        # derivative there is a central difference, and every norm of f' is 1
        code, out, _ = run(capsys, "bounds", "--x", "0.3", "--function", "abs(t-0.5)")
        assert code == 0
        for name in ("norm_inf", "norm_p", "norm_one"):
            assert f"{name} = 1.00000000e+00" in out

    @pytest.mark.parametrize("argv, line", [
        # f' = 1/(2 sqrt(t)): the integral of |f'| printed 9.99999999e-01
        (("--x", "0.3", "--function", "sqrt(t)", "--p", "1.5"), "norm_one = 1.00000000e+00"),
        # the integral of |f'| printed 1.79532661e+00
        (("--x", "0.5", "--function", _SLIVER_JUMP), "norm_one = 1.79949915e+00"),
    ], ids=["algebraic-end", "jump"])
    def test_l1_norm_is_the_variation_of_f(self, capsys, argv, line):
        code, out, _ = run(capsys, "bounds", *argv)
        assert code == 0
        assert line in out.splitlines()

    def test_weight_expression(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--x", "0.5", "--function", "t^2",
            "--weight-expr", "1 + 0*t",
        )
        assert code == 0
        assert "tau = -8.33333333e-02" in out

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--x", "0.5", "--function", "t +")
        assert code == 2

    def test_degenerate_point_is_compute_error(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--x", "0", "--function", "t^2", "--weight", "uniform"
        )
        assert code == 1

    @pytest.mark.parametrize("argv, norm", [
        (("--function", "1/t"), "L2"),
        (("--function", "1/t", "--p", "3"), "L3"),
    ])
    def test_arithmetic_error_is_compute_error(self, capsys, argv, norm):
        # |f'|^p = t^(-2p) overflows near 0: the message says which norm failed
        code, out, err = run(capsys, "bounds", "--x", "0.5", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {norm} norm of f' on [0, 1]: |f'|^")
        assert "overflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ("bounds", "--x", "0.5", "--function", "t"),
        ("cdf", "--density", "2*t", "--x", "0.5"),
    ], ids=["bounds", "cdf"])
    @pytest.mark.parametrize("p", ["inf", "-inf", "nan", "1e400", "0.5", "1", "0", "-3"])
    def test_p_out_of_range_is_usage_error(self, capsys, command, p):
        code, out, err = run(capsys, *command, "--p", p)
        assert code == 2
        assert out == ""
        assert err == (f"usage error: argument --p: must be a finite number > 1, "
                       f"got {float(p):g}\n")

    @pytest.mark.parametrize("command", ["bounds", "cdf"])
    def test_p_not_a_number_is_usage_error(self, capsys, command):
        code, _, err = run(capsys, command, "--p", "two")
        assert code == 2
        assert err.startswith("usage error: argument --p: invalid float value: 'two'")

    def test_divergent_norm_is_named(self, capsys):
        # f' = 1/(2 sqrt(t)) is not in L2: the message says which norm failed
        code, out, err = run(capsys, "bounds", "--x", "0.3", "--function", "sqrt(t)")
        assert code == 1
        assert out == ""
        assert err.startswith("error: L2 norm of f' on [0, 1]: no convergence after 1000")
        assert "Traceback" not in err

    def test_derivative_without_a_value_is_named(self, capsys):
        # f' = 1/t is sampled at t = 0, where its stencils evaluate log(0)
        code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", "log(t)")
        assert (code, out) == (1, "")
        assert err == "error: sup norm of f' on [0, 1]: f' fails at t=0: ValueError: math domain error\n"

    def test_weight_expr_table_out_of_subdivisions_is_named(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--x", "0.5", "--function", "t^2",
            "--weight-expr", "1 + sin(40*t)^2", "--max-subdiv", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --weight-expr table on [0, 1]: no convergence after 2 ")
        assert "Traceback" not in err

    def test_kernel_lq_out_of_subdivisions_is_named(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--x", "0.5", "--function", "t", "--weight", "exponential:lam=30",
            "--p", "1.9", "--max-subdiv", "2", "--tol", "1e-13",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: kernel_lq left branch on [0, 0.5]: no convergence after 2 ")
        assert "Traceback" not in err

    def test_zero_weight_is_compute_error(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--x", "0.5", "--function", "t^2", "--weight-expr", "0*t"
        )
        assert code == 1
        assert out == ""
        assert err == "error: --weight-expr has no positive mass on [0, 1]\n"


def _exit_and_output(argv):
    """Exit code, stdout and stderr of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_NUMBERS = st.sampled_from(["0", "1", "0.5", "0.25", "-1", "2", "nan", "inf", "-inf", "1e308"])
_FLAGS = {
    "--a": st.sampled_from(["0", "-1", "0.5", "nan", "inf", "-inf"]),
    "--b": st.sampled_from(["1", "0", "2", "nan", "inf"]),
    "--alpha": _NUMBERS,
    "--beta": _NUMBERS,
    "--p": st.sampled_from(["2", "1", "0.5", "0", "-3", "1.5", "nan", "inf"]),
    "--tol": st.sampled_from(["1e-8", "0", "-1", "nan", "inf"]),
    "--weight": st.sampled_from(
        ["uniform", "", ":", "nope", "power", "power:", "power:p", "power:p=",
         "power:=1", "power:p=1,q=0,r=3", "power:p=-1", "power:p=nan,q=0.5",
         "power:p=-0.5,q=inf", "exponential:lam=inf", "truncnorm:sigma=0"]
    ),
    "--weight-expr": st.sampled_from(["", "0*t", "1+t", "t-0.2", "1/t", "t +", "exp(1000*t)"]),
    "--norm": st.sampled_from(["inf", "p", "one"]),
}


@st.composite
def bounds_argv(draw):
    argv = ["bounds", "--x", draw(_NUMBERS), "--function", draw(st.sampled_from(
        ["t^2", "", "t +", "1/t", "sqrt(t)", "log(t)", "exp(1000*t)", "quadratic", "3"]
    ))]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS)), unique=True, max_size=4)):
        argv += [flag, draw(_FLAGS[flag])]
    return argv


def _assert_clean_exit(argv):
    """A documented exit code, no traceback, and no NaN in a successful report."""
    code, out, err = _exit_and_output(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out.lower()
    else:
        assert out == ""
        assert err.startswith("usage error: " if code == 2 else "error: ")


@given(bounds_argv())
@settings(max_examples=150, deadline=None)
def test_bounds_bad_input_exits_cleanly(argv):
    _assert_clean_exit(argv)


_WEIGHT_SPECS = st.sampled_from(
    ["uniform", "decreasing", "arcsine", "power:p=-0.99,q=0", "power:p=50,q=50",
     "power:p=nan", "exponential:lam=700", "exponential:lam=-inf", "truncnorm:sigma=1e-9",
     "truncnorm:mu=inf", "nope"]
)
_COEFF = st.sampled_from(["0", "1", "2", "1e-300", "1e308", "nan", "inf", "-inf", "-1"])
_SWEEP_FLAGS = {
    "--a": _FLAGS["--a"],
    "--b": _FLAGS["--b"],
    "--tol": _FLAGS["--tol"],
    "--x-grid": st.sampled_from(["1", "2", "0", "x"]),
    "--alphas": st.lists(st.tuples(_COEFF, _COEFF), min_size=1, max_size=2).map(
        lambda pairs: ",".join(f"{alpha}:{beta}" for alpha, beta in pairs)
    ),
}


@st.composite
def sweep_argv(draw):
    command = draw(st.sampled_from(["audit", "sharpness", "cdf"]))
    flags = dict(_SWEEP_FLAGS)
    if command == "audit":
        flags["--weights"] = _WEIGHT_SPECS
    else:
        flags["--weight"] = _WEIGHT_SPECS
    if command == "sharpness":
        flags["--kind"] = st.sampled_from(["exact_inf", "exact_one"])
    if command == "cdf":
        del flags["--alphas"]
        flags.update({"--alpha": _COEFF, "--beta": _COEFF, "--p": _FLAGS["--p"]})
        argv = ["cdf", "--density", draw(st.sampled_from(["2*t", "1", "exp(t)", "t-0.3"]))]
        argv += ["--x", draw(_NUMBERS)] if draw(st.booleans()) else ["--x-grid", "2"]
    else:
        argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        argv += [flag, draw(flags[flag])]
    return argv


@given(sweep_argv())
@settings(max_examples=150, deadline=None)
def test_sweep_bad_input_exits_cleanly(argv):
    _assert_clean_exit(argv)


@pytest.mark.parametrize("argv, named", [
    (("audit", "--weights", "uniform", "--x-grid", "1", "--alphas", "nan:1"), "alpha=nan"),
    (("sharpness", "--x-grid", "1", "--alphas", "inf:1"), "alpha=inf"),
    (("cdf", "--density", "2*t", "--x", "0.5", "--beta", "inf"), "beta=inf"),
    (("bounds", "--x", "0.5", "--function", "t^2", "--alpha", "1e308", "--beta", "1e308"),
     "alpha=1e+308, beta=1e+308"),
    (("bounds", "--x", "0.5", "--function", "t^2", "--b", "inf"), "domain"),
    (("audit", "--x-grid", "1", "--a", "nan"), "domain"),
], ids=["audit-nan", "sharpness-inf", "cdf-inf", "bounds-sum", "bounds-domain", "audit-domain"])
def test_non_finite_coefficients_and_domain_are_compute_errors(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err


class TestWeightSpecs:
    @pytest.mark.parametrize("spec, names", [
        ("power:p=-0.3,q=0.5,uniform", ["power(p=-0.3,q=0.5)", "uniform"]),
        ("uniform,exponential:lam=2", ["uniform", "exponential(lam=2)"]),
        ("power:p=-0.3,q=0.5,exponential:lam=2",
         ["power(p=-0.3,q=0.5)", "exponential(lam=2)"]),
    ])
    def test_audit_weight_list(self, capsys, spec, names):
        code, out, _ = run(capsys, "audit", "--weights", spec, "--x-grid", "1")
        assert code == 0
        rows = [row[0] for row in csv.reader(io.StringIO(out))][1:]
        assert rows == [n for n in names for _ in range(2)]

    @pytest.mark.parametrize("spec, part", [
        ("power:p=1,q=0,r=3", "'r'"),
        ("nope", "'nope'"),
        ("power:p", "'p'"),
        ("power:p=1,q=", "'q='"),
    ])
    def test_malformed_spec_is_usage_error(self, capsys, spec, part):
        for argv in (("audit", "--weights", spec), ("sharpness", "--weight", spec)):
            code, _, err = run(capsys, *argv, "--x-grid", "1")
            assert code == 2
            assert err.startswith("usage error:") and part in err

    def test_out_of_range_parameter_is_compute_error(self, capsys):
        code, _, err = run(capsys, "audit", "--weights", "power:p=-1", "--x-grid", "1")
        assert code == 1
        assert "integrability" in err

    @pytest.mark.parametrize("spec, named", [
        ("power:p=nan", "p=nan"), ("power:p=inf", "p=inf"), ("power:q=nan", "q=nan"),
    ])
    def test_non_finite_exponent_is_named(self, capsys, spec, named):
        code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", "t^2", "--weight", spec)
        assert (code, out) == (1, "")
        assert err == f"error: power weight requires a finite exponent, got {named}\n"

    @pytest.mark.parametrize("spec, named", [
        ("exponential:lam=nan", "exponential weight requires a finite parameter, got lam=nan"),
        ("exponential:lam=inf", "exponential weight requires a finite parameter, got lam=inf"),
        ("truncnorm:sigma=nan", "truncnorm weight requires a finite parameter, got sigma=nan"),
        ("truncnorm:sigma=inf", "truncnorm weight requires a finite parameter, got sigma=inf"),
        ("truncnorm:mu=nan", "truncnorm weight requires a finite parameter, got mu=nan"),
    ])
    def test_non_finite_parameter_is_named(self, capsys, spec, named):
        # each read as a zero weight mass on [0, 0.5] before
        code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", "t^2", "--weight", spec)
        assert (code, out) == (1, "")
        assert err == f"error: {named}\n"


@pytest.mark.parametrize("command", ["audit", "sharpness"])
@pytest.mark.parametrize("item", ["1:", ":1", "1", "a:b", ""])
def test_malformed_alphas_is_usage_error(capsys, command, item):
    code, out, err = run(capsys, command, "--alphas", f"1:1,{item}", "--x-grid", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: argument --alphas: bad item") and repr(item) in err


class TestWeightExprSign:
    def test_negative_weight_is_compute_error(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--x", "0.5", "--function", "t^2", "--weight-expr", "t-0.2"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --weight-expr is negative at t=")
        # the first grid point, just inside a = 0
        t = float(err.split("t=")[1].split(":")[0])
        assert 0 < t < 1e-4

    def test_first_negative_point_is_named(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--a", "-1", "--b", "2", "--x", "0.5", "--function", "t^2",
            "--weight-expr", "1.5 - t",
        )
        assert code == 1
        t = float(err.split("t=")[1].split(":")[0])
        assert 1.5 < t < 1.5 + 3 * 3.2 / 129

    def test_complex_weight_is_compute_error(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--x", "0.5", "--function", "t^2", "--weight-expr", "(t-0.5)^0.5"
        )
        assert code == 1
        assert "--weight-expr is not real at t=" in err

    def test_non_finite_weight_left_to_quadrature(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--x", "0.5", "--function", "t^2", "--weight-expr", "1e308*10*t"
        )
        assert code == 1
        assert "non-finite integrand value" in err

    def test_nonnegative_weight_accepted(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--x", "0.5", "--function", "t^2", "--weight-expr", "(t-0.5)^2"
        )
        assert code == 0
        assert out.startswith("tau = ")


def test_deeply_nested_function(capsys):
    source = "sin(" * 400 + "t" + ")" * 400
    code, out, _ = run(capsys, "bounds", "--x", "0.5", "--function", source)
    assert code == 0
    assert "tau = 5.87892843e-03" in out


def test_deep_power_tower(capsys):
    # 400 levels parse; each level's logarithmic rule binds its value to a local
    code, out, _ = run(capsys, "bounds", "--x", "0.5", "--function", "t" + "^t" * 400)
    assert code == 0
    assert out.startswith("tau = ")


@pytest.mark.parametrize("source", [
    "t" + "^t" * 900,
    "sin(" * 497 + "t" + ")" * 497,
    "-" * 401 + "t",
    "(" * 401 + "t" + ")" * 401,
], ids=["pow900", "sin497", "neg401", "paren401"])
def test_nesting_limit_is_usage_error(capsys, source):
    code, out, err = run(capsys, "bounds", "--x", "0.5", "--function=" + source)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: expression nested more than 400 levels deep")


@pytest.mark.parametrize("source", ["(t-0.5)^0.5", "t + (0-8)^0.5"])
def test_complex_function_is_compute_error(capsys, source):
    code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", source)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --function is not real at t=")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, kind, t", [
    (("bounds", "--x", "0.3", "--function", "1/(t-0.5)"), "--function", "ZeroDivisionError", "0.5"),
    (("bounds", "--x", "0.3", "--function", "t", "--weight-expr", "1/(t-0.5)^2"),
     "--weight-expr", "ZeroDivisionError", "0.5"),
    (("cdf", "--x", "0.3", "--density", "1/(t-0.5)^2"), "--density", "ZeroDivisionError", "0.5"),
    (("bounds", "--x", "0.3", "--function", "exp(1000*t)"), "--function", "OverflowError",
     "0.712228349"),
], ids=["function-division", "weight-expr-division", "density-division", "function-overflow"])
def test_arithmetic_failure_on_a_sample_is_named(capsys, argv, flag, kind, t):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} fails at t={t}: {kind}: ")
    assert "Traceback" not in err


def test_complex_density_is_compute_error(capsys):
    code, out, err = run(capsys, "cdf", "--x", "0.5", "--density", "(t-0.5)^0.5")
    assert code == 1
    assert err.startswith("error: --density is not real at t=")


@pytest.mark.parametrize("source", ["t + sqrt(0-1)", "t + log(0)"])
@pytest.mark.parametrize("command, flag", [("bounds", "--function"), ("cdf", "--density")])
def test_constant_without_real_value_is_named(capsys, command, flag, source):
    # the constant is left unfolded, so the sample check meets it and names the flag
    code, out, err = run(capsys, command, "--x", "0.5", flag, source)
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} is not real at t=3.70676434e-05: math domain error\n"


@pytest.mark.parametrize("argv, flag", [
    (("bounds", "--x", "0.5", "--function", "t", "--weight-expr"), "--weight-expr"),
    (("cdf", "--x", "0.5", "--density"), "--density"),
], ids=["weight-expr", "density"])
def test_no_real_value_between_samples_names_the_flag(capsys, argv, flag):
    # not real only for |t - 0.3| < 1e-3, which no sample meets but a node
    # of the table's quadrature does
    code, out, err = run(capsys, *argv, "((t-0.3)^2 - 1e-6)^0.5")
    assert (code, out) == (1, "")
    assert err == f"error: {flag} table on [0, 1]: ValueError: math domain error\n"


@pytest.mark.parametrize("argv, flag, maker", [
    (("bounds", "--x", "0.5", "--function", "t", "--weight-expr", "1 + t"), "--weight-expr",
     "tabulated_weight"),
    (("cdf", "--x", "0.5", "--density", "1 + t"), "--density", "DensityModel"),
], ids=["weight-expr", "density"])
def test_arithmetic_failure_in_a_table_names_the_flag(capsys, monkeypatch, argv, flag, maker):
    def fails(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(obw.cli, maker, fails)
    assert run(capsys, *argv) == (
        1, "", f"error: {flag} table on [0, 1]: ZeroDivisionError: float division by zero\n")


def test_table_keeps_its_other_errors(capsys):
    # the domain and the density's mass are not the expression's failures
    code, _, err = run(capsys, "bounds", "--x", "0.5", "--function", "t", "--weight-expr", "1",
                       "--a", "nan")
    assert (code, err) == (1, "error: weight domain requires finite a < b, got [nan, 1]\n")
    code, _, err = run(capsys, "cdf", "--x", "0.5", "--density", "0*t")
    assert (code, err) == (1, "error: density 0*t has weighted mass 0 on [0, 1]; "
                              "it must be positive\n")


_HUGE = ("--a", "-1e308", "--b", "1e308")


@pytest.mark.parametrize("argv", [
    ("audit", *_HUGE, "--x-grid", "3"),
    ("bounds", *_HUGE, "--x", "0", "--function", "t", "--weight", "arcsine"),
    ("bounds", *_HUGE, "--x", "0", "--function", "t", "--weight", "truncnorm"),
    ("bounds", *_HUGE, "--x", "0", "--function", "t", "--weight-expr", "1"),
    ("cdf", "--density", "1", *_HUGE, "--x", "0"),
], ids=["audit", "arcsine", "truncnorm", "weight-expr", "cdf"])
def test_domain_whose_length_overflows_is_named(capsys, argv):
    # a and b are finite, but b - a is not
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: weight domain requires a finite length b - a, "
                   "got [-1e+308, 1e+308]\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--x", "5e-301", "--function", "t"),
    ("bounds", "--x", "5e-301", "--function", "t", "--weight-expr", "1"),
    ("sharpness", "--x-grid", "3"),
    ("audit", "--x-grid", "3"),
    ("cdf", "--density", "1", "--x", "5e-301"),
], ids=["bounds", "weight-expr", "sharpness", "audit", "cdf"])
@pytest.mark.parametrize("b", ["1e-300", "1e-160"])
def test_domain_whose_squared_length_underflows_is_named(capsys, argv, b):
    # a branch's integral of t, about (b - a)^2, would read 0: tau was printed
    # as x itself, and exact_inf as 0
    code, out, err = run(capsys, *argv, "--a", "0", "--b", b)
    assert (code, out) == (1, "")
    assert err == f"error: weight domain [0, {b}] is too short: (b - a)^2 underflows\n"


@pytest.mark.parametrize("argv", [
    ("sharpness", "--x-grid", "3"),
    ("bounds", "--x", "0", "--function", "t"),
    ("audit", "--x-grid", "3"),
], ids=["sharpness", "bounds", "audit"])
def test_domain_whose_squared_length_overflows_is_named(capsys, argv):
    # b - a is finite, but the uniform weight's moment_l1, about (b - a)^2, is not
    code, out, err = run(capsys, *argv, "--a", "-1e200", "--b", "1e200")
    assert (code, out) == (1, "")
    assert err == "error: weight domain [-1e+200, 1e+200] is too long: (b - a)^2 overflows\n"


@pytest.mark.parametrize("argv, message", [
    (("audit", "--weights", "decreasing", "--a", "0", "--b", "1e110", "--x-grid", "3"),
     "[0, 1e+110] is too long for p=0, q=1: (b - a)^3 overflows"),
    (("audit", "--weights", "power:p=200,q=0", "--a", "0", "--b", "100", "--x-grid", "3"),
     "[0, 100] is too long for p=200, q=0: (b - a)^201 overflows"),
    (("bounds", "--weight", "power:p=200,q=0", "--a", "0", "--b", "0.01", "--x", "0.005",
      "--function", "t"), "[0, 0.01] is too short for p=200, q=0: (b - a)^201 underflows"),
    (("audit", "--weights", "power:p=3,q=3", "--a", "0", "--b", "1e-100", "--x-grid", "3"),
     "[0, 1e-100] is too short for p=3, q=3: (b - a)^7 underflows"),
    (("bounds", "--weight", "power:p=150,q=150", "--a", "0", "--b", "0.1", "--x", "0.05",
      "--function", "t"),
     "[0, 0.1] is too short for p=150, q=150: the mass (b - a)^301 B(151, 151) underflows"),
    (("bounds", "--weight", "power:p=200,q=0", "--a", "0", "--b", "0.03", "--x", "0.029",
      "--function", "t"),
     "[0, 0.03] is too short for p=200, q=0: the mass (b - a)^201 B(201, 1) underflows"),
    (("bounds", "--weight", "decreasing", "--a", "0", "--b", "1.5e-154", "--x", "7.5e-155",
      "--function", "t"), "[0, 1.5e-154] is too short for p=0, q=1: (b - a)^3 underflows"),
], ids=["decreasing-long", "p200-long", "p200-short", "p3q3-short", "p150q150-total",
        "p200-subnormal-total", "decreasing-l1-short"])
def test_power_moment_scale_out_of_range_is_named(capsys, argv, message):
    # an overflow printed only "arithmetic failure (OverflowError: ...)"; an
    # underflow of (b - a)^(p + q + 1), or of the total, a zero weight mass; a
    # subnormal total tau = -inf; and an underflow of (b - a)^(p + q + 2)
    # exact_inf = 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: weight domain {message}\n"


@pytest.mark.parametrize("argv", [
    ("bounds", "--x", "0.5", "--function", "t", "--weight", "exponential:lam=1e-170"),
    ("audit", "--weights", "exponential:lam=1e-200", "--x-grid", "3"),
    ("audit", "--weights", "exponential:lam=5e-324", "--x-grid", "3"),
], ids=["bounds-1e-170", "audit-1e-200", "audit-5e-324"])
def test_exponential_at_a_tiny_rate_runs(capsys, argv):
    # lam^2 underflows to 0, which the L1 branch divided by
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "nan" not in out


def test_exponential_at_a_tiny_rate_is_uniform(capsys):
    tiny = run(capsys, "bounds", "--x", "0.5", "--function", "t", "--weight",
               "exponential:lam=1e-170")
    assert tiny == run(capsys, "bounds", "--x", "0.5", "--function", "t", "--weight", "uniform")


def test_exponential_overflow_is_named(capsys):
    # e^1000 overflows at b = 1: it printed "arithmetic failure (OverflowError: ...)"
    code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", "t", "--weight",
                         "exponential:lam=-1000")
    assert (code, out) == (1, "")
    assert err == "error: exponential(lam=-1000) on [0, 1]: e^(-lam t) or its mass overflows\n"


@pytest.mark.parametrize("p, expected", [("200.5", -0.05357216822), ("158.5", -0.05028070005)])
def test_exponent_past_the_end_rules_reach(capsys, p, expected):
    # the end rule divides by (1 - 0.9915)^p at its outermost node, which
    # falls to 0 past p = 148.7 (a division by zero); G7/K15 takes such an
    # end. The values are mpmath's
    code, out, err = run(capsys, "bounds", "--weight", f"power:p={p},q=0", "--x", "0.95",
                         "--function", "exp(t)")
    assert (code, err) == (0, "")
    tau = float(next(line for line in out.splitlines() if line.startswith("tau = "))[6:])
    assert tau == pytest.approx(expected, abs=1e-9)


# 3 001 terms: the parser builds a sum in a loop, so no nesting limit applies
_LONG_SUM = "+".join(["t"] * 3001)


@pytest.mark.parametrize("argv, line", [
    (("bounds", "--x", "0.5", "--function", _LONG_SUM), "norm_inf = 3.00100000e+03"),
    (("cdf", "--x", "0.5", "--density", _LONG_SUM), "5.00000000e-01,2.50000000e-01,"),
], ids=["function", "density"])
def test_long_sum_is_reported(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert any(row.startswith(line) for row in out.splitlines())


# Not real only for |t - 0.3| < 1e-3, which no sample point reaches: the
# quadrature meets the point instead.
_NOT_REAL_BETWEEN_SAMPLES = "((t-0.3)^2 - 1e-6)^0.5"


@pytest.mark.parametrize("argv", [
    ("bounds", "--x", "0.5", "--function", _NOT_REAL_BETWEEN_SAMPLES),
    ("bounds", "--x", "0.5", "--function", "t^2", "--weight-expr", _NOT_REAL_BETWEEN_SAMPLES),
    ("cdf", "--x", "0.5", "--density", _NOT_REAL_BETWEEN_SAMPLES),
], ids=["function", "weight-expr", "density"])
def test_not_real_between_samples_is_compute_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestParserPerProcess:
    ARGV = ("bounds", "--x", "0.3", "--function", "sine", "--weight", "decreasing")

    def test_built_once(self, capsys):
        run(capsys, *self.ARGV)
        built = obw.cli.build_parser.cache_info().misses
        run(capsys, *self.ARGV)
        run(capsys, "audit", "--x-grid", "1")
        assert obw.cli.build_parser.cache_info().misses == built == 1

    def test_config_defaults_end_with_the_invocation(self, capsys, tmp_path):
        _, default_out, _ = run(capsys, *self.ARGV)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": 3, "alpha": 2}))
        _, config_out, _ = run(capsys, "--config", str(cfg), *self.ARGV)
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0
        assert out == default_out != config_out

    def test_failed_config_parse_restores_defaults(self, capsys, tmp_path):
        _, default_out, _ = run(capsys, *self.ARGV)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": 3, "alpha": "two"}))
        assert _exit_and_output(["--config", str(cfg), *self.ARGV])[0] == 2
        assert run(capsys, *self.ARGV)[1] == default_out

    def test_obw_tol_read_per_invocation(self, capsys, monkeypatch):
        monkeypatch.setenv("OBW_TOL", "-1")
        assert run(capsys, *self.ARGV)[0] == 1
        monkeypatch.setenv("OBW_TOL", "1e-9")
        assert run(capsys, *self.ARGV)[0] == 0
        monkeypatch.setenv("OBW_TOL", "tight")
        code, _, err = run(capsys, *self.ARGV)
        assert code == 2
        assert "OBW_TOL" in err and "'tight'" in err
        assert run(capsys, *self.ARGV, "--tol", "1e-9")[0] == 0
        monkeypatch.delenv("OBW_TOL")
        assert run(capsys, *self.ARGV)[0] == 0


class TestVerifyCommand:
    def test_default_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "identity: 0 failures" in out
        assert "soundness: 0 failures" in out
        assert "reductions: 0 failures" in out

    def test_broken_budget_fails(self, capsys):
        code, _, err = run(capsys, "verify", "--tol", "1e-14", "--max-subdiv", "1")
        assert code == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--a", "0"),
    ("verify", "--b", "1"),
    ("verify", "--format", "csv"),
    ("audit", "--format", "csv"),
    ("sharpness", "--format", "csv"),
    ("cdf", "--density", "2*t", "--x", "0.5", "--format", "csv"),
])
def test_flag_the_command_ignores_is_rejected(argv):
    code, out, err = _exit_and_output(list(argv))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: unrecognized arguments: ") and argv[-2] in err


class TestAuditCommand:
    def test_flagged_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--weights", "uniform,decreasing,increasing", "--x-grid", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "weight_name,x,alpha,beta,paper_inf_factor,exact_inf_factor,ratio,flagged"
        )
        flagged = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert flagged
        assert all(not ln.startswith("uniform") for ln in flagged)
        assert any(ln.startswith("decreasing") for ln in flagged)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "audit.csv"
        code, out, _ = run(
            capsys,
            "audit", "--weights", "uniform", "--x-grid", "3",
            "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("weight_name,")

    @pytest.mark.parametrize("argv", [
        ("audit", "--weights", "truncnorm:mu=0,sigma=0.01", "--x-grid", "1",
         "--a", "0.9", "--b", "1"),
        ("bounds", "--weight", "truncnorm:mu=0,sigma=0.01", "--x", "0.95", "--function", "t",
         "--a", "0.9", "--b", "1"),
    ], ids=["audit", "bounds"])
    def test_underflowed_branch_mass_names_the_branch(self, capsys, argv):
        # the mass of [0.9, 0.95] is exp(-4050)-small: the printed bracket
        # takes it by the degenerate-mass rule, not as a zero divisor
        assert run(capsys, *argv) == (1, "", "error: zero weight mass on [0.9, 0.95]\n")

    def test_weight_name_keeps_csv_quoting(self, capsys):
        # the exact line of the CSV as csv.writer wrote it
        code, out, _ = run(capsys, "audit", "--weights", "truncnorm:mu=0.5,sigma=0.32",
                           "--x-grid", "2", "--alphas", "1:0")
        assert code == 0
        assert out.splitlines()[1] == (
            '"truncnorm(mu=0.5,sigma=0.32)",3.33333333e-01,1.00000000e+00,0.00000000e+00,'
            "2.49739260e-01,1.38120790e-01,1.80812215e+00,0"
        )

    def test_columns_match_the_row_view(self, capsys):
        # the CLI writes audit_columns with no rows; the rows it would write
        # are the library's, through csv.writer
        code, out, err = run(capsys, "audit", "--weights",
                             "truncnorm:mu=0.5,sigma=0.32,power:p=-0.4,q=0.3,uniform",
                             "--x-grid", "7", "--alphas", "1:0,0:1,2.5:0.75,1e-3:4")
        assert (code, err) == (0, "")
        weights = [builtin_weight("truncnorm", 0.0, 1.0, mu=0.5, sigma=0.32),
                   builtin_weight("power", 0.0, 1.0, p=-0.4, q=0.3),
                   builtin_weight("uniform", 0.0, 1.0)]
        rows = audit_paper_vs_exact(weights, obw.cli._interior_grid(0.0, 1.0, 7),
                                    [(1.0, 0.0), (0.0, 1.0), (2.5, 0.75), (1e-3, 4.0)])
        assert len(rows) == 3 * 7 * 4
        assert out == csv_writer_table(AuditRow, rows)

    @pytest.mark.parametrize("weights, alphas, bounds", [
        ("uniform,decreasing", "1:1,-1:2", ()),
        ("decreasing,uniform", "0:1,1:0,0:1e200", ()),
        ("uniform,truncnorm:mu=0,sigma=0.01", "1:1", (0.9, 1.0)),
    ], ids=["coefficient", "overflow", "mass-of-the-second-weight"])
    def test_failing_row_reads_as_in_the_library(self, capsys, weights, alphas, bounds):
        a, b = bounds or (0.0, 1.0)
        argv = ["audit", "--weights", weights, "--x-grid", "3", "--alphas", alphas,
                "--a", str(a), "--b", str(b)]
        with pytest.raises((ValueError, ArithmeticError)) as got:
            audit_paper_vs_exact(obw.cli._weights(weights, a, b), obw.cli._interior_grid(a, b, 3),
                                 obw.cli._coeff_pairs(alphas))
        exc = got.value
        if isinstance(exc, ArithmeticError):
            line = f"error: arithmetic failure ({type(exc).__name__}: {exc})\n"
        else:
            line = f"error: {exc}\n"
        assert run(capsys, *argv) == (1, "", line)


def reference_cell(v) -> str:
    """A bool as 1 or 0, a float to 9 significant digits in exponent style."""
    if isinstance(v, bool):
        return "1" if v else "0"
    return f"{v:.8e}" if isinstance(v, float) else str(v)


def csv_writer_table(row_type, rows):
    """A table as csv.writer writes the rows with each value through reference_cell."""
    names = [f.name for f in dataclasses.fields(row_type)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([reference_cell(getattr(row, n)) for n in names] for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("rows", [
    [AuditRow("truncnorm(mu=0.5,sigma=0.32)", 0.25, 1.0, 0.0, 0.5, 0.25, 2.0, False),
     AuditRow('say "so"', 1e-300, 2.5, 1e300, -0.0, 5e-324, 1.0, True),
     AuditRow("line\nbreak,\r", 0.5, 1.0, 1.0, 0.1, 0.3, 1 / 3, True),
     AuditRow("plain", math.inf, -math.inf, math.nan, 0.0, math.nan, math.inf, False)],
    [],
], ids=["quoting-inf-nan-bools", "no-rows"])
def test_row_writer_matches_csv_writer(rows):
    assert obw.cli._table(AuditRow, rows) == csv_writer_table(AuditRow, rows)


@pytest.mark.parametrize("row_type, row", [
    (SharpnessRow, SharpnessRow(0.5, 1.0, 0.0, 0.9990000000000001)),
    (CdfReport, CdfReport(0.5, 0.25, 0.75, 0.0, 0.25, 0.28867513459481287, 0.5, 5.5e-17)),
])
def test_row_writer_matches_csv_writer_for_every_row_type(row_type, row):
    assert obw.cli._table(row_type, [row, row]) == csv_writer_table(row_type, [row, row])


class TestSharpnessCommand:
    def test_best_ratio_reported(self, capsys):
        code, out, err = run(capsys, "sharpness", "--weight", "uniform", "--x-grid", "3")
        assert code == 0
        assert "best ratio" in err
        assert out.splitlines()[0] == "x,alpha,beta,ratio"
        best = float(err.split()[2])
        assert best >= 0.999

    def test_tau_out_of_subdivisions_is_named(self, capsys):
        # tau's integral of f*w over [x, b] at the first x, 0.1
        code, out, err = run(capsys, "sharpness", "--weight", "arcsine", "--max-subdiv", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: integral of f*w on [0.1, 1]: no convergence after 2 ")
        assert "Traceback" not in err


# stdout followed by stderr of the six sharpness invocations of the benchmark's
# corpus-sweep round at seed 61, as the row-wise sweep wrote them
_PINNED_SHARPNESS = [
    (("--weight", "power:p=-0.55,q=0.58", "--x-grid", "29", "--alphas", "3.51:1.46,1.0:0.0,0.0:1.0",
      "--kind", "exact_inf"), "00a101eb2ea89e8ec181973006d81a1b96d684142d687694a577f0686da908e2"),
    (("--weight", "power:p=-0.55,q=0.58", "--x-grid", "29", "--alphas", "3.51:1.46,1.0:0.0,0.0:1.0",
      "--kind", "exact_one"), "1307e173fd255cd4968c4616805f00a32a853d92e7f27d8d7ec278f9be510615"),
    (("--weight", "power:p=-0.37,q=-0.36", "--x-grid", "29", "--alphas", "0.72:2.45,1.0:0.0,0.0:1.0",
      "--kind", "exact_inf"), "3bac884f325b1a54446745de63d3049fe0d92da7a9f4a35cd5783bc1c9b15ba6"),
    (("--weight", "power:p=-0.37,q=-0.36", "--x-grid", "29", "--alphas", "0.72:2.45,1.0:0.0,0.0:1.0",
      "--kind", "exact_one"), "bc4833733737cf7e7efd0e20a1377e75a8e7f8a68159a0a329f0ef28b9f33180"),
    (("--weight", "exponential:lam=1.35", "--x-grid", "49",
      "--alphas", "1.0:1.0,1.0:0.0,0.0:1.0,1.42:3.07,4.98:3.24", "--kind", "exact_inf"),
     "b03344407c28e92e39ff12bff261241e13aff53b5023de4b3245f9660def349e"),
    (("--weight", "truncnorm:sigma=0.27", "--x-grid", "49",
      "--alphas", "1.0:1.0,1.0:0.0,0.0:1.0,4.64:1.39,3.09:4.18", "--kind", "exact_one"),
     "c8bdce5f9e082b48a16de67e786c7ca40050cd0dcdce89a738e72699b008687a"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_SHARPNESS,
                         ids=[f"{argv[1]}-{argv[-1]}" for argv, _ in _PINNED_SHARPNESS])
def test_sharpness_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, "sharpness", *argv, "--tol", "1e-10")
    assert code == 0
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


# stdout followed by stderr of four seed-61 invocations of the benchmark that
# read tables: two expr-queries bounds at --tol 1e-12, where kernel_lq reads
# m from the weight's table and names its anchor as an end (gamma = 1.5 at
# --p 3, 4/3 at --p 4), and two cdf-grid reports on weights with algebraic
# ends, whose tables take the end rule
_PINNED_TABLES = [
    (("bounds", "--a", "-0.08", "--b", "0.941", "--x", "0.1807", "--alpha", "0.0", "--beta", "1.0",
      "--weight-expr", "0.428 + sin(2.876*t)^2 + 1.11*(0.905 - 0.596*t)",
      "--function", "0.736*(sqrt(t + 0.404) + 0.62*(sin(1.084*t - 0.688)))",
      "--p", "3.0", "--tol", "1e-12"),
     "7fb686a4a975c030e985ac3ca26e07887810169503e2f383a3038a498a2838c5"),
    (("bounds", "--a", "0.116", "--b", "1.038", "--x", "0.5114", "--alpha", "2.82", "--beta", "2.41",
      "--weight-expr", "(t + 0.414)^1.29 + 1.45*(0.445 + 0.52*t)",
      "--function", "0.108*((t + 0.112)^3 + 0.89*(exp(1.392*t)))", "--p", "4.0", "--tol", "1e-12"),
     "be4d0f5d069aa81fdd019a070ed8c2ef8b0dc876a8231c08f2dbe9b22c037a2f"),
    (("cdf", "--density", "(t + 0.471)^1.48 + 1.38*(1.049 - 0.727*t)", "--weight", "arcsine",
      "--alpha", "3.04", "--beta", "2.49", "--p", "3.0", "--tol", "1e-12", "--x-grid", "4"),
     "8836655eae16253292af7df14e36ce52bbd9f2fb40b626a467f328f604ca5d08"),
    (("cdf", "--density", "exp(-1.132*t) + 0.179 + 0.99*(0.463 + sin(2.339*t)^2)",
      "--weight", "power:p=-0.4", "--alpha", "3.03", "--beta", "3.04", "--p", "2.0",
      "--tol", "1e-12", "--x-grid", "4"),
     "f8d3657fd61f75935535ce0927693487c1c8649819a4024a46c2f72f8c32cabb"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_TABLES,
                         ids=["bounds-p3", "bounds-p4", "cdf-arcsine", "cdf-power"])
def test_table_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


class TestCdfCommand:
    def test_single_row(self, capsys):
        code, out, _ = run(
            capsys, "cdf", "--density", "2*t", "--weight", "uniform", "--x", "0.5"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "x,F_w,R_w,lhs_31,bound_inf,bound_p,bound_one,identity_residual"
        fields = row.split(",")
        assert fields[1] == "2.50000000e-01"
        assert fields[2] == "7.50000000e-01"

    def test_requires_density_and_x(self, capsys):
        code, out, err = run(capsys, "cdf")
        assert code == 2
        assert out == ""
        assert err == "usage error: the following arguments are required: --density\n"
        code, out, err = run(capsys, "cdf", "--density", "2*t")
        assert code == 2
        assert out == ""
        assert err == "usage error: one of the arguments --x --x-grid is required\n"

    def test_identity_check_runs_once_per_invocation(self, capsys, monkeypatch):
        calls = []
        check = obw.cdf.expectation_identity_check

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(obw.cdf, "expectation_identity_check", counted)
        code, out, _ = run(capsys, "cdf", "--density", "3*t^2", "--x-grid", "4")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        assert len(calls) == 1
        assert len({row.split(",")[-1] for row in rows}) == 1

    def test_one_density_mass_integral(self, capsys, monkeypatch):
        # the density "t" has weighted mass 1/2: raw f(0.7) = 0.7, scaled f(0.7) = 1.4;
        # the mass is the total of the model's one F_w table, so no integral of f w
        # over [0, 1] is taken apart from it
        masses = []
        integrate_against = obw.weights.Weight.integrate_against

        def counted(self, g, c, d, *args, **kwargs):
            if (c, d) == (0.0, 1.0) and min(abs(g(0.7) - 0.7), abs(g(0.7) - 1.4)) < 1e-9:
                masses.append(round(g(0.7), 9))
            return integrate_against(self, g, c, d, *args, **kwargs)

        monkeypatch.setattr(obw.weights.Weight, "integrate_against", counted)
        code, out, _ = run(capsys, "cdf", "--density", "t", "--x", "0.5")
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "2.50000000e-01"
        assert masses == []

    def test_x_and_x_grid_are_exclusive(self, capsys):
        code, out, err = run(capsys, "cdf", "--density", "2*t", "--x", "0.5", "--x-grid", "3")
        assert code == 2
        assert out == ""
        assert err == "usage error: argument --x-grid: not allowed with argument --x\n"

    def test_negative_density(self, capsys):
        code, out, err = run(capsys, "cdf", "--density", "t-0.3", "--x-grid", "3")
        assert code == 1
        assert out == ""
        assert "--density is negative at t=" in err
        assert "Traceback" not in err

    def test_density_without_mass(self, capsys):
        code, out, err = run(capsys, "cdf", "--density", "0*t", "--x-grid", "3")
        assert code == 1
        assert out == ""
        assert "error: density 0*t has weighted mass 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("weight, stretch, panels",
                             [("arcsine", "[0, 1]", 4), ("uniform", "[0, 1]", 2)])
    def test_table_out_of_subdivisions_is_named(self, capsys, weight, stretch, panels):
        # one table of f*w on [a, b], the arcsine table's end leaves included:
        # the message names the flag and its stretch of t. With both ends
        # algebraic the table starts from the four quarters of [a, b], past a
        # budget of 2
        code, out, err = run(
            capsys, "cdf", "--density", "1 + sin(40*t)^2", "--weight", weight,
            "--x", "0.5", "--max-subdiv", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(
            f"error: --density table on {stretch}: no convergence after {panels} ")
        assert "Traceback" not in err

    def test_bound_one_follows_the_variation(self, capsys):
        code, out, _ = run(capsys, "cdf", "--density", _SLIVER_JUMP, "--x", "0.5")
        assert code == 0
        assert out.splitlines()[1].split(",")[6] == "3.91991959e-01"

    def test_failed_identity_check_is_compute_error(self, capsys):
        code, out, err = run(
            capsys, "cdf", "--a", "0.14", "--b", "1.449",
            "--density", "0.516 + 1.245*t + 1.04*(abs(t - 0.857) + 0.488)",
            "--weight", "uniform", "--x-grid", "7", "--tol", "1e-10",
        )
        assert code == 1
        assert out == ""
        assert "error: CDF identity check failed at x=" in err


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x": 0.25, "function": "t^2", "weight": "uniform"}))
        code, out, _ = run(
            capsys, "--config", str(cfg), "bounds", "--x", "0.5"
        )
        assert code == 0
        # --x wins over the file value; tau at 0.5 is -1/12
        assert "tau = -8.33333333e-02" in out

    def test_file_supplies_missing_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x": 0.5, "function": "t^2"}))
        code, out, _ = run(capsys, "--config", str(cfg), "bounds")
        assert code == 0
        assert "tau = -8.33333333e-02" in out

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "--config", str(cfg), "bounds", "--x", "0.5")
        assert code == 2

    def test_file_sets_any_flag(self, capsys, tmp_path):
        argv = ("bounds", "--x", "0.3", "--function", "sine", "--weight", "decreasing")
        _, default_out, _ = run(capsys, *argv)
        _, flag_out, _ = run(capsys, *argv, "--p", "3", "--alpha", "2")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": 3, "alpha": 2}))
        code, out, _ = run(capsys, "--config", str(cfg), *argv)
        assert code == 0
        assert out == flag_out != default_out

    def test_file_sets_audit_grid(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x_grid": 3, "weights": "uniform"}))
        code, out, _ = run(capsys, "--config", str(cfg), "audit")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3 * 2
        code, out, _ = run(capsys, "--config", str(cfg), "audit", "--x-grid", "1")
        assert len(out.strip().splitlines()) == 1 + 1 * 2

    def test_tol_precedence(self, capsys, tmp_path, monkeypatch):
        # flag > config > OBW_TOL; a negative tolerance fails with exit 1
        argv = ("bounds", "--x", "0.5", "--function", "t^2")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": 1e-9}))
        monkeypatch.setenv("OBW_TOL", "-1")
        assert run(capsys, *argv)[0] == 1
        assert run(capsys, "--config", str(cfg), *argv)[0] == 0
        assert run(capsys, "--config", str(cfg), *argv, "--tol", "-1")[0] == 1

    @pytest.mark.parametrize("values, message", [
        ({"x_grid": 3}, "config key 'x_grid' is not a flag of obw bounds"),  # an audit flag
        ({"nope": 1}, "config key 'nope' is not a flag of obw bounds"),
        ({"norm": "two"}, "argument --norm: invalid choice: 'two'"),
    ], ids=["values0", "values1", "values2"])
    def test_key_naming_no_flag_is_usage_error(self, capsys, tmp_path, values, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(
            capsys, "--config", str(cfg), "bounds", "--x", "0.5", "--function", "t^2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: {message}")

    def test_values_read_as_typed_flags(self, capsys, tmp_path):
        # a value with a leading "-" or an "=" is one flag value
        argv = ("bounds", "--a", "-1", "--b", "2", "--x", "0.3", "--function", "sine",
                "--weight", "power:p=1,q=0.5")
        _, flag_out, _ = run(capsys, *argv)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": -1, "b": 2, "weight": "power:p=1,q=0.5"}))
        code, out, _ = run(capsys, "--config", str(cfg), "bounds", *argv[5:9])
        assert code == 0
        assert out == flag_out

    def test_file_value_conflicts_with_typed_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x": 0.5}))
        code, out, err = run(capsys, "--config", str(cfg), "cdf", "--density", "2*t",
                             "--x-grid", "3")
        assert code == 2
        assert out == ""
        assert err == "usage error: argument --x-grid: not allowed with argument --x\n"

    @pytest.mark.parametrize("argv", [
        ("bounds", "--config", "run.json", "--x", "0.5", "--function", "t^2"),
        ("bounds", "--config", "run.json"),
    ])
    def test_config_after_the_command_is_usage_error(self, capsys, tmp_path, argv):
        (tmp_path / "run.json").write_text(json.dumps({"x": 0.5, "function": "t^2"}))
        code, out, err = run(capsys, *[str(tmp_path / a) if a.endswith(".json") else a
                                       for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")


class TestDeterminism:
    def test_audit_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a1.csv", tmp_path / "a2.csv"]
        for path in paths:
            code = main(
                ["audit", "--weights", "uniform,decreasing", "--x-grid", "5",
                 "--output", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cdf_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "c1.csv", tmp_path / "c2.csv"]
        for path in paths:
            code = main(
                ["cdf", "--density", "3*t^2", "--weight", "uniform",
                 "--x-grid", "4", "--output", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_command_prints_usage(self, capsys):
        code, out, err = run(capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ("sharpness", "--x-grid", "0"),
    ("audit", "--x-grid", "0"),
    ("audit", "--x-grid", "-3"),
    ("cdf", "--density", "1", "--x-grid", "0"),
], ids=["sharpness", "audit-0", "audit-neg", "cdf"])
def test_x_grid_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"usage error: argument --x-grid: must be at least 1, got {argv[-1]}\n"


@pytest.mark.parametrize("argv, flag", [
    (("bounds", "--x", "half", "--function", "t^2"), "argument --x: invalid float value"),
    (("bounds", "--x", "0.5", "--function", "t^2", "--norm", "two"), "argument --norm"),
    (("bounds", "--x", "0.5", "--function", "t^2", "--x"), "argument --x: expected one"),
    (("audit", "--x-grid", "x"), "argument --x-grid: invalid int value: 'x'"),
    (("audit", "--x-grid", "1.5"), "argument --x-grid: invalid int value: '1.5'"),
    (("sharpness", "--kind", "best"), "argument --kind: invalid choice"),
    (("verify", "--tol"), "argument --tol"),
    (("plot",), "argument command: invalid choice: 'plot'"),
    (("bounds", "--x", "0.5", "--function", "t^2", "--we", "uniform"), "ambiguous option: --we"),
], ids=["float", "choice", "no-value", "int", "int-1.5", "kind", "tol", "command", "ambiguous"])
def test_flag_error_is_one_usage_line(capsys, argv, flag):
    # returned, not raised as SystemExit
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and flag in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [("-h",), ("bounds", "-h")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: obw")


@pytest.mark.parametrize("argv", [
    ("bounds", "--x", "1.5", "--beta", "0", "--function", "t^2"),
    ("bounds", "--x", "1.5", "--function", "t^2"),
    ("cdf", "--x", "1.5", "--density", "2*t"),
    ("bounds", "--x", "nan", "--function", "t^2"),
    ("bounds", "--x", "-inf", "--function", "t^2"),
    ("bounds", "--x", "-1e-3", "--function", "t^2"),
], ids=["bounds-beta-0", "bounds", "cdf", "nan", "minus-inf", "minus-exponent"])
def test_x_outside_interval_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --x must lie in [a, b] = [0, 1], got ")


@pytest.mark.parametrize("source", [".", "t+.", "..5"])
def test_number_without_digit_is_usage_error(capsys, source):
    code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", source)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: a number needs a digit")


@pytest.mark.parametrize("source, offset", [("²*t", 0), ("1²", 1), ("t + ①", 4)])
def test_digit_float_does_not_read_is_usage_error(capsys, source, offset):
    # str.isdigit holds for \u00b2 and \u2460, but they are no decimal digits
    code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", source)
    assert (code, out) == (2, "")
    assert err == f"usage error: unexpected character {source[offset]!r} (at offset {offset})\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_tolerance_that_cannot_be_met_is_a_compute_error(capsys, monkeypatch, tol):
    argv = ("bounds", "--x", "0.3", "--function", "sin(40*t)", "--weight", "arcsine")
    expected = (1, "", "error: abs_tol must be finite and positive\n")
    assert run(capsys, *argv, "--tol", tol) == expected
    monkeypatch.setenv("OBW_TOL", tol)
    assert run(capsys, *argv) == expected


def test_smallest_tolerance_reaches_the_table(capsys):
    # the table of an expression weight is built to half the tolerance
    code, out, err = run(capsys, "bounds", "--x", "0.5", "--function", "t",
                         "--weight-expr", "1", "--tol", "5e-324")
    assert (code, out) == (1, "")
    assert err.startswith("error: --weight-expr table on [0, 1]: no convergence after ")


@pytest.mark.parametrize("weight", [("--weight", "uniform"), ("--weight", "arcsine"),
                                    ("--weight-expr", "1+t")], ids=lambda w: w[1])
def test_exact_p_next_to_p_one_is_a_bound(capsys, weight):
    code, out, err = run(capsys, "bounds", "--x", "0.3", "--function", "t^2",
                         "--p", "1.000001", *weight)
    assert (code, err) == (0, "")
    values = dict(line.split(" = ") for line in out.splitlines())
    assert float(values["exact_p"]) >= abs(float(values["tau"])) > 0


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.1e-2", "-0.001"])
def test_negative_number_is_a_value(capsys, value):
    # argparse's own pattern reads only plain decimals as negative numbers
    argv = ("bounds", "--x", "0.5", "--function", "t^2")
    code, out, err = run(capsys, *argv, "--a", value)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--a=-0.001") == (0, out, "")


@pytest.mark.parametrize("flag, value, code", [
    ("--function", "-t^2", 0),
    ("--function", "-sin(t)", 0),
    ("--alphas", "-1:2", 1),
], ids=["function", "function-call", "alphas"])
def test_leading_minus_is_a_value(capsys, flag, value, code):
    # argparse reads a token that starts with "-" and is not a plain decimal as a flag
    command = ("audit", "--x-grid", "1") if flag == "--alphas" else ("bounds", "--x", "0.5")
    expected = run(capsys, *command, f"{flag}={value}")
    assert expected[0] == code
    assert run(capsys, *command, flag, value) == expected


@pytest.mark.parametrize("argv", [
    ("bounds", "--x", "0.5", "--function", "-t^2", "--bogus", "1"),
    ("audit", "--alphas", "-1:2", "-x", "--x-grid", "1"),
], ids=["unknown-flag", "stray-value"])
def test_leading_minus_keeps_flag_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: unrecognized arguments: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("audit", "--alphas", "0:1e308", "--weights", "decreasing", "--x-grid", "3"),
    ("cdf", "--density", "exp(t)", "--x-grid", "2", "--beta", "1e308", "--weight", "decreasing"),
], ids=["audit", "cdf"])
def test_overflow_is_one_error_line(capsys, argv):
    # a numpy scalar's overflow warned ahead of the error line
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, beta", [
    (("audit", "--alphas", "0:1e200", "--weights", "decreasing", "--x-grid", "3"), "1e+200"),
    (("cdf", "--density", "exp(t)", "--x-grid", "2", "--beta", "1e308", "--weight", "decreasing"),
     "1e+308"),
    (("bounds", "--x", "0.5", "--function", "t^2", "--alpha", "0", "--beta", "1e200"), "1e+200"),
], ids=["audit", "cdf", "bounds"])
def test_overflow_names_its_quantity(capsys, argv, beta):
    # beta ** q of the printed L_p bracket overflows, q = 2 at the default p
    assert run(capsys, *argv) == (1, "", (
        "error: arithmetic failure (OverflowError: printed L_p bracket: beta**q overflows"
        f" at beta={beta}, q=2 (34, 'Numerical result out of range'))\n"
    ))
