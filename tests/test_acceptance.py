"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion-N <name>: PASS|FAIL`` line so the
suite output doubles as a checklist.
"""

import math

import pytest

from obw.bounds import (
    audit_paper_vs_exact,
    bounds_dragomir,
    corollary_bounds,
    sharpness_search,
    sign_kernel_fn,
)
from obw.cdf import DensityModel, cdf_bound_general, cdf_bound_left, expectation_identity_check
from obw.cli import main
from obw.corpus import corpus_functions
from obw.functionals import tau
from obw.kernel import TauParams
from obw.norms import norm_triple
from obw.quadrature import Fn1D
from obw.suites import run_verify_suites
from obw.weights import builtin_weight

from test_cdf import density_corpus


@pytest.fixture(scope="session")
def suites():
    return run_verify_suites()


@pytest.fixture
def report(capsys):
    def _report(name, ok):
        with capsys.disabled():
            print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
        assert ok

    return _report


def test_criterion_1_identity(suites, report):
    ok = suites.identity.checked >= 180 and not suites.identity.failures
    report("1 identity-residual", ok)


def test_criterion_2_soundness(suites, report):
    ok = suites.soundness.checked >= 540 and not suites.soundness.failures
    report("2 bound-soundness", ok)


def test_criterion_3_uniform_reduction(suites, report):
    ok = suites.reduction.checked == 36 and not suites.reduction.failures
    report("3 uniform-weight-reduction", ok)


def test_criterion_4_midpoint_agreement(report):
    uniform = builtin_weight("uniform", 0, 1)
    ok = True
    for f in corpus_functions():
        norms = norm_triple(f, 2.0, 0, 1)
        _, triple = corollary_bounds("midpoint_equal", f, uniform, 2.0, 0, 1)
        classic = bounds_dragomir(0.5, 0, 1, norms, 2.0)
        if abs(triple.inf - classic.inf) > 1e-12 * max(1.0, classic.inf):
            ok = False
    report("4 midpoint-agreement", ok)


def test_criterion_5_sharpness(report):
    ok = True
    xs = (0.25, 0.5, 0.75)
    for wname in ("uniform", "exponential"):
        w = builtin_weight(wname, 0, 1)
        _, rows = sharpness_search(w, xs, ((1.0, 1.0), (2.0, 1.0)), kind="exact_inf")
        if not all(0.999 <= r.ratio <= 1.001 for r in rows):
            ok = False
    # equality case of the left-mass bound: density 2t, uniform weight
    model = DensityModel(
        f=Fn1D(fn=lambda t: 2 * t, derivative=lambda t: 2.0),
        weight=builtin_weight("uniform", 0, 1),
    )
    for x in xs:
        lhs, triple = cdf_bound_left(model, x)
        if abs(lhs - triple.inf) > 1e-9:
            ok = False
    report("5 sharpness", ok)


def test_criterion_6_cdf_algebra(report):
    ok = True
    for model in density_corpus():
        for x in (0.25, 0.5, 0.75):
            for alpha, beta in ((1.0, 1.0), (2.0, 1.0)):
                params = TauParams(a=0, b=1, x=x, alpha=alpha, beta=beta)
                lhs, _ = cdf_bound_general(model, params)
                m_l = model.weight.moment(0, x)
                m_r = model.weight.moment(x, 1)
                bridge = (
                    params.weight_sum
                    * m_l
                    * m_r
                    * abs(tau(model.density, model.weight, params))
                )
                if abs(lhs - bridge) > 1e-10:
                    ok = False
    report("6 cdf-algebra", ok)


def test_criterion_7_expectation_identity(report):
    ok = all(
        abs(expectation_identity_check(model)) <= 1e-8 for model in density_corpus()
    )
    report("7 expectation-identity", ok)


def test_criterion_8_audit_reproducibility(report):
    w = builtin_weight("decreasing", 0, 1)
    (row,) = audit_paper_vs_exact([w], [0.9], [(1.0, 1.0)])
    params = TauParams(a=0, b=1, x=0.9, alpha=1.0, beta=1.0)
    witness = abs(tau(sign_kernel_fn(params.x), w, params))
    ok = (
        math.isclose(row.paper_inf_factor, 0.090909, abs_tol=1e-5)
        and math.isclose(row.exact_inf_factor, 0.303030, abs_tol=1e-5)
        and row.flagged
        and witness > row.paper_inf_factor  # sign-kernel f has unit sup norm
    )
    report("8 audit-reproducibility", ok)


def test_criterion_9_equivalent_forms(suites, report):
    ok = suites.equivalence.checked >= 180 and not suites.equivalence.failures
    report("9 equivalent-forms", ok)


def test_criterion_10_determinism(tmp_path, capsys, report):
    verify_runs = []
    for _ in range(2):
        code = main(["verify"])
        assert code == 0
        verify_runs.append(capsys.readouterr().out)
    audit_paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for path in audit_paths:
        code = main(
            ["audit", "--weights", "uniform,decreasing,increasing",
             "--x-grid", "9", "--output", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    ok = (
        verify_runs[0] == verify_runs[1]
        and audit_paths[0].read_bytes() == audit_paths[1].read_bytes()
    )
    report("10 determinism", ok)
