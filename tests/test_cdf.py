import math

import pytest

from obw.cdf import (
    DensityModel,
    cdf_bound_general,
    cdf_bound_left,
    cdf_report,
    cdf_value,
    expectation_identity_check,
    normalized_density,
    reliability,
)
from obw.cli import main
from obw.functionals import tau
from obw.kernel import TauParams
from obw.quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig
from obw.weights import Weight, builtin_weight


def uniform_model():
    w = builtin_weight("uniform", 0, 1)
    return DensityModel(density=Fn1D(fn=lambda t: 1.0, derivative=lambda t: 0.0), weight=w)


def linear_model():
    w = builtin_weight("uniform", 0, 1)
    return DensityModel(
        density=Fn1D(fn=lambda t: 2 * t, derivative=lambda t: 2.0), weight=w
    )


def quadratic_model():
    w = builtin_weight("uniform", 0, 1)
    return DensityModel(
        density=Fn1D(fn=lambda t: 3 * t * t, derivative=lambda t: 6 * t), weight=w
    )


def density_corpus():
    models = [uniform_model(), linear_model(), quadratic_model()]
    for wname in ("uniform", "increasing"):
        w = builtin_weight(wname, 0, 1)
        bump = Fn1D(
            fn=lambda t: math.exp(-8 * (t - 0.5) ** 2),
            derivative=lambda t: -16 * (t - 0.5) * math.exp(-8 * (t - 0.5) ** 2),
        )
        models.append(normalized_density(bump, w))
    return models


class TestModel:
    def test_rejects_unnormalized(self):
        w = builtin_weight("uniform", 0, 1)
        with pytest.raises(ValueError, match="mass"):
            DensityModel(density=Fn1D(fn=lambda t: 2.0), weight=w)

    def test_mass_integrated_at_the_callers_config(self, monkeypatch):
        seen = []
        original = Weight.cumulative

        def recording(self, g, c, d, cfg=DEFAULT_CONFIG):
            seen.append(cfg)
            return original(self, g, c, d, cfg)

        monkeypatch.setattr(Weight, "cumulative", recording)
        cfg = QuadConfig(abs_tol=1e-12)
        w = builtin_weight("uniform", 0, 1)
        DensityModel(density=Fn1D(fn=lambda t: 2 * t), weight=w, cfg=cfg)
        assert seen == [cfg]

    def test_mass_tolerance_follows_abs_tol(self):
        w = builtin_weight("uniform", 0, 1)
        f = Fn1D(fn=lambda t: 1.0 + 5e-7)
        DensityModel(density=f, weight=w, cfg=QuadConfig(abs_tol=1e-6))
        with pytest.raises(ValueError, match="mass"):
            DensityModel(density=f, weight=w)

    def test_one_table_serves_every_function(self, monkeypatch):
        tables = []
        original = Weight.cumulative

        def recording(self, *args, **kwargs):
            tables.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Weight, "cumulative", recording)
        bump = Fn1D(fn=lambda t: 1.0 + t * t, derivative=lambda t: 2 * t)
        model = normalized_density(bump, builtin_weight("increasing", 0, 1))
        params = TauParams(a=0.0, b=1.0, x=0.4, alpha=1.0, beta=2.0)
        cdf_report(model, [0.2, 0.6], 1.0, 2.0)
        cdf_value(model, 0.3)
        cdf_bound_general(model, params)
        cdf_bound_left(model, 0.7)
        expectation_identity_check(model)
        assert len(tables) == 1

    def test_normalized_density_helper(self):
        w = builtin_weight("increasing", 0, 1)
        model = normalized_density(Fn1D(fn=lambda t: 1.0, derivative=lambda t: 0.0), w)
        assert w.integrate_against(model.density, 0, 1) == pytest.approx(1.0, abs=1e-10)


class TestCdfValue:
    def test_uniform(self):
        assert cdf_value(uniform_model(), 0.3) == pytest.approx(0.3, abs=1e-10)

    def test_linear(self):
        assert cdf_value(linear_model(), 0.5) == pytest.approx(0.25, abs=1e-10)

    def test_left_endpoint(self):
        assert cdf_value(linear_model(), 0.0) == 0.0

    def test_total_mass(self):
        for model in density_corpus():
            assert cdf_value(model, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_monotone(self):
        model = quadratic_model()
        values = [cdf_value(model, k / 20) for k in range(21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            cdf_value(uniform_model(), 1.5)


class TestReliability:
    def test_left_endpoint(self):
        assert reliability(uniform_model(), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self):
        assert reliability(uniform_model(), 0.3) == pytest.approx(0.7, abs=1e-10)

    def test_linear(self):
        assert reliability(linear_model(), 0.5) == pytest.approx(0.75, abs=1e-10)

    def test_complement(self):
        model = quadratic_model()
        for x in (0.2, 0.5, 0.9):
            assert reliability(model, x) + cdf_value(model, x) == pytest.approx(
                1.0, abs=1e-14
            )


class TestGeneralBound:
    def test_uniform_density_cancels(self):
        model = uniform_model()
        for x in (0.25, 0.5, 0.75):
            for coeffs in ((1.0, 1.0), (2.0, 1.0)):
                params = TauParams(a=0, b=1, x=x, alpha=coeffs[0], beta=coeffs[1])
                lhs, _ = cdf_bound_general(model, params)
                assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_linear_density_symmetric_point(self):
        params = TauParams(a=0, b=1, x=0.5, alpha=1.0, beta=1.0)
        lhs, _ = cdf_bound_general(linear_model(), params)
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_left_mass_only_value(self):
        # alpha m(x,b) F - m(a,x) alpha m(x,b) f(x) at x = 0.5 for 3u^2
        params = TauParams(a=0, b=1, x=0.5, alpha=1.0, beta=0.0)
        lhs, triple = cdf_bound_general(quadratic_model(), params)
        assert lhs == pytest.approx(0.125, abs=1e-10)
        assert lhs <= triple.inf + 1e-9

    def test_algebraic_bridge(self):
        for model in density_corpus():
            for x in (0.25, 0.5, 0.75):
                for coeffs in ((1.0, 1.0), (2.0, 1.0), (1.0, 0.0)):
                    params = TauParams(a=0, b=1, x=x, alpha=coeffs[0], beta=coeffs[1])
                    lhs, _ = cdf_bound_general(model, params)
                    m_l = model.weight.moment(0, x)
                    m_r = model.weight.moment(x, 1)
                    bridge = (
                        params.weight_sum
                        * m_l
                        * m_r
                        * abs(tau(model.density, model.weight, params))
                    )
                    assert lhs == pytest.approx(bridge, abs=1e-10)


class TestSymmetricBound:
    """Equal coefficients alpha = beta = 1/2."""

    def test_uniform_density(self):
        params = TauParams(a=0, b=1, x=0.3, alpha=0.5, beta=0.5)
        lhs, _ = cdf_bound_general(uniform_model(), params)
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_bridge_identity(self):
        model = linear_model()
        params = TauParams(a=0, b=1, x=0.25, alpha=0.5, beta=0.5)
        lhs, _ = cdf_bound_general(model, params)
        m_l = model.weight.moment(0, 0.25)
        m_r = model.weight.moment(0.25, 1)
        assert lhs == pytest.approx(
            m_l * m_r * abs(tau(model.density, model.weight, params)), abs=1e-10
        )


class TestLeftBound:
    def test_equality_case(self):
        # constant derivative attains the sup-norm branch exactly
        model = linear_model()
        for x in (0.25, 0.5, 0.75):
            lhs, triple = cdf_bound_left(model, x)
            assert lhs == pytest.approx(x * x, abs=1e-10)
            assert triple.inf == pytest.approx(lhs, abs=1e-9)

    def test_uniform_density(self):
        lhs, _ = cdf_bound_left(uniform_model(), 0.4)
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_toward_left_endpoint(self):
        lhs, _ = cdf_bound_left(quadratic_model(), 1e-6)
        assert lhs <= 1e-11


class TestExpectationIdentity:
    def test_uniform(self):
        assert abs(expectation_identity_check(uniform_model())) <= 1e-8

    def test_linear(self):
        assert abs(expectation_identity_check(linear_model())) <= 1e-8

    def test_quadratic(self):
        assert abs(expectation_identity_check(quadratic_model())) <= 1e-8

    def test_corpus(self):
        for model in density_corpus():
            assert abs(expectation_identity_check(model)) <= 1e-8


class TestCliPowerWeight:
    def test_smooth_density_on_a_weight_with_fractional_exponents(self, capsys):
        # (b - t)^0.2 has an unbounded slope at b: the power weight's endpoint
        # substitution covers it, so the 1e-10 identity check passes
        argv = ["cdf", "--density", "1 + 0.5*sin(3*t) + t^2", "--weight", "power:p=-0.3,q=0.2",
                "--x", "0.9", "--alpha", "1", "--beta", "2"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert abs(float(row.split(",")[header.split(",").index("identity_residual")])) <= 1e-10
