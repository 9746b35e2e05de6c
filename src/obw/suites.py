"""Corpus-wide verification sweeps behind the `verify` command and the
acceptance tests."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .bounds import bounds_cerone, bounds_exact, bounds_paper
from .corpus import (
    COEFF_PAIRS,
    corpus_functions,
    corpus_weights,
    corpus_x_values,
)
from .functionals import tau, tau_combination, tau_decomposed
from .kernel import TauParams, identity_residual
from .norms import NormTriple, norm_triple
from .quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig, derivative_callable

__all__ = ["SuiteReport", "run_verify_suites", "P_GRID"]

P_GRID = (1.5, 2.0, 3.0)

IDENTITY_TOL = 1e-8
SOUNDNESS_RTOL = 1e-9
REDUCTION_TOL = 1e-12
EQUIVALENCE_TOL = 1e-10


@dataclass
class SuiteReport:
    identity_checked: int = 0
    identity_failures: list[str] = field(default_factory=list)
    soundness_checked: int = 0
    soundness_failures: list[str] = field(default_factory=list)
    reduction_checked: int = 0
    reduction_failures: list[str] = field(default_factory=list)
    equivalence_checked: int = 0
    equivalence_failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (
            self.identity_failures
            or self.soundness_failures
            or self.reduction_failures
            or self.equivalence_failures
        )

    def summary_lines(self) -> list[str]:
        return [
            f"identity: {len(self.identity_failures)} failures "
            f"({self.identity_checked} checked)",
            f"soundness: {len(self.soundness_failures)} failures "
            f"({self.soundness_checked} checked)",
            f"reductions: {len(self.reduction_failures)} failures "
            f"({self.reduction_checked} checked)",
            f"equivalent-forms: {len(self.equivalence_failures)} failures "
            f"({self.equivalence_checked} checked)",
        ]


def run_verify_suites(cfg: QuadConfig = DEFAULT_CONFIG) -> SuiteReport:
    """Identity, soundness, reduction, and equivalent-forms sweeps."""
    report = SuiteReport()
    functions = corpus_functions()
    weights = corpus_weights()
    xs = corpus_x_values()

    @functools.cache
    def norm_set(f: Fn1D, a: float, b: float) -> dict[float, NormTriple]:
        # the norms of f' depend on f and [a, b] only, not on the weight
        fprime = derivative_callable(f, a, b)
        return {p: norm_triple(fprime, p, a, b, cfg) for p in P_GRID}

    for w in weights:
        for f in functions:
            for x in xs:
                for alpha, beta in COEFF_PAIRS:
                    params = TauParams(a=w.a, b=w.b, x=x, alpha=alpha, beta=beta)
                    label = f"{f.name}/{w.name}/x={x:g}/({alpha:g},{beta:g})"

                    res = identity_residual(f, params, w, cfg)
                    report.identity_checked += 1
                    if abs(res) > IDENTITY_TOL:
                        report.identity_failures.append(
                            f"{label}: residual {res:.3e}"
                        )

                    t0 = tau(f, w, params, cfg)
                    dev = abs(t0)
                    for p in P_GRID:
                        exact = bounds_exact(params, w, norm_set(f, w.a, w.b)[p], p, cfg)
                        report.soundness_checked += 1
                        for branch, bval in zip(
                            ("inf", "p", "one"), exact.as_tuple()
                        ):
                            if dev > bval * (1.0 + SOUNDNESS_RTOL) + 1e-12:
                                report.soundness_failures.append(
                                    f"{label}: |tau|={dev:.6e} > "
                                    f"exact_{branch}={bval:.6e} (p={p})"
                                )

                    t1 = tau_combination(f, w, params, cfg)
                    t2 = tau_decomposed(f, w, params, cfg)
                    report.equivalence_checked += 1
                    if abs(t0 - t1) > EQUIVALENCE_TOL or abs(t0 - t2) > EQUIVALENCE_TOL:
                        report.equivalence_failures.append(
                            f"{label}: tau={t0:.3e} combination={t1:.3e} "
                            f"decomposed={t2:.3e}"
                        )

    # Uniform-weight reduction to the unweighted two-coefficient bounds.
    uniform = weights[0]
    reduction_x = [0.1 * k for k in range(1, 10)]
    reduction_coeffs = ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (5.0, 2.0))
    norms = norm_set(functions[1], uniform.a, uniform.b)[2.0]
    for x in reduction_x:
        for alpha, beta in reduction_coeffs:
            params = TauParams(a=uniform.a, b=uniform.b, x=x, alpha=alpha, beta=beta)
            paper = bounds_paper(params, uniform, norms, 2.0)
            legacy = bounds_cerone(x, alpha, beta, uniform.a, uniform.b, norms, 2.0)
            report.reduction_checked += 1
            for pv, lv in zip(paper.as_tuple(), legacy.as_tuple()):
                if abs(pv - lv) > REDUCTION_TOL * max(1.0, abs(lv)):
                    report.reduction_failures.append(
                        f"x={x:g}/({alpha:g},{beta:g}): paper {pv:.15e} "
                        f"vs legacy {lv:.15e}"
                    )
    return report
