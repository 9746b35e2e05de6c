"""Corpus-wide verification sweeps behind the `verify` command and the
acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import _Cached, bounds_cerone, bounds_exact, bounds_paper, kernel_norms
from .corpus import (
    COEFF_PAIRS,
    corpus_functions,
    corpus_weights,
    corpus_x_values,
)
from .functionals import tau, tau_combination, tau_decomposed
from .kernel import TauParams, kernel_integral
from .norms import Triple, _norm_lp, _scan, _variation
from .quadrature import DEFAULT_CONFIG, QuadConfig, derivative_callable

__all__ = ["Suite", "SuiteReport", "run_verify_suites", "P_GRID"]

P_GRID = (1.5, 2.0, 3.0)

IDENTITY_TOL = 1e-8
SOUNDNESS_RTOL = 1e-9
REDUCTION_TOL = 1e-12
EQUIVALENCE_TOL = 1e-10


@dataclass
class Suite:
    """One sweep's count of checks and its failure messages."""

    label: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass
class SuiteReport:
    identity: Suite = field(default_factory=lambda: Suite("identity"))
    soundness: Suite = field(default_factory=lambda: Suite("soundness"))
    reduction: Suite = field(default_factory=lambda: Suite("reductions"))
    equivalence: Suite = field(default_factory=lambda: Suite("equivalent-forms"))

    def suites(self) -> tuple[Suite, ...]:
        return (self.identity, self.soundness, self.reduction, self.equivalence)

    @property
    def passed(self) -> bool:
        return not any(s.failures for s in self.suites())

    def lines(self) -> list[str]:
        """One summary line per suite, then one FAIL line per failure."""
        return [
            f"{s.label}: {len(s.failures)} failures ({s.checked} checked)" for s in self.suites()
        ] + [f"FAIL {failure}" for s in self.suites() for failure in s.failures]


def run_verify_suites(cfg: QuadConfig = DEFAULT_CONFIG) -> SuiteReport:
    """Identity, soundness, reduction, and equivalent-forms sweeps.

    Each quantity is computed once, at the level it depends on: f', one
    scan of it, its sup norm and f's variation (the L1 norm of f') per
    function, the L_p norm of f' per (function, p), the kernel norms per
    (weight, x, pair, p), and tau per configuration. tau's three forms
    read one view of each weight (`bounds._Cached`), so each weighted
    integral and mass is taken once.
    """
    report = SuiteReport()
    a, b = 0.0, 1.0  # every corpus weight and x lies on [a, b]
    weights = corpus_weights(a, b)
    xs = corpus_x_values(a, b)
    functions = []  # (f, f', {p: norms of f'}); the sup and L1 norms do not depend on p
    for f in corpus_functions():
        fprime = derivative_callable(f)
        sup, roots = _scan(fprime, a, b)  # once per f: its samples serve every p
        one = _variation(f, a, b, roots)
        norms = {p: Triple(sup, _norm_lp(fprime, p, a, b, cfg, roots), one) for p in P_GRID}
        functions.append((f, fprime, norms))

    for w in weights:
        cached = _Cached(w)
        for x in xs:
            for alpha, beta in COEFF_PAIRS:
                params = TauParams(a=a, b=b, x=x, alpha=alpha, beta=beta)
                kernels = {p: kernel_norms(params, w, p, cfg) for p in P_GRID}
                for f, fprime, norms in functions:
                    label = f"{f.name}/{w.name}/x={x:g}/({alpha:g},{beta:g})"
                    t0 = tau(f, cached, params, cfg)

                    res = kernel_integral(fprime, params, w, cfg) - t0
                    report.identity.checked += 1
                    if abs(res) > IDENTITY_TOL:
                        report.identity.failures.append(f"{label}: residual {res:.3e}")

                    dev = abs(t0)
                    for p in P_GRID:
                        exact = bounds_exact(kernels[p], norms[p])
                        report.soundness.checked += 1
                        for branch, bval in zip(("inf", "p", "one"), exact):
                            if dev > bval * (1.0 + SOUNDNESS_RTOL) + 1e-12:
                                report.soundness.failures.append(
                                    f"{label}: |tau|={dev:.6e} > "
                                    f"exact_{branch}={bval:.6e} (p={p})"
                                )

                    t1 = tau_combination(f, cached, params, cfg)
                    t2 = tau_decomposed(f, cached, params, cfg)
                    report.equivalence.checked += 1
                    if abs(t0 - t1) > EQUIVALENCE_TOL or abs(t0 - t2) > EQUIVALENCE_TOL:
                        report.equivalence.failures.append(
                            f"{label}: tau={t0:.3e} combination={t1:.3e} "
                            f"decomposed={t2:.3e}"
                        )

    # Uniform-weight reduction to the unweighted two-coefficient bounds.
    uniform = weights[0]
    reduction_x = [0.1 * k for k in range(1, 10)]
    reduction_coeffs = ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (5.0, 2.0))
    norms = functions[1][2][2.0]  # the quadratic's, at p = 2
    for x in reduction_x:
        for alpha, beta in reduction_coeffs:
            params = TauParams(a=uniform.a, b=uniform.b, x=x, alpha=alpha, beta=beta)
            paper = bounds_paper(params, uniform, norms, 2.0)
            legacy = bounds_cerone(x, alpha, beta, uniform.a, uniform.b, norms, 2.0)
            report.reduction.checked += 1
            for pv, lv in zip(paper, legacy):
                if abs(pv - lv) > REDUCTION_TOL * max(1.0, abs(lv)):
                    report.reduction.failures.append(
                        f"x={x:g}/({alpha:g},{beta:g}): paper {pv:.15e} "
                        f"vs legacy {lv:.15e}"
                    )
    return report
