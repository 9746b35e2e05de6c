"""Corpus-wide verification sweeps behind the `verify` command and the
acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .bounds import _sweep, bounds_cerone, bounds_exact, bounds_paper
from .corpus import COEFF_PAIRS, corpus_functions, corpus_weights, corpus_x_values
from .kernel import TauParams, _lq_norm, _lq_side, _moment_integral
from .norms import Triple, _norm_triples, conjugate
from .quadrature import DEFAULT_CONFIG, QuadConfig, derivative_callable
from .weights import Weight

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
    function, the L_p norm of f' per (function, p), and each weighted
    integral once per (weight, x, side), which the pairs only combine
    (`_configurations`).
    """
    report = SuiteReport()
    a, b = 0.0, 1.0  # every corpus weight and x lies on [a, b]
    functions = []  # (f, f', {p: norms of f'}); the sup and L1 norms do not depend on p
    for f in corpus_functions():
        functions.append((f, derivative_callable(f), _norm_triples(f, P_GRID, a, b, cfg)))

    weights, xs = corpus_weights(a, b), corpus_x_values(a, b)
    for w in weights:
        for params, kernels, forms in _configurations(w, xs, COEFF_PAIRS, functions, cfg):
            for (f, _, norms), (t0, res, t1, t2) in zip(functions, forms):
                label = f"{f.name}/{w.name}/x={params.x:g}/({params.alpha:g},{params.beta:g})"
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


def _configurations(w: Weight, xs: Sequence[float], pairs: Sequence[tuple[float, float]],
                    functions: list, cfg: QuadConfig) -> Iterator[tuple]:
    """Per (x, pair), (params, {p: `kernel_norms`}, per (f, f', _) of
    `functions`: tau, kernel_integral(f') - tau, tau_combination and
    tau_decomposed). A column core on `bounds._sweep`, each pair weighting
    both sides: int f w over [a, b] is taken once per function first, then
    per (x, side) the mass, `moment_l1`, each q's J (to the largest share of
    the pairs), and per function int f w and int m f'. The pairs combine
    them as the calls on their own do, which never run: each value is
    bit-equal to its call, ||rho||_q within abs_tol."""
    a, b = w.a, w.b
    qs = [conjugate(p) for p in P_GRID]
    full = [w.integrate_against(f, a, b, cfg) for f, _, _ in functions]

    def read(x: float, left: bool, right: bool) -> list[tuple]:
        sides = []  # per side: mass, first moment, J per q, int f w and int m f' per function
        for k, anchor in enumerate((a, b)):
            c, d = (x, anchor) if anchor > x else (anchor, x)
            mass, r = w.mass(c, d), max(pair[k] / sum(pair) for pair in pairs)
            sides.append((mass, w.moment_l1(anchor, x, cfg),
                          [_lq_side(w, anchor, x, mass, q, r, cfg) for q in qs],
                          [w.integrate_against(f, c, d, cfg) for f, _, _ in functions],
                          [_moment_integral(w, anchor, c, d, g, cfg) for _, g, _ in functions]))
        (m_left, *_, left_fw, _), (m_right, *_) = sides
        row = []
        for alpha, beta in pairs:
            params, s = TauParams(a, b, x, alpha, beta), alpha + beta
            branches = [(share / s / side[0], side) for share, side in zip((alpha, beta), sides)]
            l1, sup = sum(coef * side[1] for coef, side in branches), max(alpha, beta) / s
            lq = [_lq_norm(params, (alpha, beta), [side[2][j] for side in sides], q)
                  for j, q in enumerate(qs)]
            kernels = {p: Triple(l1, norm, sup) for p, norm in zip(P_GRID, lq)}
            frac = beta / s * (w.total / m_right)  # tau_decomposed's
            forms = []
            for i, (f, _, _) in enumerate(functions):
                fx = f(x)
                t0 = fx - sum(coef * side[3][i] for coef, side in branches)
                combination = sum(share * (fx - side[3][i] / side[0])
                                  for share, side in zip((alpha, beta), sides)) / s
                decomposed = fx - ((1.0 - frac) * (left_fw[i] / m_left)
                                   + frac * (full[i] / w.total))
                residual = sum(coef * side[4][i] for coef, side in branches) - t0
                forms.append((t0, residual, combination, decomposed))
            row.append((params, kernels, forms))
        return row

    for row in _sweep(w, xs, pairs, read):
        yield from row
