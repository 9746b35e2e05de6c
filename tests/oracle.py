"""The mpmath reference values the tests compare obw against, at 30 digits
(20 for `kernel_lq`, which is compared at 1e-12 and takes half the time, and
60 for `end_integral`, a sum of alternating terms far larger than itself).

`lq_by_levels` reads ||rho||_q through a change of variable that spreads the
peak of |rho|^q at x; `kernel_lq` splits each branch at points graded toward
x instead, and takes the built-in weights' moments in closed form (`moment`),
so the two share no code.
"""

from __future__ import annotations

import mpmath

__all__ = ["lq_by_levels", "moment", "weight_value", "kernel_lq", "branch_lq", "norm_p",
           "hat_tau", "end_integral", "power_exp"]

DPS = 30
LQ_DPS = 20
END_DPS = 60

# the exponents (p, q) of the power family's named members on [0, 1]
_POWER = {"increasing": (1, 0), "decreasing": (0, 1), "arcsine": (-0.5, -0.5)}


def lq_by_levels(x, q, mass, dt_dm):
    """mpmath oracle: ||rho||_q on [0, 1] for alpha = beta = 1, where
    |rho| = u / 2 on each branch, u = m(anchor, t) / m(anchor, x) in [0, 1].

    Each branch is int_0^1 u^q (dt / du) du, with u = exp(-s / q) so that
    the peak of u^q at x spreads over s in [0, inf): u^q du = -u^(q+1) ds / q.
    mass(t) is m(0, t) up to a constant, and dt_dm(m) is 1 / w at the t
    where mass(t) = m."""
    with mpmath.workdps(DPS):
        q, x = mpmath.mpf(q), mpmath.mpf(x)
        total, mx, m1 = 0, mass(x), mass(1)
        for lo, span in ((mass(0), mx - mass(0)), (m1, mx - m1)):  # m = lo + u span
            def branch(s):
                u = mpmath.exp(-s / q)
                return u ** (q + 1) * abs(span) * dt_dm(lo + u * span)
            total += mpmath.quad(branch, [0, 1, 10, mpmath.inf]) / q
        return float(total ** (1 / q) / 2)


def _power_exponents(name, params):
    if name == "power":
        return mpmath.mpf(params.get("p", 1)), mpmath.mpf(params.get("q", 0))
    return tuple(map(mpmath.mpf, _POWER[name]))


def weight_value(name, params, t):
    """w(t) of a built-in weight on [0, 1], in mpmath."""
    t = mpmath.mpf(t)
    if name == "uniform":
        return mpmath.mpf(1)
    if name == "exponential":
        return mpmath.exp(-mpmath.mpf(params.get("lam", 1)) * t)
    if name == "truncnorm":
        mu, sigma = mpmath.mpf(params.get("mu", 0.5)), mpmath.mpf(params.get("sigma", 0.25))
        return mpmath.exp(-((t - mu) / sigma) ** 2 / 2)
    p, q = _power_exponents(name, params)
    return t**p * (1 - t) ** q


def moment(name, params, c, d):
    """m(c, d) = int_c^d w of a built-in weight on [0, 1], in closed form."""
    c, d = mpmath.mpf(c), mpmath.mpf(d)
    if name == "uniform":
        return d - c
    if name == "exponential":
        lam = mpmath.mpf(params.get("lam", 1))
        return mpmath.exp(-lam * c) * -mpmath.expm1(-lam * (d - c)) / lam
    if name == "truncnorm":
        mu, sigma = mpmath.mpf(params.get("mu", 0.5)), mpmath.mpf(params.get("sigma", 0.25))
        s2 = sigma * mpmath.sqrt(2)
        return sigma * mpmath.sqrt(mpmath.pi / 2) * (mpmath.erf((d - mu) / s2)
                                                     - mpmath.erf((c - mu) / s2))
    p, q = _power_exponents(name, params)
    return mpmath.betainc(p + 1, q + 1, c, d)


def kernel_lq(name, params, x, alpha, beta, q):
    """||rho||_q of a built-in weight on [0, 1], and int |rho|^q.

    Each branch [c, d] is cut at x -+ (d - c) 2^-k, k >= 1, down to a
    distance far below the width M / (q w(x)) of the peak of |rho|^q at x,
    so tanh-sinh meets smooth pieces, and the anchor's power-law end lies
    at the end of a piece."""
    with mpmath.workdps(LQ_DPS):
        x, q = mpmath.mpf(x), mpmath.mpf(q)
        s = mpmath.mpf(alpha) + beta
        wx = weight_value(name, params, x)
        total = 0
        for share, anchor in ((alpha, 0), (beta, 1)):
            if share == 0:
                continue
            c, d = sorted((mpmath.mpf(anchor), x))
            mass = moment(name, params, c, d)
            width = mass / (q * wx) if wx > 0 else d - c
            toward = 1 if anchor > x else -1
            cuts, step = [], (d - c) / 2
            while step > width / 1000:
                cuts.append(x + toward * step)
                step /= 2
            coef = share / s / mass
            total += mpmath.quad(lambda t: abs(coef * moment(name, params, anchor, t)) ** q,
                                 sorted([c, *cuts, d]))
        return float(total ** (1 / q)), float(total)


def branch_lq(antiderivative, anchor, x, q):
    """J = int |m(anchor, t) / m(anchor, x)|^q between anchor and x, where
    m(c, d) = antiderivative(d) - antiderivative(c) and antiderivative is an
    mpmath function; cut at x -+ |x - anchor| 2^-k, k = 1..12, toward the
    peak of the integrand at x."""
    with mpmath.workdps(LQ_DPS):
        anchor, x, q = mpmath.mpf(anchor), mpmath.mpf(x), mpmath.mpf(q)
        zero = antiderivative(anchor)
        mass = antiderivative(x) - zero
        cuts = [x + (anchor - x) / 2**k for k in range(1, 13)]
        return float(mpmath.quad(lambda t: abs((antiderivative(t) - zero) / mass) ** q,
                                 sorted([anchor, *cuts, x])))


def norm_p(fprime, p, c=0, d=1):
    """(int_c^d |f'|^p)^(1/p), f' an mpmath function smooth on [c, d]."""
    with mpmath.workdps(DPS):
        return float(mpmath.quad(lambda t: abs(fprime(t)) ** p, [c, d]) ** (1 / mpmath.mpf(p)))


def hat_tau(name, params, x, alpha, beta, delta=1e-3):
    """tau of the sharpness hat (`bounds._hat`) of a built-in weight on
    [0, 1], at 30 digits: f is 0, then a ramp of width delta, then +1 (up,
    where alpha >= beta: the ramp ends at x) or -1 (the ramp starts at x).
    Each side's integral of f w is split at x - delta, x and x + delta, so
    every piece is smooth inside; x - delta and x + delta are float sums, as
    in obw."""
    up = alpha >= beta
    lo, hi, sign = (x - delta, x, 1) if up else (x, x + delta, -1)
    with mpmath.workdps(DPS):
        def fw(t):
            f = 0 if t <= lo else sign if t >= hi else sign * (t - lo) / delta
            return f * weight_value(name, params, t)

        cuts = [0, x - delta, x, x + delta, 1]
        s = mpmath.mpf(alpha) + beta
        tau = mpmath.mpf(sign if up else 0)  # f(x)
        for share, c, d in ((alpha, 0, x), (beta, x, 1)):
            if share > 0:
                points = [mpmath.mpf(t) for t in cuts if c <= t <= d]
                tau -= share / s / moment(name, params, c, d) * mpmath.quad(fw, points)
        return float(tau)


def end_integral(gamma, coef, r):
    """int_{-1}^{2r-1} (1 + u)^gamma sum_k coef_k P_k(u) du, exactly up to
    60 digits. Each P_k is written in powers of 1 + u,
    P_k(u) = sum_m (-1)^(k+m) C(k, m) C(k+m, m) ((1 + u) / 2)^m, and
    integrated term by term: int_{-1}^{2r-1} (1 + u)^(gamma+m) du is
    (2r)^(gamma+m+1) / (gamma+m+1)."""
    with mpmath.workdps(END_DPS):
        gamma, two_r = mpmath.mpf(gamma), 2 * mpmath.mpf(r)
        total = 0
        for k, c in enumerate(coef):
            for m in range(k + 1 if c else 0):
                power = gamma + m + 1
                total += (mpmath.mpf(c) * (-1) ** (k + m) * mpmath.binomial(k, m)
                          * mpmath.binomial(k + m, m) * two_r**power / (2**m * power))
        return float(total)


def power_exp(gamma, lam):
    """int_0^1 t^gamma e^(-lam t) dt = lam^-(gamma+1) int_0^lam s^gamma e^-s ds,
    mpmath's lower incomplete gamma function."""
    with mpmath.workdps(DPS):
        gamma, lam = mpmath.mpf(gamma), mpmath.mpf(lam)
        return float(mpmath.gammainc(gamma + 1, 0, lam) / lam ** (gamma + 1))
