"""The mpmath reference values the tests compare obw against, at 30 digits
(20 for `kernel_lq`, which is compared at 1e-12 and takes half the time).

`lq_by_levels` reads ||rho||_q through a change of variable that spreads the
peak of |rho|^q at x; `kernel_lq` splits each branch at points graded toward
x instead, and takes the built-in weights' moments in closed form (`moment`),
so the two share no code.
"""

from __future__ import annotations

import mpmath

__all__ = ["lq_by_levels", "moment", "weight_value", "kernel_lq", "branch_lq", "norm_p"]

DPS = 30
LQ_DPS = 20

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
