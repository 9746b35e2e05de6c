"""Output checks for the obw benchmark, made apart from obw.

Every invocation's stdout is parsed and compared with a reference computed
here with mpmath from the op's description (see gen.py), or with a property
the method must have. No check compares with a stored copy of obw output.
References are computed once per op and kept on it, so a run pays for them
in its first (untimed) round only.

Tolerances follow from what obw promises: numbers are printed with nine
significant digits (relative rounding 5e-9), and each integral obw computes
meets the absolute tolerance `tol` of its invocation. That tolerance is an
error estimate, not a guarantee, so a check allows QUAD_SLACK times it per
integral and propagates it through the formula of the printed quantity.

Each `check_*` returns (records, problems): the number of result records
the output holds and a list of what was wrong with it (empty when correct).
"""

from __future__ import annotations

import csv
import io
import re

import mpmath as mp

from gen import Op

__all__ = ["check", "QUAD_SLACK"]

QUAD_SLACK = 10.0
PRINT_RTOL = 2e-8  # two roundings to nine significant digits, with margin
DPS = 25

AUDIT_HEADER = ["weight_name", "x", "alpha", "beta", "paper_inf_factor",
                "exact_inf_factor", "ratio", "flagged"]
SHARPNESS_HEADER = ["x", "alpha", "beta", "ratio"]
CDF_HEADER = ["x", "F_w", "R_w", "lhs_31", "bound_inf", "bound_p", "bound_one",
              "identity_residual"]
BOUNDS_KEYS = ["tau", "paper_inf", "paper_p", "paper_one", "exact_inf", "exact_p",
               "exact_one", "norm_inf", "norm_p", "norm_one"]
VERIFY_LINE = re.compile(
    r"^(identity|soundness|reductions|equivalent-forms): (\d+) failures \((\d+) checked\)$"
)


def check(op: Op, out: str, err: str) -> tuple[int, list[str]]:
    """Check the output of one invocation that exited 0; returns (records, problems)."""
    return _CHECKERS[op.kind](op, out, err)


def _close(label: str, got: float, want, budget: float, problems: list[str]) -> None:
    """|got - want| <= PRINT_RTOL |want| + budget."""
    want = float(want)
    if not abs(got - want) <= PRINT_RTOL * abs(want) + budget:
        problems.append(f"{label}: got {got!r}, reference {want!r} (budget {budget:.2e})")


def _csv(out: str, header: list[str], problems: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != header:
        problems.append(f"header {rows[:1]!r} != {header!r}")
        return []
    return rows[1:]


def _grid(n: int, a: float = 0.0, b: float = 1.0) -> list[float]:
    return [a + (b - a) * k / (n + 1) for k in range(1, n + 1)]


def _floats(row: list[str], start: int, problems: list[str]) -> list[float] | None:
    try:
        return [float(v) for v in row[start:]]
    except ValueError:
        problems.append(f"non-numeric row {row!r}")
        return None


# --- audit ---------------------------------------------------------------------

def _audit_ref(op: Op) -> list[tuple]:
    """Per row: x, alpha, beta, paper factor, exact factor, exact budget."""
    spec = op.spec
    e = QUAD_SLACK * spec["tol"]
    rows = []
    with mp.workdps(DPS):
        for w in spec["weights"]:
            for x in _grid(spec["n"], w.a, w.b):
                m_l, m_r = w.mass(w.a, x), w.mass(x, w.b)
                fl, fr = w.fub_left(x), w.fub_right(x)
                wx = w.w(x)
                for al, be in spec["pairs"]:
                    s = al + be
                    # Fubini form of the kernel L1 norm, and the printed factor
                    exact = (al * fl / m_l + be * fr / m_r) / s
                    paper = wx * (al * (x - w.a) ** 2 / m_l + be * (w.b - x) ** 2 / m_r) / (2 * s)
                    budget = e * float((al / m_l + be / m_r) / s)
                    rows.append((x, al, be, float(paper), float(exact), budget,
                                 w.kind == "uniform"))
    return rows


def _check_audit(op: Op, out: str, err: str) -> tuple[int, list[str]]:
    problems: list[str] = []
    rows = _csv(out, AUDIT_HEADER, problems)
    if op.ref is None:
        op.ref = _audit_ref(op)
    if len(rows) != len(op.ref):
        return len(rows), problems + [f"{len(rows)} rows, expected {len(op.ref)}"]
    for row, (x, al, be, paper, exact, budget, uniform) in zip(rows, op.ref):
        vals = _floats(row, 1, problems)
        if vals is None:
            continue
        gx, gal, gbe, gpaper, gexact, gratio, gflag = vals
        where = f"audit {row[0]} x={x:.6g} ({al:g},{be:g})"
        _close(f"{where} x", gx, x, 0.0, problems)
        _close(f"{where} alpha", gal, al, 0.0, problems)
        _close(f"{where} beta", gbe, be, 0.0, problems)
        _close(f"{where} paper_inf_factor", gpaper, paper, 0.0, problems)
        _close(f"{where} exact_inf_factor", gexact, exact, budget, problems)
        _close(f"{where} ratio", gratio, gpaper / gexact, 0.0, problems)
        if uniform:
            _close(f"{where} uniform ratio", gratio, 1.0, budget / exact, problems)
        ratio_ref = paper / exact
        if (ratio_ref < 1 - 1e-6 and gflag != 1) or (ratio_ref > 1 + 1e-6 and gflag != 0):
            problems.append(f"{where} flagged={gflag:g} but ratio {ratio_ref:.9g}")
    return len(rows), problems


# --- sharpness -----------------------------------------------------------------

def _sharpness_ref(op: Op) -> list[tuple]:
    """Per row: x, alpha, beta, allowed ratio error (from tau and kernel)."""
    spec = op.spec
    w = spec["weight"]
    e = QUAD_SLACK * spec["tol"]
    rows = []
    with mp.workdps(DPS):
        for x in _grid(spec["n"], w.a, w.b):
            m_l, m_r = w.mass(w.a, x), w.mass(x, w.b)
            fl, fr = w.fub_left(x), w.fub_right(x)
            for al, be in spec["pairs"]:
                s = al + be
                if spec["kind"] == "exact_inf":
                    bound = (al * fl / m_l + be * fr / m_r) / s
                else:
                    bound = mp.mpf(max(al, be)) / s
                # |mean of f| <= 2 + |a| + |b| for the witness functions
                mag = 3 + abs(w.a) + abs(w.b)
                budget = e * mag * float((al / m_l + be / m_r) / s) / float(bound)
                rows.append((x, al, be, budget))
    return rows


def _check_sharpness(op: Op, out: str, err: str) -> tuple[int, list[str]]:
    problems: list[str] = []
    rows = _csv(out, SHARPNESS_HEADER, problems)
    if op.ref is None:
        op.ref = _sharpness_ref(op)
    if len(rows) != len(op.ref):
        return len(rows), problems + [f"{len(rows)} rows, expected {len(op.ref)}"]
    kind = op.spec["kind"]
    ratios = []
    for row, (x, al, be, budget) in zip(rows, op.ref):
        vals = _floats(row, 0, problems)
        if vals is None:
            continue
        gx, gal, gbe, ratio = vals
        ratios.append(ratio)
        where = f"sharpness {kind} {op.spec['weight'].spec} x={x:.6g} ({al:g},{be:g})"
        _close(f"{where} x", gx, x, 0.0, problems)
        _close(f"{where} alpha", gal, al, 0.0, problems)
        _close(f"{where} beta", gbe, be, 0.0, problems)
        if kind == "exact_inf":
            # the sign-kernel witness attains the sup-norm bound
            _close(f"{where} ratio", ratio, 1.0, budget, problems)
        elif not 0.0 < ratio <= 1.0 + PRINT_RTOL + budget:
            problems.append(f"{where} ratio {ratio!r} outside (0, 1]")
    best = re.search(r"best ratio (\S+) at", err)
    if best is None:
        problems.append(f"no best-ratio line on stderr: {err!r}")
    elif ratios:
        _close("sharpness best ratio", float(best.group(1)), max(ratios), 0.0, problems)
    return len(rows), problems


# --- verify --------------------------------------------------------------------

def _check_verify(op: Op, out: str, err: str) -> tuple[int, list[str]]:
    problems: list[str] = []
    checked = 0
    seen = set()
    for line in out.splitlines():
        m = VERIFY_LINE.match(line)
        if m is None:
            problems.append(f"verify: unexpected line {line!r}")
            continue
        suite, failures, count = m.group(1), int(m.group(2)), int(m.group(3))
        seen.add(suite)
        checked += count
        if failures or not count:
            problems.append(f"verify {suite}: {failures} failures of {count}")
    if len(seen) != 4:
        problems.append(f"verify: suites {sorted(seen)} reported, expected 4")
    return checked, problems


# --- bounds --------------------------------------------------------------------

def _golden_max(g, lo, hi, iters: int = 90):
    inv_phi = (mp.sqrt(5) - 1) / 2
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    gc, gd = g(c), g(d)
    best = max(gc, gd)
    for _ in range(iters):
        if gc > gd:
            hi, d, gd = d, c, gc
            c = hi - inv_phi * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + inv_phi * (hi - lo)
            gd = g(d)
        best = max(best, gc, gd)
    return best


def _bisect_root(g, lo, hi, iters: int = 80):
    glo = g(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        gm = g(mid)
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return (lo + hi) / 2


def _derivative_norms(df, a, b, p, samples: int = 800):
    """sup |f'|, ||f'||_p, ||f'||_1 on [a, b], with |f'| split at its zeros."""
    ts = [a + (b - a) * mp.mpf(k) / (samples - 1) for k in range(samples)]
    vals = [df(t) for t in ts]
    absvals = [abs(v) for v in vals]
    top = sorted(range(samples), key=lambda i: -absvals[i])[:5]
    sup = max(absvals)
    for i in top:
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, samples - 1)]
        sup = max(sup, _golden_max(lambda t: abs(df(t)), lo, hi))
    zeros = [
        _bisect_root(df, ts[i], ts[i + 1])
        for i in range(samples - 1)
        if vals[i] != 0 and (vals[i] < 0) != (vals[i + 1] < 0)
    ]
    pts = [a, *zeros, b]
    int_p = mp.quad(lambda t: abs(df(t)) ** p, pts)
    int_1 = mp.quad(lambda t: abs(df(t)), pts)
    return sup, int_p, int_1


def _bounds_ref(op: Op) -> dict:
    sp = op.spec
    al, be = sp["alpha"], sp["beta"]
    s = al + be
    w, f = sp["weight"], sp["fn"]
    e = QUAD_SLACK * sp["tol"]
    with mp.workdps(DPS):
        a, b, x = mp.mpf(sp["a"]), mp.mpf(sp["b"]), mp.mpf(sp["x"])
        p = mp.mpf(sp["p"])
        q = p / (p - 1)
        left, right = [a, x], [x, b]
        ref = {}
        smalls = []  # magnitudes of the integrals obw computes to tolerance
        combo = mp.mpf(0)
        k1 = mp.mpf(0)
        kq = mp.mpf(0)
        tau_scale = mp.mpf(0)
        paper_inf = paper_p = mp.mpf(0)
        wx = w.f(x)
        for coef, pts, lo, hi, sign, width in (
            (al, left, a, x, 1, x - a), (be, right, x, b, -1, b - x)
        ):
            if coef == 0:
                continue
            mass = w.F(hi) - w.F(lo)
            mean = mp.quad(lambda t: f.f(t) * w.f(t), pts) / mass
            combo += coef * mean
            # Fubini form: int |moment from the near end| = int |x - t| w(t)
            fub = mp.quad(lambda t: sign * (x - t) * w.f(t), pts)
            k1 += coef * fub / mass
            ck = coef / (s * mass)
            end = w.F(a) if sign > 0 else w.F(b)
            kq += mp.quad(lambda t: abs(ck * (w.F(t) - end)) ** q, pts)
            tau_scale += coef * (1 + abs(mean)) / mass
            paper_inf += coef * width**2 / mass
            paper_p += coef**q * width**2 / mass
            smalls += [mass, fub]
        ref["tau"] = f.f(x) - combo / s
        k1 /= s
        ksup = mp.mpf(max(al, be)) / s
        smalls.append(kq)
        kq = kq ** (1 / q)
        sup, int_p, int_1 = _derivative_norms(f.df, a, b, p)
        smalls += [int_p, int_1]
        ref["norm_inf"] = sup
        ref["norm_p"] = int_p ** (1 / p)
        ref["norm_one"] = int_1
        ref["paper_inf"] = wx * paper_inf / (2 * s) * sup
        ref["paper_p"] = (wx * paper_p) ** (1 / q) / ((q + 1) ** (1 / q) * s) * ref["norm_p"]
        ref["paper_one"] = (1 + mp.mpf(abs(al - be)) / s) / 2 * int_1
        ref["exact_inf"] = k1 * sup
        ref["exact_p"] = kq * ref["norm_p"]
        ref["exact_one"] = ksup * int_1
        rel = e * (1 + float(b - a)) / float(min(abs(v) for v in smalls))
        ref = {k: float(v) for k, v in ref.items()}
        ref["_tau_budget"] = e * float(tau_scale) / s
        ref["_rel_budget"] = rel
    return ref


def _check_bounds(op: Op, out: str, err: str) -> tuple[int, list[str]]:
    problems: list[str] = []
    got = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        try:
            got[key] = float(value)
        except ValueError:
            problems.append(f"bounds: bad line {line!r}")
    missing = [k for k in BOUNDS_KEYS if k not in got]
    if missing:
        return 1, problems + [f"bounds: missing {missing}"]
    if op.ref is None:
        op.ref = _bounds_ref(op)
    ref = op.ref
    where = f"bounds {' '.join(op.argv[1:])}"
    _close(f"{where} tau", got["tau"], ref["tau"], ref["_tau_budget"], problems)
    for key in BOUNDS_KEYS[1:]:
        _close(f"{where} {key}", got[key], ref[key], ref["_rel_budget"] * abs(ref[key]), problems)
    dev = abs(got["tau"])
    for branch in ("inf", "p", "one"):
        bound = got[f"exact_{branch}"]
        # exact bounds are sound: |tau| never exceeds them
        if dev > bound * (1 + PRINT_RTOL) + ref["_tau_budget"]:
            problems.append(f"{where} |tau|={dev!r} > exact_{branch}={bound!r}")
        for family in ("paper", "exact"):
            b = got[f"{family}_{branch}"]
            key = f"ratio_{family}_{branch}"
            if key in got:
                _close(f"{where} {key}", got[key], dev / b if b > 0 else 0.0, 0.0, problems)
            else:
                problems.append(f"{where} missing {key}")
    return 1, problems


# --- cdf -----------------------------------------------------------------------

def _cdf_ref(op: Op) -> list[tuple]:
    """Per row: x, F_w, lhs_31, F budget, lhs budget, residual budget."""
    sp = op.spec
    w, dens = sp["weight"], sp["density"]
    a, b = mp.mpf(sp["a"]), mp.mpf(sp["b"])
    al, be = sp["alpha"], sp["beta"]
    s = al + be
    e = QUAD_SLACK * sp["tol"]
    rows = []
    with mp.workdps(DPS):
        g = lambda t: dens.f(t) * w.w(t)  # noqa: E731
        xs = [mp.mpf(x) for x in sp["xs"]]
        # cumulative integral over consecutive pieces [a, x1], [x1, x2], ...
        cuts = [a] + xs + [b]
        pieces = [mp.quad(g, [lo, hi]) for lo, hi in zip(cuts, cuts[1:])]
        total = sum(pieces)
        run = mp.mpf(0)
        res_budget = (QUAD_SLACK * max(sp["tol"], 1e-9) * (1 + float(b - a))
                      + e * (1 + float(b - a) + abs(float(a)) + abs(float(b))) * (1 + 1 / float(total)))
        for x, piece in zip(xs, pieces):
            run += piece
            F = run / total
            m_l, m_r = w.mass(a, x), w.mass(x, b)
            fx = dens.f(x) / total
            u = al * m_r - be * m_l
            v = m_l * (s * m_r * fx - be)
            lhs = abs(u * F - v)
            f_budget = e * (1 + 1 / float(total))
            lhs_budget = (abs(float(u)) * f_budget + float(m_l * s * m_r * abs(fx)) * e / float(total)
                          + 1e-14 * float(abs(u) + abs(v)))
            rows.append((float(x), float(F), float(lhs), f_budget, lhs_budget, res_budget))
    return rows


def _check_cdf(op: Op, out: str, err: str) -> tuple[int, list[str]]:
    problems: list[str] = []
    rows = _csv(out, CDF_HEADER, problems)
    if op.ref is None:
        op.ref = _cdf_ref(op)
    if len(rows) != len(op.ref):
        return len(rows), problems + [f"{len(rows)} rows, expected {len(op.ref)}"]
    prev = None
    where = f"cdf {op.spec['density'].text} / {op.spec['weight'].spec}"
    for row, (x, F, lhs, f_budget, lhs_budget, res_budget) in zip(rows, op.ref):
        vals = _floats(row, 0, problems)
        if vals is None:
            continue
        gx, gF, gR, glhs, b_inf, b_p, b_one, resid = vals
        at = f"{where} x={x:.6g}"
        _close(f"{at} x", gx, x, 0.0, problems)
        _close(f"{at} F_w", gF, F, f_budget, problems)
        _close(f"{at} R_w = 1 - F_w", gR, 1.0 - gF, 1e-8, problems)
        _close(f"{at} lhs_31", glhs, lhs, lhs_budget, problems)
        if not -f_budget <= gF <= 1 + f_budget:
            problems.append(f"{at} F_w={gF!r} outside [0, 1]")
        if prev is not None and gF < prev - 2 * f_budget - 1e-8:
            problems.append(f"{at} F_w={gF!r} decreases from {prev!r}")
        prev = gF
        if abs(resid) > res_budget:
            problems.append(f"{at} identity residual {resid!r} > {res_budget:.2e}")
        if min(b_inf, b_p, b_one) < 0:
            problems.append(f"{at} negative bound {(b_inf, b_p, b_one)!r}")
    return len(rows), problems


_CHECKERS = {
    "audit": _check_audit,
    "sharpness": _check_sharpness,
    "verify": _check_verify,
    "bounds": _check_bounds,
    "cdf": _check_cdf,
}
