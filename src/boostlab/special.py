"""Regularized incomplete gamma and beta functions, the p-value kernels for the
chi-squared and F tails. Series / continued-fraction switchover follows the
conventional boundaries (x vs s+1 for gamma, x vs (a+1)/(a+b+2) for beta);
absolute error is well below 1e-10 on the tested ranges.
"""

from __future__ import annotations

import math

_EPS = 1e-15
_MAX_ITER = 500


def _gamma_p_series(s: float, x: float) -> float:
    """Lower regularized P(s, x) by power series (x < s + 1)."""
    if x == 0.0:
        return 0.0
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_q_contfrac(s: float, x: float) -> float:
    """Upper regularized Q(s, x) by Lentz continued fraction (x >= s + 1)."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    frac = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return frac * math.exp(-x + s * math.log(x) - math.lgamma(s))


def gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s)."""
    if s <= 0.0:
        raise ValueError(f"s must be > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_contfrac(s, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    frac = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        frac *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return frac


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"a and b must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def f_tail(f_stat: float, df_num: float, df_den: float) -> float:
    """Upper tail P(F(df_num, df_den) > f_stat)."""
    if f_stat < 0.0:
        return 1.0
    if df_num <= 0 or df_den <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = df_den / (df_den + df_num * f_stat)
    return incomplete_beta(df_den / 2.0, df_num / 2.0, x)


def chi2_tail(stat: float, dof: int) -> float:
    """Upper tail P(chi2(dof) > stat)."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if stat < 0.0:
        return 1.0
    return gamma_q(dof / 2.0, stat / 2.0)
