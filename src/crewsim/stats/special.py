"""Special functions backing the p-value computations.

Everything is built on two classical workhorses, each iterated to machine
precision (relative tolerance 1e-15, so absolute error is far below the
1e-8 the test oracles demand):

- the upper regularized incomplete gamma function Q(a, x), as 1 - P(a, x)
  by the power series for x < a + 1 and by a modified Lentz continued
  fraction for x >= a + 1;
- the regularized incomplete beta function I_x(a, b) via the Lentz continued
  fraction, applied on whichever side of the symmetry point converges fast.

The chi-squared survival function is Q(df/2, x/2); the standard normal
survival function is erfc(x/sqrt(2))/2 with erfc(x) = Q(1/2, x^2); Student's
t tail comes from the incomplete beta.
"""

from __future__ import annotations

import math

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 1000


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) by series: converges fast for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction: for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), the upper regularized tail."""
    if a <= 0:
        raise ValueError(f"shape a must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail probability of the chi-squared distribution."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x < 0:
        return 1.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def normal_sf(x: float) -> float:
    """P(Z > x) for the standard normal."""
    if x < 0:
        return 1.0 - normal_sf(-x)
    if x == 0:
        return 0.5
    return 0.5 * regularized_gamma_q(0.5, 0.5 * x * x)


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even coefficient, then the odd one
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if t == 0:
        return 0.5
    tail = 0.5 * regularized_beta(df / 2.0, 0.5, df / (df + t * t))
    return tail if t > 0 else 1.0 - tail
