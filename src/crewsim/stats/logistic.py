"""Binary logistic regression by Newton / iteratively reweighted least squares.

The caller supplies the design matrix including its intercept column. The fit
is an unpenalized maximum-likelihood fit, so on a saturated design it must
reproduce closed-form log-odds exactly (up to the 1e-8 score tolerance).
Standard errors come from the inverse observed information at the optimum and
confidence intervals are Wald intervals, beta +/- 1.96 * SE.

Every number comes from a fixed operation order over Python floats (``math.fsum``
dot products, Gauss-Jordan inversion), not from a BLAS kernel chosen per CPU at
run time, so a fit prints the same digits on every CPU.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul, sub

_SEPARATION_BOUND = 100.0  # |log-odds| this large means probabilities are 1 to ~4e-44


def sigmoid(z: float) -> float:
    """Numerically stable logistic function."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    expz = math.exp(z)
    return expz / (1.0 + expz)


def _dot(a, b) -> float:
    return math.fsum(map(mul, a, b))


def _rows(X) -> list[list[float]]:
    """``X`` (an array or a sequence of rows) as equal-length rows of floats."""
    try:
        rows = [[float(v) for v in row] for row in X]
    except TypeError:
        rows = []
    if not rows or len({len(row) for row in rows}) != 1:
        raise ValueError("X must be a 2-d design matrix")
    return rows


def log_likelihood(X, y, beta) -> float:
    """Bernoulli log-likelihood at ``beta`` (used by gradient checks too)."""
    p = [min(max(sigmoid(_dot(row, beta)), 1e-300), 1.0 - 1e-16) for row in _rows(X)]
    return math.fsum(yi * math.log(pi) + (1.0 - yi) * math.log1p(-pi) for yi, pi in zip(map(float, y), p))


@dataclass
class RegressionFit:
    names: list[str]
    beta: list[float]
    se: list[float]
    ci_low: list[float]
    ci_high: list[float]
    converged: bool
    iterations: int
    log_likelihood: float
    warning: str | None = None

    def coefficient(self, name: str) -> float:
        return self.beta[self.names.index(name)]

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "beta": list(self.beta),
            "se": list(self.se),
            "ci_low": list(self.ci_low),
            "ci_high": list(self.ci_high),
            "converged": self.converged,
            "iterations": self.iterations,
            "log_likelihood": self.log_likelihood,
            "warning": self.warning,
        }


def collinear_columns(X, names: list[str]) -> list[str]:
    """Columns that add no rank when appended left to right.

    A column is orthogonalized against those kept before it in two Gram-Schmidt
    passes, and adds no rank when what remains is within ``max(n, k) * eps`` of
    the largest column norm so far (the usual singular-value rank tolerance).
    """
    rows = _rows(X)
    tol = max(len(rows), len(rows[0])) * sys.float_info.epsilon
    basis: list[list[float]] = []
    bad = []
    scale = 0.0
    for name, column in zip(names, zip(*rows)):
        scale = max(scale, math.sqrt(_dot(column, column)))
        for _ in range(2):
            for q in basis:
                c = _dot(q, column)
                column = [v - c * qi for v, qi in zip(column, q)]
        norm = math.sqrt(_dot(column, column))
        if norm <= tol * scale:
            bad.append(name)
        else:
            basis.append([v / norm for v in column])
    return bad


def _covariance(rows, cols, p, names) -> list[list[float]]:
    """Inverse observed information at fitted probabilities ``p``: Gauss-Jordan
    elimination with partial pivoting on the information matrix beside the identity."""
    k = len(cols)
    w = [max(pi * (1.0 - pi), 1e-12) for pi in p]
    aug = [[0.0] * k + [float(i == j) for j in range(k)] for i in range(k)]
    for a in range(k):
        weighted = list(map(mul, w, cols[a]))
        for b in range(a, k):
            aug[a][b] = aug[b][a] = _dot(weighted, cols[b])
    for c in range(k):
        pivot = max(range(c, k), key=lambda r: abs(aug[r][c]))
        top, aug[pivot] = aug[pivot], aug[c]
        pivot_value = top[c]
        if pivot_value == 0.0:
            collinear = collinear_columns(rows, names)
            raise ValueError(f"information matrix is singular; collinear columns: {collinear}")
        aug[c] = top = [v / pivot_value for v in top]
        for r in range(k):
            if r != c:
                f = aug[r][c]
                aug[r] = [v - f * t for v, t in zip(aug[r], top)]
    return [row[k:] for row in aug]


def logistic_fit(
    X,
    y,
    names: list[str] | None = None,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> RegressionFit:
    """Maximum-likelihood logistic regression.

    Converged means the score (log-likelihood gradient) has max-norm below
    ``tol``. Perfect separation is reported via ``converged=False`` plus a
    warning once coefficients run away; a rank-deficient design raises a
    ValueError naming the collinear columns.
    """
    rows = _rows(X)
    y = [float(v) for v in y]
    n, k = len(rows), len(rows[0])
    if len(y) != n:
        raise ValueError(f"X has {n} rows but y has {len(y)} entries")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} observations for {k} columns, got {n}")
    if any(v not in (0.0, 1.0) for v in y):
        raise ValueError("y must be binary (0/1)")
    if min(y) == max(y):
        raise ValueError("y is constant; the model is not identifiable")
    if names is None:
        names = [f"x{j}" for j in range(k)]
    if len(names) != k:
        raise ValueError(f"got {len(names)} names for {k} columns")
    redundant = collinear_columns(rows, names)
    if redundant:
        raise ValueError(f"design matrix is singular; collinear columns: {redundant}")

    cols = [list(col) for col in zip(*rows)]
    beta = [0.0] * k
    converged = False
    warning = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = [sigmoid(_dot(row, beta)) for row in rows]
        residual = list(map(sub, y, p))
        score = [_dot(col, residual) for col in cols]
        if all(abs(s) < tol for s in score):
            converged = True
            break
        covariance = _covariance(rows, cols, p, names)
        beta = [b + _dot(row, score) for b, row in zip(beta, covariance)]
        if any(abs(b) > _SEPARATION_BOUND for b in beta):
            warning = "coefficients diverging; data are likely perfectly separated"
            break

    if not converged and warning is None:
        warning = f"did not converge within {max_iter} iterations"

    covariance = _covariance(rows, cols, [sigmoid(_dot(row, beta)) for row in rows], names)
    se = [math.sqrt(max(covariance[j][j], 0.0)) for j in range(k)]

    return RegressionFit(
        names=list(names),
        beta=beta,
        se=se,
        ci_low=[b - 1.96 * s for b, s in zip(beta, se)],
        ci_high=[b + 1.96 * s for b, s in zip(beta, se)],
        converged=converged,
        iterations=iterations,
        log_likelihood=log_likelihood(rows, y, beta),
        warning=warning,
    )
