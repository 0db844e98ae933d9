"""Statistics operations: frozen examples plus property tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crewsim.stats import (
    Ecdf,
    chi_squared,
    log_likelihood,
    logistic_fit,
    logit_prop,
    odds_ratio,
    spearman,
    two_prop_z,
)
from crewsim.stats.logistic import collinear_columns
from crewsim.stats.rank import rank_data

# ---- ecdf ----


def test_ecdf_counting_example():
    e = Ecdf([1, 2, 2, 4])
    assert e(2) == 0.75
    assert e(0.5) == 0.0
    assert e(4) == 1.0
    assert e(100) == 1.0


def test_ecdf_requires_samples():
    with pytest.raises(ValueError):
        Ecdf([])


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=60,
    )
)
def test_ecdf_is_a_cdf(samples):
    e = Ecdf(samples)
    lo, hi = min(samples), max(samples)
    assert e(lo - 1.0) == 0.0
    assert e(hi) == 1.0
    grid = sorted(samples)
    values = [e(x) for x in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_ecdf_steps_end_at_one():
    steps = Ecdf([3, 1, 3, 2]).steps()
    assert steps == [(1.0, 0.25), (2.0, 0.5), (3.0, 1.0)]


# ---- logistic regression ----


def _grouped_design(x1_wins=30, x1_losses=20, x0_wins=10, x0_losses=40):
    rows = (
        [(1.0, 1.0)] * x1_wins
        + [(1.0, 0.0)] * x1_losses
        + [(0.0, 1.0)] * x0_wins
        + [(0.0, 0.0)] * x0_losses
    )
    X = np.array([[1.0, x] for x, _ in rows])
    y = np.array([y for _, y in rows])
    return X, y


def test_logistic_fit_reproduces_saturated_closed_form():
    # one binary predictor: the MLE equals the observed log-odds
    X, y = _grouped_design()
    fit = logistic_fit(X, y, names=["intercept", "x"])
    assert fit.converged
    assert fit.beta[fit.names.index("intercept")] == pytest.approx(math.log(10 / 40), abs=1e-6)
    assert fit.beta[fit.names.index("x")] == pytest.approx(math.log((30 * 40) / (20 * 10)), abs=1e-6)


def test_logistic_fit_wald_ci_shape():
    X, y = _grouped_design()
    fit = logistic_fit(X, y)
    for beta, se, lo, hi in zip(fit.beta, fit.se, fit.ci_low, fit.ci_high):
        assert lo == pytest.approx(beta - 1.96 * se, abs=1e-12)
        assert hi == pytest.approx(beta + 1.96 * se, abs=1e-12)


def test_logistic_fit_gradient_vanishes_by_finite_differences():
    rng = np.random.default_rng(7)
    n = 240
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.integers(0, 3, size=n).astype(float)])
    logits = X @ np.array([-0.3, 0.8, -0.5])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    fit = logistic_fit(X, y)
    assert fit.converged
    beta = np.array(fit.beta)
    h = 1e-5
    grad = np.zeros_like(beta)
    for j in range(len(beta)):
        step = np.zeros_like(beta)
        step[j] = h
        grad[j] = (log_likelihood(X, y, beta + step) - log_likelihood(X, y, beta - step)) / (2 * h)
    assert np.linalg.norm(grad) < 1e-6


def test_logistic_fit_rejects_constant_outcome():
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    with pytest.raises(ValueError):
        logistic_fit(X, np.ones(6))


def test_logistic_fit_flags_perfect_separation():
    X = np.column_stack([np.ones(20), np.arange(20.0)])
    y = (np.arange(20) >= 10).astype(float)
    fit = logistic_fit(X, y)
    assert not fit.converged
    assert fit.warning is not None


def test_logistic_fit_names_collinear_columns():
    x = np.arange(12.0)
    X = np.column_stack([np.ones(12), x, 2.0 * x])
    y = np.array([0, 1] * 6, dtype=float)
    with pytest.raises(ValueError, match="x2"):
        logistic_fit(X, y)


# The numpy IRLS and prefix-rank rule that the plain-float fit replaced, kept
# as its reference: BLAS may sum in another order, so they agree to a
# tolerance, not bit for bit.


def _numpy_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _numpy_fit(X: np.ndarray, y: np.ndarray, max_iter: int = 100, tol: float = 1e-8):
    """beta, standard errors and log-likelihood of the numpy IRLS."""
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        p = _numpy_sigmoid(X @ beta)
        score = X.T @ (y - p)
        if np.max(np.abs(score)) < tol:
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        beta = beta + np.linalg.solve((X * w[:, None]).T @ X, score)
    p = _numpy_sigmoid(X @ beta)
    w = np.clip(p * (1.0 - p), 1e-12, None)
    se = np.sqrt(np.clip(np.diag(np.linalg.inv((X * w[:, None]).T @ X)), 0.0, None))
    q = np.clip(p, 1e-300, 1.0 - 1e-16)
    return beta, se, float(np.sum(y * np.log(q) + (1.0 - y) * np.log1p(-q)))


def _numpy_collinear(X: np.ndarray, names: list[str]) -> list[str]:
    bad, rank = [], 0
    for j in range(X.shape[1]):
        new_rank = np.linalg.matrix_rank(X[:, : j + 1])
        if new_rank == rank:
            bad.append(names[j])
        rank = new_rank
    return bad


@pytest.mark.parametrize(
    "n, k, seed",
    [(20, 2, 1), (40, 3, 2), (90, 4, 3), (250, 5, 4), (600, 6, 5), (1100, 7, 6), (1100, 2, 7), (80, 7, 8)],
)
def test_logistic_fit_matches_numpy_reference(n, k, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=(n, (k - 1) // 2)).astype(float)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1 - counts.shape[1])), counts])
    logits = X @ rng.uniform(-0.5, 0.5, size=k)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    fit = logistic_fit(X if seed % 2 else X.tolist(), y)
    beta, se, ll = _numpy_fit(X, y)
    assert fit.converged
    assert fit.beta == pytest.approx(beta.tolist(), rel=1e-9)
    assert fit.se == pytest.approx(se.tolist(), rel=1e-9)
    assert fit.log_likelihood == pytest.approx(ll, rel=1e-9)


PLANTED = {
    "multiple": lambda one, a, b, c: [one, a, -2.5 * a, b],
    "sum": lambda one, a, b, c: [one, a, b, a + b, c],
    "constant": lambda one, a, b, c: [one, a, 3.0 * one, b],
    "count_complement": lambda one, a, b, c: [one, b, 4.0 - b, c],
    "several": lambda one, a, b, c: [one, a, b, a - 0.3 * b, 7.0 * one, c, 2.0 * c + b],
    "zero_column": lambda one, a, b, c: [a, 0.0 * a, b, one],
}


@pytest.mark.parametrize("n", [20, 1100])
@pytest.mark.parametrize("design", sorted(PLANTED))
def test_collinear_columns_matches_numpy_reference(design, n):
    rng = np.random.default_rng(n)
    a, c = rng.normal(size=(2, n))
    b = rng.integers(0, 5, size=n).astype(float)
    X = np.column_stack(PLANTED[design](np.ones(n), a, b, c))
    names = [f"x{j}" for j in range(X.shape[1])]
    expected = _numpy_collinear(X, names)
    assert expected
    assert collinear_columns(X, names) == expected
    assert collinear_columns(X.tolist(), names) == expected


# ---- chi-squared ----


def test_chi_squared_hand_example():
    result = chi_squared([[10, 20], [20, 10]])
    assert result.statistic == pytest.approx(20.0 / 3.0, abs=1e-9)
    assert result.df == 1
    assert result.p_value == pytest.approx(0.009823, abs=1e-6)


def test_chi_squared_identical_rows_gives_zero():
    result = chi_squared([[7, 3, 5], [7, 3, 5]])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_chi_squared_diagonal_example():
    result = chi_squared([[5, 0], [0, 5]])
    assert result.statistic == pytest.approx(10.0, abs=1e-9)
    assert result.df == 1


def test_chi_squared_rejects_zero_margin():
    with pytest.raises(ValueError):
        chi_squared([[0, 0], [3, 4]])
    with pytest.raises(ValueError):
        chi_squared([[1, 0], [3, 0]])


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=40), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=60)
def test_chi_squared_permutation_and_scaling(table, m):
    base = chi_squared(table).statistic
    permuted = chi_squared([row[::-1] for row in table[::-1]]).statistic
    assert permuted == pytest.approx(base, rel=1e-9, abs=1e-9)
    scaled = chi_squared([[m * cell for cell in row] for row in table]).statistic
    assert scaled == pytest.approx(m * base, rel=1e-9, abs=1e-9)


# ---- two-proportion z ----


def test_two_prop_z_equal_proportions():
    z, p = two_prop_z(50, 100, 50, 100)
    assert z == 0.0
    assert p == pytest.approx(1.0, abs=1e-12)


def test_two_prop_z_hand_example():
    z, p = two_prop_z(60, 100, 40, 100)
    assert z == pytest.approx(0.2 / math.sqrt(0.005), abs=1e-9)  # 2.8284...
    assert p == pytest.approx(0.004678, abs=1e-6)


def test_two_prop_z_opposite_boundaries_is_finite():
    # pooled proportion is 0.5 here, so the statistic is defined: -1/sqrt(0.05)
    z, _ = two_prop_z(0, 10, 10, 10)
    assert z == pytest.approx(-1.0 / math.sqrt(0.05), abs=1e-9)


def test_two_prop_z_degenerate_pool_errors():
    with pytest.raises(ValueError):
        two_prop_z(0, 10, 0, 10)
    with pytest.raises(ValueError):
        two_prop_z(10, 10, 10, 10)
    with pytest.raises(ValueError):
        two_prop_z(11, 10, 5, 10)


# ---- odds ratio ----


def test_odds_ratio_hand_example():
    result = odds_ratio(10, 20, 5, 40)
    assert result.odds_ratio == pytest.approx(4.0, abs=1e-9)
    assert result.ci_low == pytest.approx(math.exp(math.log(4.0) - 1.96 * math.sqrt(0.375)), abs=1e-9)
    assert result.ci_high == pytest.approx(math.exp(math.log(4.0) + 1.96 * math.sqrt(0.375)), abs=1e-9)
    assert result.ci_low == pytest.approx(1.204, abs=2e-3)
    assert result.ci_high == pytest.approx(13.29, abs=2e-2)
    assert not result.corrected


@given(st.integers(min_value=1, max_value=50))
def test_odds_ratio_symmetric_table_is_one(k):
    result = odds_ratio(k, k, k, k)
    assert result.odds_ratio == pytest.approx(1.0, abs=1e-12)
    assert result.ci_low < 1.0 < result.ci_high


def test_odds_ratio_zero_cell_correction():
    result = odds_ratio(0, 10, 5, 5)
    assert result.corrected
    assert result.odds_ratio == pytest.approx((0.5 * 5.5) / (10.5 * 5.5), abs=1e-12)
    assert 0.0 < result.ci_low < result.ci_high < math.inf


def test_odds_ratio_double_zero_margin_errors():
    with pytest.raises(ValueError):
        odds_ratio(0, 0, 3, 4)
    with pytest.raises(ValueError):
        odds_ratio(0, 3, 0, 4)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_odds_ratio_reciprocal_property(a, b, c, d):
    forward = odds_ratio(a, b, c, d).odds_ratio
    backward = odds_ratio(b, a, d, c).odds_ratio
    assert forward * backward == pytest.approx(1.0, rel=1e-12)


# ---- spearman ----


def test_spearman_monotone_examples():
    assert spearman([1, 2, 3], [10, 20, 30]).rho == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]).rho == pytest.approx(-1.0)
    assert spearman([1, 2, 3], [10, 20, 30]).p_value == 0.0


def test_spearman_hand_example():
    result = spearman([1, 2, 3, 4], [2, 1, 4, 3])
    assert result.rho == pytest.approx(0.6, abs=1e-12)


def test_spearman_tie_handling():
    assert rank_data([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]


def test_spearman_rejects_constant_input():
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])


@given(
    st.lists(
        st.tuples(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50)),
        min_size=4,
        max_size=30,
    )
)
@settings(max_examples=60)
def test_spearman_invariant_under_monotone_transforms(pairs):
    xs = [float(x) for x, _ in pairs]
    ys = [float(y) for _, y in pairs]
    if min(xs) == max(xs) or min(ys) == max(ys):
        return
    base = spearman(xs, ys)
    transformed = spearman([math.exp(x / 10.0) for x in xs], [3.0 * y + 7.0 for y in ys])
    assert transformed.rho == pytest.approx(base.rho, abs=1e-9)


# ---- logit proportions ----


def test_logit_prop_examples():
    assert logit_prop(5, 10) == pytest.approx(0.0, abs=1e-12)
    expected = math.log((0.5 / 11) / (1 - 0.5 / 11))
    assert logit_prop(0, 10) == pytest.approx(expected, abs=1e-9)
    assert logit_prop(0, 10) == pytest.approx(-3.0445, abs=1e-4)
    assert logit_prop(10, 10) == pytest.approx(-logit_prop(0, 10), abs=1e-12)


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
def test_logit_prop_antisymmetry(count, total):
    if count > total:
        count = total
    assert logit_prop(count, total) == pytest.approx(-logit_prop(total - count, total), abs=1e-12)


def test_logit_prop_domain():
    with pytest.raises(ValueError):
        logit_prop(3, 0)
    with pytest.raises(ValueError):
        logit_prop(5, 4)
