"""p-value helpers vs numerical-integration oracles (1e-8 agreement)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crewsim.stats.special import (
    chi2_sf,
    normal_sf,
    regularized_beta,
    regularized_gamma_q,
    student_t_sf,
)
from conftest import simpson


def normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def chi2_pdf(df):
    const = 2.0 ** (df / 2.0) * math.gamma(df / 2.0)

    def pdf(x):
        return x ** (df / 2.0 - 1.0) * np.exp(-x / 2.0) / const

    return pdf


def t_pdf(df):
    const = math.gamma((df + 1.0) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))

    def pdf(x):
        return const * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)

    return pdf


@pytest.mark.parametrize("x", [-3.0, -1.5, -0.5, 0.0, 0.3, 1.0, 2.5, 4.0, 6.0])
def test_normal_sf_matches_quadrature(x):
    oracle = simpson(normal_pdf, x, 40.0)
    assert normal_sf(x) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("x", [-2.0, -0.7, 0.0, 0.7, 2.0])
def test_normal_cdf_complements_sf(x):
    # erfc from the stdlib is an implementation-independent cross-check
    assert normal_sf(x) == pytest.approx(0.5 * math.erfc(x / math.sqrt(2.0)), abs=1e-13)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 6.667, 10.0, 20.0])
def test_chi2_sf_matches_quadrature(df, x):
    oracle = simpson(chi2_pdf(df), x, x + 220.0)
    assert chi2_sf(x, df) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("df", [2, 5, 10, 30])
@pytest.mark.parametrize("t", [0.5, 1.5, 2.8, 5.0])
def test_student_t_sf_matches_quadrature(df, t):
    pdf = t_pdf(df)
    oracle = simpson(pdf, t, 50.0) + simpson(pdf, 50.0, 2000.0) + simpson(pdf, 2000.0, 1e5)
    assert student_t_sf(t, df) == pytest.approx(oracle, abs=1e-8)


def test_student_t_symmetry():
    assert student_t_sf(0.0, 7) == 0.5
    assert student_t_sf(-1.3, 7) == pytest.approx(1.0 - student_t_sf(1.3, 7), abs=1e-14)


def test_gamma_upper_tail_is_a_probability():
    for a in (0.5, 1.0, 2.5, 10.0):
        for x in (0.1, 1.0, 3.0, 12.0):
            assert 0.0 <= regularized_gamma_q(a, x) <= 1.0


def test_gamma_boundaries_and_domain():
    assert regularized_gamma_q(2.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(1.0, -0.5)


def test_beta_matches_quadrature():
    # shapes with a >= 1 keep the integrand regular at 0 for the oracle
    for a, b in ((1.0, 3.0), (2.0, 3.0), (5.0, 1.5)):
        const = math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
        for x in (0.1, 0.4, 0.75):
            oracle = simpson(lambda s: const * s ** (a - 1) * (1 - s) ** (b - 1), 0.0, x)
            assert regularized_beta(a, b, x) == pytest.approx(oracle, abs=1e-8)


def test_beta_boundaries():
    assert regularized_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_beta(2.0, 3.0, 1.5)
