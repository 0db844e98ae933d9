from crewsim.stats.contingency import (
    ChiSquaredResult,
    OddsRatioResult,
    chi_squared,
    logit_prop,
    odds_ratio,
    two_prop_z,
)
from crewsim.stats.ecdf import Ecdf
from crewsim.stats.logistic import RegressionFit, log_likelihood, logistic_fit, sigmoid
from crewsim.stats.rank import SpearmanResult, rank_data, spearman
from crewsim.stats.special import (
    chi2_sf,
    normal_sf,
    regularized_beta,
    regularized_gamma_q,
    student_t_sf,
)

__all__ = [
    "ChiSquaredResult",
    "OddsRatioResult",
    "chi_squared",
    "logit_prop",
    "odds_ratio",
    "two_prop_z",
    "Ecdf",
    "RegressionFit",
    "log_likelihood",
    "logistic_fit",
    "sigmoid",
    "SpearmanResult",
    "rank_data",
    "spearman",
    "chi2_sf",
    "normal_sf",
    "regularized_beta",
    "regularized_gamma_q",
    "student_t_sf",
]
