"""Exact Mordell-Weil rank of y^2 = x^3 + A*t^6 + B over Q(t).

The public surface: :func:`rank_breakdown` for the component formula,
:func:`classify` for the independent classification route,
:func:`full_certificate` for machine-verifiable witnesses, the census
helpers, and the bounded-height search in :mod:`sexticrank.oracle`.
"""

from .exactnum import (
    OMEGA,
    FactorBudgetExceeded,
    QuadExt,
    Rational,
    SixthPowerClass,
    is_kth_power,
    is_square_or_neg3_square,
    sixth_power_class,
)
from .funcfield import Poly, RatFunc, parse_point, parse_ratfunc
from .curve import LEGAL_KM, ZETA6, CurvePoint, FunctionFieldCurve
from .rankalg import (
    Classification,
    RankBreakdown,
    breakdown_to_json,
    census_rows,
    classify,
    normalize_pair,
    rank_breakdown,
    sixth_power_free_values,
)
from .generators import (
    INCLUSION_ARROWS,
    RankCertificate,
    base_change_embed,
    certificate_to_json,
    eigenspace_check,
    full_certificate,
    subfamily_generator,
    verify_certificate_json,
    verify_inclusion_chain,
)
from .oracle import CrossValidation, SearchConfig, cross_validate, search_points

__version__ = "0.1.0"

__all__ = [
    "OMEGA",
    "FactorBudgetExceeded",
    "QuadExt",
    "Rational",
    "SixthPowerClass",
    "is_kth_power",
    "is_square_or_neg3_square",
    "sixth_power_class",
    "Poly",
    "RatFunc",
    "parse_point",
    "parse_ratfunc",
    "LEGAL_KM",
    "ZETA6",
    "CurvePoint",
    "FunctionFieldCurve",
    "Classification",
    "RankBreakdown",
    "breakdown_to_json",
    "census_rows",
    "classify",
    "normalize_pair",
    "rank_breakdown",
    "sixth_power_free_values",
    "INCLUSION_ARROWS",
    "RankCertificate",
    "base_change_embed",
    "certificate_to_json",
    "eigenspace_check",
    "full_certificate",
    "subfamily_generator",
    "verify_certificate_json",
    "verify_inclusion_chain",
    "CrossValidation",
    "SearchConfig",
    "cross_validate",
    "search_points",
]
