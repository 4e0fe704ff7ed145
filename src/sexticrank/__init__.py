"""Exact Mordell-Weil rank of y^2 = x^3 + A*t^6 + B over Q(t).

The public surface: :func:`rank_breakdown` for the component formula,
:func:`classify` for the independent classification route,
:func:`full_certificate` for machine-verifiable witnesses, and the
engines of the other commands: :func:`verify_certificate_json`,
:func:`census_rows` and the bounded-height search :func:`cross_validate`.
"""

from .rankalg import census_rows, classify, rank_breakdown
from .generators import full_certificate, verify_certificate_json
from .oracle import cross_validate

__version__ = "0.1.0"

__all__ = [
    "rank_breakdown",
    "classify",
    "full_certificate",
    "verify_certificate_json",
    "census_rows",
    "cross_validate",
]
