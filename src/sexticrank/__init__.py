"""Exact Mordell-Weil rank of y^2 = x^3 + A*t^6 + B over Q(t).

The public surface: :func:`rank_breakdown` for the component formula,
:func:`classify` for the independent classification route,
:func:`full_certificate` for machine-verifiable witnesses, and the
engines of the other commands: :func:`verify_certificate_json`,
:func:`census_rows` and the bounded-height search :func:`cross_validate`.
"""

from .rankalg import census_rows, classify, rank_breakdown

__version__ = "0.1.0"

__all__ = [
    "rank_breakdown",
    "classify",
    "full_certificate",
    "verify_certificate_json",
    "census_rows",
    "cross_validate",
]


def __getattr__(name):
    """Import the certificate and oracle names when first asked for:
    only ``certify`` and ``oracle`` use them, and their modules (with
    ``curve`` and ``funcfield``) would cost every other command 20-35 ms
    of start-up (2 cores, CPython 3.11, no bytecode cache)."""
    if name in ("full_certificate", "verify_certificate_json"):
        from . import generators as module
    elif name == "cross_validate":
        from . import oracle as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value
