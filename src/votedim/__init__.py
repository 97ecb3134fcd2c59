"""Dimension bounds for voting rules built from weighted games.

The package models simple games as boolean combinations of weighted
majority games, rewrites unions of weighted games as intersections,
sweeps all coalitions exhaustively with a bit-table engine, and checks
pairwise-incompatibility certificates for dimension lower bounds.  The
bundled datasets and the ``votedim`` command apply the machinery to the
EU Council qualified-majority rule.
"""

import os
from importlib import import_module

# The engine makes no BLAS call: keep OpenBLAS from starting a helper thread
# per core when numpy loads.  A value already set wins, and a process that
# imported numpy before this package keeps the threads it has.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .games import (
    Coalition,
    GameExpr,
    UniverseMismatchError,
    WeightedGame,
    all_of,
    any_of,
    unit_game,
)
from .data import (
    BUILTIN_YEARS,
    EuRule,
    PopulationTable,
    build_eu_rule,
    builtin_table,
    load_table,
)

__all__ = [
    "BUILTIN_YEARS",
    "CertificateSetReport",
    "Coalition",
    "ContainmentError",
    "Decomposition",
    "EmptyCoreError",
    "EuRule",
    "GameExpr",
    "GapSummary",
    "IncompatibilityCertificate",
    "PopulationTable",
    "UniverseMismatchError",
    "WeightedGame",
    "all_of",
    "analyze_rule",
    "any_of",
    "build_eu_rule",
    "builtin_table",
    "find_certificate",
    "gap_summary",
    "load_table",
    "refine_by_vetoes",
    "search_certificate_set",
    "union_as_intersection",
    "unit_game",
    "verify_certificate_set",
    "veto_game",
]

__version__ = "0.1.0"

# The exported names not imported above load their module on first use
# (PEP 562): the certificate names load ``lowerbound``, the rest ``decompose``.
# Of these only ``refine_by_vetoes`` loads numpy, so certificate work and the
# union rewrite never pay for it, and a sweep never compiles the certificate search.
_LOWERBOUND_NAMES = (
    "CertificateSetReport",
    "IncompatibilityCertificate",
    "find_certificate",
    "search_certificate_set",
    "verify_certificate_set",
)


def __getattr__(name: str):
    if name in __all__:
        module = "lowerbound" if name in _LOWERBOUND_NAMES else "decompose"
        return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
