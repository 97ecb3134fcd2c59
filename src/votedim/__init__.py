"""Dimension bounds for voting rules built from weighted games.

The package models simple games as boolean combinations of weighted
majority games, rewrites unions of weighted games as intersections,
sweeps all coalitions exhaustively with a bit-table engine, and checks
pairwise-incompatibility certificates for dimension lower bounds.  The
bundled datasets and the ``votedim`` command apply the machinery to the
EU Council qualified-majority rule.
"""

import os

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
from .lowerbound import (
    CertificateSetReport,
    IncompatibilityCertificate,
    find_certificate,
    search_certificate_set,
    verify_certificate_set,
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

# The rewrite's names are the exported names not imported above: they load
# ``decompose``, and with it numpy, on first use (PEP 562), so certificate
# work never pays for the array library.
def __getattr__(name: str):
    if name in __all__:
        from . import decompose

        return getattr(decompose, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
