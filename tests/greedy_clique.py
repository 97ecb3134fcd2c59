"""The greedy pass of the earlier lower-bound search, frozen as a reference.

That search grew its set in pool order: a candidate joined once it certified
against every coalition kept so far, and was dropped at its first failure.
The package replaced it with an exact maximum clique over the same pool; it
is kept only so that the tests can check that the exact clique is never
smaller.  Do not improve it.  Its one edit since: the certificate search
no longer refuses wide symmetric differences, so the handler that counted
such a pair as uncertified is gone.
"""

from __future__ import annotations

from typing import Sequence

from votedim.games import Coalition, GameExpr
from votedim.lowerbound import find_certificate


def greedy_clique(expr: GameExpr, pool: Sequence[Coalition]) -> list[Coalition]:
    clique: list[Coalition] = []
    for cand in pool:
        for kept in clique:
            if find_certificate(expr, cand, kept) is None:
                break
        else:
            clique.append(cand)
    return clique
