"""Lower-bound certificates from pairwise-incompatible losing coalitions.

Two losing coalitions ``a`` and ``b`` are incompatible when the players
outside their intersection can be split so that both halves, each joined
to the intersection, win.  Any weighted game that admits every winning
coalition then gives ``weight(p) + weight(q) = weight(a) + weight(b)``
with both sides of the split at or above the quota, so at least one of
``a``, ``b`` reaches the quota too and cannot stay losing.  A set of k
pairwise-incompatible losing coalitions therefore needs k distinct games
in any intersection representation: the game's dimension is at least k.

The split search is meet-in-the-middle: the free players of the difference
are cut into a low part of at most ``_CHUNK_BITS`` players and a high part,
each distinct leaf gets one partial-sum table per part, and for a fixed high
index each side of a split wins a leaf iff its low sum meets one scalar bound.
"""

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .games import Coalition, GameExpr, WeightedGame, check_universe
from . import sweep

# Selector bits searched per chunk: the low partial-sum table of each leaf
# has 2^_CHUNK_BITS entries, however large the symmetric difference.
_CHUNK_BITS = 18

STATUS_CERTIFIED = "certified"
STATUS_NO_CERTIFICATE = "no-certificate"
STATUS_NOT_ATTEMPTED = "not-attempted"


@dataclass(frozen=True)
class IncompatibilityCertificate:
    """A witness that no single weighted game keeps both ``a`` and ``b`` losing.

    ``x`` selects part of the symmetric difference Δ, and the two halves of
    the split are computed from it: ``p = (a ∩ b) ∪ x`` and
    ``q = (a ∩ b) ∪ (Δ \\ x)``.  For every ``x ⊆ Δ`` they satisfy
    ``p ∪ q = a ∪ b`` and ``p ∩ q = a ∩ b``, which force ``weight(p) +
    weight(q) = weight(a) + weight(b)`` under any weight assignment: two
    winning halves contradict two losing originals.
    """

    a: Coalition
    b: Coalition
    x: Coalition

    def __post_init__(self) -> None:
        check_universe(check_universe(self.a.n, self.b.n), self.x.n)
        if self.x.mask & ~(self.a.mask ^ self.b.mask):
            raise ValueError("x must be a subset of the symmetric difference")

    @property
    def p(self) -> Coalition:
        return Coalition((self.a.mask & self.b.mask) | self.x.mask, self.a.n)

    @property
    def q(self) -> Coalition:
        return Coalition((self.a.mask | self.b.mask) ^ self.x.mask, self.a.n)


@dataclass(frozen=True)
class PairOutcome:
    """Certificate search result for the coalition pair at indices (i, j)."""

    i: int
    j: int
    status: str
    certificate: Optional[IncompatibilityCertificate]


@dataclass(frozen=True)
class CertificateSetReport:
    """Outcome of checking a coalition set for pairwise incompatibility.

    ``lower_bound`` is the set size when every coalition is losing and
    every pair is certified, and None otherwise: an uncertified pair means
    "unknown", never "compatible".
    """

    coalitions: tuple[Coalition, ...]
    losing: tuple[bool, ...]
    pairs: tuple[PairOutcome, ...]

    @property
    def all_losing(self) -> bool:
        return all(self.losing)

    @property
    def fully_certified(self) -> bool:
        return self.all_losing and all(
            p.status == STATUS_CERTIFIED for p in self.pairs
        )

    @property
    def lower_bound(self) -> Optional[int]:
        return len(self.coalitions) if self.fully_certified else None


def find_certificate(
    expr: GameExpr, a: Coalition, b: Coalition
) -> Optional[IncompatibilityCertificate]:
    """Search the canonical splits of the symmetric difference of (a, b).

    Restricting to splits ``p, q ⊇ a ∩ b`` that partition the
    symmetric difference loses nothing: any winning pair with
    ``p ∪ q ⊆ a ∪ b`` and ``p ∩ q ⊇ a ∩ b``
    can be enlarged player by player into this family, and enlarging never
    turns a winning coalition losing.  Splits are tried in ascending order
    of their binary encoding over the sorted difference, skipping those
    that contain its largest player (the swap ``x ↔ Δ \\ x``
    yields the same pair), so the first hit is deterministic.

    Returns None when no split certifies.
    """
    check_universe(expr.n, a.n)
    check_universe(expr.n, b.n)
    if expr.evaluate(a):
        raise ValueError(f"coalition {set(a.members()) or '{}'} is not losing")
    if expr.evaluate(b):
        raise ValueError(f"coalition {set(b.members()) or '{}'} is not losing")
    if b.mask < a.mask:
        a, b = b, a
    base = a.mask & b.mask
    delta = (a.mask | b.mask) ^ base
    free = [j for j in range(expr.n) if delta >> j & 1][:-1]
    lo = min(len(free), _CHUNK_BITS)
    # Selector r = h * 2^lo + l is the split x = low_x[l] | high_x[h].
    low_x = sweep.subset_sums(1 << d for d in free[:lo])
    high_x = sweep.subset_sums(1 << d for d in free[lo:])

    def bounds(game: WeightedGame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # p = base | x wins the leaf iff w(x) >= q - w(base), and
        # q = base | (Δ \ x) iff w(x) <= w(base) + w(Δ) - q.  Split w(x) into
        # its low and high halves: one scalar bound per high index and side.
        w_base = game.weight_sum(Coalition(base, expr.n))
        w_delta = game.weight_sum(Coalition(delta, expr.n))
        high = sweep.subset_sums(game.weights[d] for d in free[lo:])
        return (
            sweep.subset_sums(game.weights[d] for d in free[:lo]),
            game.quota - w_base - high,
            w_base + w_delta - game.quota - high,
        )

    tables = {game: bounds(game) for game in dict.fromkeys(expr.leaves())}
    for h in range(high_x.size):
        ok = sweep.evaluate_leaves(expr, lambda g: tables[g][0] >= tables[g][1][h])
        ok &= sweep.evaluate_leaves(expr, lambda g: tables[g][0] <= tables[g][2][h])
        hits = np.flatnonzero(ok)
        if hits.size:
            x_mask = int(low_x[hits[0]] | high_x[h])
            cert = IncompatibilityCertificate(a, b, Coalition(x_mask, expr.n))
            assert expr.evaluate(cert.p) and expr.evaluate(cert.q)
            return cert
    return None


def verify_certificate_set(
    expr: GameExpr, coalitions: Sequence[Coalition]
) -> CertificateSetReport:
    """Check a coalition set: all losing and pairwise certified.

    Pairs are searched one at a time in index order.  Pairs that involve a
    non-losing coalition are reported as not attempted.
    """
    coalitions = tuple(coalitions)
    if not coalitions:
        raise ValueError("coalition set must be non-empty")
    seen: set[int] = set()
    for s in coalitions:
        check_universe(expr.n, s.n)
        if s.mask in seen:
            raise ValueError(f"duplicate coalition {set(s.members()) or '{}'}")
        seen.add(s.mask)
    losing = tuple(not expr.evaluate(s) for s in coalitions)

    def attempt(i: int, j: int) -> PairOutcome:
        if not (losing[i] and losing[j]):
            return PairOutcome(i, j, STATUS_NOT_ATTEMPTED, None)
        cert = find_certificate(expr, coalitions[i], coalitions[j])
        if cert is None:
            return PairOutcome(i, j, STATUS_NO_CERTIFICATE, None)
        return PairOutcome(i, j, STATUS_CERTIFIED, cert)

    k = len(coalitions)
    outcomes = tuple(attempt(i, j) for i in range(k) for j in range(i + 1, k))
    return CertificateSetReport(coalitions=coalitions, losing=losing, pairs=outcomes)


def _loser_pool(expr: GameExpr, k: int, seed: int) -> list[int]:
    """Up to ``k`` distinct maximal losing masks, in draw order, without a table.

    Each candidate starts empty and tries the players in its own seeded order,
    keeping a player while it still loses.  A refused player stays refused
    (every superset wins too), so each candidate ends as a maximal loser.
    """
    rng = random.Random(seed)
    order = np.array([rng.sample(range(expr.n), expr.n) for _ in range(k)])
    masks = np.zeros(k, dtype=np.int64)
    for step in order.T:
        grown = masks | np.left_shift(1, step)
        np.copyto(masks, grown, where=~sweep.evaluate_many(expr, grown))
    return list(dict.fromkeys(masks.tolist()))


def _max_clique(adjacent: Sequence[int]) -> int:
    """A maximum clique (vertex bitset) of the graph with neighbour bitsets ``adjacent``.

    Branch and bound under Tomita's greedy-colouring bound: a branch is cut
    once its clique plus the colours of its candidates cannot beat the best.
    """
    best = 0

    def expand(clique: int, candidates: int) -> None:
        nonlocal best
        coloured, uncoloured, colour = [], candidates, 0
        while uncoloured:
            colour, free = colour + 1, uncoloured
            while free:
                v = (free & -free).bit_length() - 1
                free &= ~(adjacent[v] | 1 << v)
                uncoloured &= ~(1 << v)
                coloured.append((v, colour))
        # A vertex of colour c > 1 has a neighbour of every lower colour, still
        # a candidate when it is expanded, so only colour 1 can end a clique.
        for v, c in reversed(coloured):
            if clique.bit_count() + c <= best.bit_count():
                return
            if candidates & adjacent[v]:
                expand(clique | 1 << v, candidates & adjacent[v])
            else:
                best = clique | 1 << v
            candidates &= ~(1 << v)

    expand(0, (1 << len(adjacent)) - 1)
    return best


def search_certificate_set(
    expr: GameExpr, pool_budget: int = 64, seed: int = 0
) -> CertificateSetReport:
    """A largest pairwise-incompatible set within a seeded pool of maximal losers.

    The pool holds at most ``pool_budget`` maximal losers (``_loser_pool``).
    Each of its k(k-1)/2 pairs is searched once, and the report is that of a
    maximum clique of the certified pairs, re-indexed.  Exact over the pool
    only: no claim about the losers outside it.
    """
    if pool_budget < 1:
        raise ValueError("budget must be positive")
    pool = [Coalition(m, expr.n) for m in _loser_pool(expr, pool_budget, seed)]
    graph = verify_certificate_set(expr, pool)
    adjacent = [0] * len(pool)
    for p in graph.pairs:
        if p.status == STATUS_CERTIFIED:
            adjacent[p.i] |= 1 << p.j
            adjacent[p.j] |= 1 << p.i
    clique = _max_clique(adjacent)
    keep = {old: new for new, old in enumerate(i for i in range(len(pool)) if clique >> i & 1)}
    pairs = [p for p in graph.pairs if p.i in keep and p.j in keep]
    return CertificateSetReport(
        tuple(pool[i] for i in keep),
        tuple(graph.losing[i] for i in keep),
        tuple(PairOutcome(keep[p.i], keep[p.j], p.status, p.certificate) for p in pairs),
    )
