"""Lower-bound certificates from pairwise-incompatible losing coalitions.

Two losing coalitions ``a`` and ``b`` are incompatible when the players
outside their intersection can be split so that both halves, each joined
to the intersection, win.  Any weighted game that admits every winning
coalition then gives ``weight(p) + weight(q) = weight(a) + weight(b)``
with both sides of the split at or above the quota, so at least one of
``a``, ``b`` reaches the quota too and cannot stay losing.  A set of k
pairwise-incompatible losing coalitions therefore needs k distinct games
in any intersection representation: the game's dimension is at least k.

The split search is meet-in-the-middle on Python-int bitsets, with no array
library.  A split is a selector over the free players of the difference
(all but its largest), cut from the bottom into at most ``_LOW_BITS`` low
bits, row bits and chunk bits: a chunk holds the 2^_CHUNK_BITS selectors
that share their chunk bits.  Each distinct vector of low-player weights
gets one sorted low half, kept as the row patterns "sorted rank >= r" in
bytes.  In a fixed row, each side of a split wins a leaf iff its low sum
meets one bound, so ``bisect`` picks the row's pattern; the row and chunk
parts of that bound come from two small partial-sum tables.  The joined
row patterns are one leaf's bitset over the chunk, the AND/OR tree folds
those with ``&`` and ``|``, and the lowest set bit of ``P & Q`` is the
first certifying split.  Chunks run in ascending order, so memory stays
bounded however large the difference is.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from .games import Coalition, GameExpr, WeightedGame, check_universe

# Selector bits searched per chunk: each leaf and side is one 2^_CHUNK_BITS-bit
# int (128 KB) per chunk, however large the symmetric difference.
_CHUNK_BITS = 20
# Low players per row: at most 2^11 + 1 row patterns of 256 bytes per distinct
# vector of low-player weights.
_LOW_BITS = 11

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


def _subset_sums(weights: Iterable[int]) -> list[int]:
    """Partial-sum table: entry m = total weight of the players with bits in m."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _low_half(weights: tuple[int, ...], width: int) -> tuple[list[int], list[bytes]]:
    """The sorted low sums, and per rank r the row pattern of the masks of rank >= r.

    A row pattern is 2^width bits (whole bytes): bit l is low mask l.
    """
    sums = _subset_sums(weights)
    order = sorted(range(len(sums)), key=sums.__getitem__)
    size = (1 << width) >> 3
    patterns, acc = [bytes(size)], 0
    for m in reversed(order):
        acc |= 1 << m
        patterns.append(acc.to_bytes(size, "little"))
    patterns.reverse()
    return [sums[m] for m in order], patterns


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
    lo = min(len(free), max(3, -(-len(free) // 2)), _CHUNK_BITS, _LOW_BITS)
    inner = min(len(free), _CHUNK_BITS)
    width = max(3, lo)
    # Selector r = k * 2^inner + i * 2^lo + l (chunk k, row i, low mask l) is
    # bit i * 2^width + l of chunk k's bitset: every row starts on a byte.
    halves: dict[tuple[int, ...], tuple[list[int], list[bytes]]] = {}

    def leaf_tables(game: WeightedGame) -> tuple:
        # p = base | x wins the leaf iff w(x) >= q - w(base), and
        # q = base | (Δ \ x) iff not w(x) >= w(base) + w(Δ) - q + 1.  Split
        # w(x) into low, row and chunk parts: one low bound per row and side.
        w_base = game.weight_sum(Coalition(base, expr.n))
        w_delta = game.weight_sum(Coalition(delta, expr.n))
        low = tuple(game.weights[d] for d in free[:lo])
        if low not in halves:
            halves[low] = _low_half(low, width)
        return (
            halves[low],
            _subset_sums(game.weights[d] for d in free[lo:inner]),
            _subset_sums(game.weights[d] for d in free[inner:]),
            (game.quota - w_base, w_base + w_delta - game.quota + 1),
        )

    tables = {game: leaf_tables(game) for game in dict.fromkeys(expr.leaves())}

    def at_least(game: WeightedGame, side: int, k: int) -> int:
        # Bit r of chunk k: w(x) reaches the side's bound (side 0: p wins the
        # leaf; side 1: q loses it).
        (sorted_low, patterns), rows, chunks, bounds = tables[game]
        bound, rank = bounds[side] - chunks[k], partial(bisect_left, sorted_low)
        return int.from_bytes(b"".join([patterns[rank(bound - s)] for s in rows]), "little")

    row_full = ((1 << (1 << lo)) - 1).to_bytes((1 << width) >> 3, "little")
    full = int.from_bytes(row_full * (1 << (inner - lo)), "little")
    join_and, join_or = partial(reduce, and_), partial(reduce, or_)
    for k in range(1 << (len(free) - inner)):
        p = expr.fold(lambda g: at_least(g, 0, k), join_and, join_or)
        hits = p and p & expr.fold(lambda g: full ^ at_least(g, 1, k), join_and, join_or)
        if hits:
            bit = (hits & -hits).bit_length() - 1
            r = k << inner | bit >> width << lo | bit & ((1 << width) - 1)
            x_mask = sum(1 << d for i, d in enumerate(free) if r >> i & 1)
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

    outcomes = tuple(attempt(i, j) for i, j in combinations(range(len(coalitions)), 2))
    return CertificateSetReport(coalitions=coalitions, losing=losing, pairs=outcomes)


def _loser_pool(expr: GameExpr, k: int, seed: int) -> list[int]:
    """Up to ``k`` distinct maximal losing masks, in draw order, without a table.

    Each candidate starts empty and tries the players in its own seeded order,
    keeping a player while it still loses.  A refused player stays refused
    (every superset wins too), so each candidate ends as a maximal loser.
    """
    rng = random.Random(seed)
    masks = []
    for _ in range(k):
        mask = 0
        for j in rng.sample(range(expr.n), expr.n):
            if not expr.evaluate(Coalition(mask | 1 << j, expr.n)):
                mask |= 1 << j
        masks.append(mask)
    return list(dict.fromkeys(masks))


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
    Each of its k(k-1)/2 pairs is searched once, keeping only one adjacency
    bit per certified pair.  The report is ``verify_certificate_set`` of a
    maximum clique of those pairs, in pool order, so its pairs are searched
    a second time.  Exact over the pool only: no claim about the losers
    outside it.
    """
    if pool_budget < 1:
        raise ValueError("budget must be positive")
    pool = [Coalition(m, expr.n) for m in _loser_pool(expr, pool_budget, seed)]
    adjacent = [0] * len(pool)
    for i, j in combinations(range(len(pool)), 2):
        if find_certificate(expr, pool[i], pool[j]) is not None:
            adjacent[i] |= 1 << j
            adjacent[j] |= 1 << i
    clique = _max_clique(adjacent)
    return verify_certificate_set(expr, [s for i, s in enumerate(pool) if clique >> i & 1])
