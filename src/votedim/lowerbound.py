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

``_pair_decider`` decides whether a split exists without searching, when
every leaf weighs the difference uniformly or by one common vector W (every
rule the CLI builds): a split then wins or loses by its size and its W-sum
alone.  Both commands ask it first and search only the pairs it does not
rule out, so every certificate still comes from the split search.
"""

import random
from bisect import bisect_left, bisect_right
from functools import cache, partial, reduce
from itertools import accumulate, chain, combinations, product
from math import prod
from operator import and_, itemgetter, or_
from typing import Callable, Optional, Sequence

from .games import Coalition, GameExpr, Record, WeightedGame, check_universe, subset_sums

# Selector bits searched per chunk: each leaf and side is one 2^_CHUNK_BITS-bit
# int (128 KB) per chunk, however large the symmetric difference.
_CHUNK_BITS = 20
# Low players per row: at most 2^11 + 1 row patterns of 256 bytes per distinct
# vector of low-player weights.
_LOW_BITS = 11
# Branch-and-bound nodes one pair may take in ``_pair_decider`` before it leaves
# the pair to the split search.
_NODE_CAP = 1 << 9
# Terms (ANDs of leaves; an AND of k ORs has 2^k) past which ``_pair_decider`` answers None.
_TERM_CAP = 1 << 6

STATUS_CERTIFIED = "certified"
STATUS_NO_CERTIFICATE = "no-certificate"
STATUS_NOT_ATTEMPTED = "not-attempted"


class IncompatibilityCertificate(Record):
    """A witness that no single weighted game keeps both ``a`` and ``b`` losing.

    ``x`` selects part of the symmetric difference Δ, and the two halves of
    the split are computed from it: ``p = (a ∩ b) ∪ x`` and
    ``q = (a ∩ b) ∪ (Δ \\ x)``.  For every ``x ⊆ Δ`` they satisfy
    ``p ∪ q = a ∪ b`` and ``p ∩ q = a ∩ b``, which force ``weight(p) +
    weight(q) = weight(a) + weight(b)`` under any weight assignment: two
    winning halves contradict two losing originals.
    """

    __slots__ = ("a", "b", "x")
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


class PairOutcome(Record):
    """Certificate search result for the coalition pair at indices (i, j)."""

    __slots__ = ("i", "j", "status", "certificate")
    i: int
    j: int
    status: str
    certificate: Optional[IncompatibilityCertificate]


class CertificateSetReport(Record):
    """Outcome of checking a coalition set for pairwise incompatibility.

    ``lower_bound`` is the set size when every coalition is losing and
    every pair is certified, and None otherwise: an uncertified pair means
    "unknown", never "compatible".
    """

    __slots__ = ("coalitions", "losing", "pairs")
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


def _low_half(weights: tuple[int, ...], width: int) -> tuple[list[int], list[bytes]]:
    """The sorted low sums, and per rank r the row pattern of the masks of rank >= r.

    A row pattern is 2^width bits (whole bytes): bit l is low mask l.
    """
    sums = subset_sums(weights)
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

    Returns None when no split certifies, after trying every split.
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
    on_base, on_delta = Coalition(base, expr.n), Coalition(delta, expr.n)
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
        w_base, w_delta = game.weight_sum(on_base), game.weight_sum(on_delta)
        low = tuple(game.weights[d] for d in free[:lo])
        if low not in halves:
            halves[low] = _low_half(low, width)
        return (
            halves[low],
            subset_sums(game.weights[d] for d in free[lo:inner]),
            subset_sums(game.weights[d] for d in free[inner:]),
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


def _sum_within(weights: list[int], top: list[int], stack: list[tuple]) -> Optional[bool]:
    """Whether some entry (i, k, lo, hi) of ``stack`` has k of ``weights[i:]`` summing into [lo, hi].

    ``weights`` descend and ``top[k]`` sums the first k of them, so the k
    largest and the k smallest of ``weights[i:]`` bound every k-subset sum,
    and either one inside [lo, hi] answers.  Between them, branch on
    ``weights[i]``.  None past ``_NODE_CAP`` nodes.
    """
    d = len(weights)
    for _ in range(_NODE_CAP):
        if not stack:
            return False
        i, k, lo, hi = stack.pop()
        big, small = top[i + k] - top[i], top[d] - top[d - k]
        if big < lo or small > hi:
            continue
        if lo <= small or big <= hi:
            return True
        stack += [(i + 1, k, lo, hi), (i + 1, k - 1, lo - weights[i], hi - weights[i])]
    return None if stack else False


def _pair_decider(expr: GameExpr) -> Callable[[Coalition, Coalition], Optional[bool]]:
    """``decide(a, b)``: whether ``find_certificate(expr, a, b)`` certifies, by arithmetic.

    Both coalitions must lose (not checked).  ``decide`` answers when every
    leaf's weights on the symmetric difference Δ are either all equal or one
    common vector W, and returns None otherwise, past ``_TERM_CAP`` terms of
    the expression, or when the branch and bound passes ``_NODE_CAP``.

    Then whether ``p = (a ∩ b) ∪ x`` wins depends on s = |x| and W(x) alone:
    a uniform leaf bounds s from below, a W leaf bounds W(x) from below, and
    the terms of the expression make the winning x a union of boxes
    "s >= s0 and W(x) >= lo".  ``q = (a ∩ b) ∪ (Δ \\ x)`` wins iff
    (d - s, T - W(x)) lies in one, with d = |Δ| and T = W(Δ), so the pair
    certifies iff some s-subset of Δ has its W-sum in a box of p met with a
    mirrored box of q.  The s-subset sums range from the s smallest weights
    to the s largest; a W-interval that holds an extreme is reached, one
    that misses the range is not, and one strictly between them goes to
    ``_sum_within``.

    The expression becomes a union of terms once, each an AND of leaves
    (indices into ``leaves``; two for every CLI rule, none past
    ``_TERM_CAP``, counted first), so a pair needs no fold.  A leaf weighs
    a ∩ b as (w(a) + w(b) - w(Δ)) / 2, with w(a) and w(b) cached per coalition.
    """
    n, leaves = expr.n, list(dict.fromkeys(expr.leaves()))
    index = {game: i for i, game in enumerate(leaves)}
    terms = expr.fold(
        lambda game: [(index[game],)],
        lambda parts: [sum(term, ()) for term in product(*parts)],
        lambda parts: list(chain.from_iterable(parts)),
    ) if expr.fold(lambda game: 1, prod, sum) <= _TERM_CAP else None
    weight = cache(lambda i, mask: leaves[i].weight_sum(Coalition(mask, n)))

    def decide(a: Coalition, b: Coalition) -> Optional[bool]:
        check_universe(check_universe(n, a.n), b.n)
        if terms is None:
            return None
        delta = a.mask ^ b.mask
        on_delta = [j for j in range(n) if delta >> j & 1]
        d = len(on_delta)
        if d < 2:
            # One side of every split is a ∩ b, a subset of a loser.
            return False
        pick, common, bounds = itemgetter(*on_delta), [], []
        # Per leaf (s0, lo): p wins it iff s >= s0 and W(x) >= lo, so never if s0 > d.
        for i, game in enumerate(leaves):
            on = pick(game.weights)
            need = game.quota - (weight(i, a.mask) + weight(i, b.mask) - sum(on)) // 2
            if on.count(on[0]) < d:
                common.append(on)
                bounds.append((0, need))
            else:
                c = on[0]
                bounds.append((0 if need <= 0 else -(-need // c) if need <= c * d else d + 1, 0))
        if len(set(common)) > 1:
            return None
        boxes = []
        for term in terms:
            s0 = lo = 0
            for i in term:
                s0, lo = max(s0, bounds[i][0]), max(lo, bounds[i][1])
            boxes.append((s0, lo))
        weights = sorted(common[0] if common else [0] * d, reverse=True)
        top = list(accumulate(weights, initial=0))
        bottom = list(accumulate(reversed(weights), initial=0))
        stack = []
        for s0, lo in boxes:
            # From first on, the s heaviest weights reach lo.
            first = max(s0, bisect_left(top, lo))
            for t0, up in boxes:
                # Both halves win for s in [s0, d - t0] and W(x) in [lo, hi].
                # Up to last, the s lightest weights stay within hi.
                hi = top[d] - up
                last = min(d - t0, bisect_right(bottom, hi) - 1)
                if first > last or lo > hi:
                    continue
                # The s lightest weigh more as s grows: if any in [first, last]
                # lie in [lo, hi], the last do.  The s heaviest need no test: the
                # two boxes taken the other way round mirror x to Δ \ x, and the
                # s heaviest here are the d - s lightest there.
                if bottom[last] >= lo:
                    return True
                # Unless the mirrored boxes answer, each such s has [lo, hi]
                # strictly between its extremes.
                stack += [(0, s, lo, hi) for s in range(first, last + 1)]
        return _sum_within(weights, top, stack)

    return decide


def verify_certificate_set(
    expr: GameExpr, coalitions: Sequence[Coalition]
) -> CertificateSetReport:
    """Check a coalition set: all losing and pairwise certified.

    Pairs are decided one at a time in index order: the split search runs
    on every losing pair that ``_pair_decider`` does not rule out.  Pairs
    that involve a non-losing coalition are reported as not attempted.
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
    decide = _pair_decider(expr)

    def attempt(i: int, j: int) -> PairOutcome:
        if not (losing[i] and losing[j]):
            return PairOutcome(i, j, STATUS_NOT_ATTEMPTED, None)
        a, b = coalitions[i], coalitions[j]
        cert = None if decide(a, b) is False else find_certificate(expr, a, b)
        if cert is None:
            return PairOutcome(i, j, STATUS_NO_CERTIFICATE, None)
        return PairOutcome(i, j, STATUS_CERTIFIED, cert)

    outcomes = tuple(attempt(i, j) for i, j in combinations(range(len(coalitions)), 2))
    return CertificateSetReport(coalitions, losing, outcomes)


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
    Each of its k(k-1)/2 pairs gets one adjacency bit, from ``_pair_decider``
    or, where that gives no answer, from ``find_certificate``.  The report
    is ``verify_certificate_set`` of a maximum clique of those pairs, in
    pool order, so the split search runs on the clique's pairs.  Exact over
    the pool only: no claim about the losers outside it.
    """
    if pool_budget < 1:
        raise ValueError("budget must be positive")
    pool = [Coalition(m, expr.n) for m in _loser_pool(expr, pool_budget, seed)]
    adjacent, decide = [0] * len(pool), _pair_decider(expr)
    for i, j in combinations(range(len(pool)), 2):
        bit = decide(pool[i], pool[j])
        if bit is None:
            bit = find_certificate(expr, pool[i], pool[j]) is not None
        if bit:
            adjacent[i] |= 1 << j
            adjacent[j] |= 1 << i
    clique = _max_clique(adjacent)
    return verify_certificate_set(expr, [s for i, s in enumerate(pool) if clique >> i & 1])
