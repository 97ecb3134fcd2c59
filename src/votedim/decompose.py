"""Rewriting boolean combinations of weighted games as intersections.

The central operation turns a union of two weighted games into an
equivalent intersection of weighted games.  The union fails to be weighted
exactly because of its *gap set*: coalitions that lose the first game but
win the second.  When every gap coalition contains a common core of
players, boosting each core player's weight by a fixed amount yields games
that admit all gap coalitions; the coalitions the boosted intersection
over-admits are then fenced off one veto game apiece.

The union rewrite walks the players, with no table.  With boost u >= 0,
the boosted intersection wins exactly ``[w(S) >= q] or ([w(S) >= q - u]
and core ⊆ S)``, so every over-admitted coalition holds the core.
Both veto fences re-check their frontier with one ``_checked_frontier``,
through byte-sum tables.  ``verify`` folds every emitted game itself, over
all 2^n coalitions.  Only ``refine_by_vetoes`` loads ``sweep`` (and numpy).
"""

from bisect import bisect_left
from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Optional

from .games import MAX_PLAYERS, Coalition, GameExpr, Record, WeightedGame, all_of, any_of
from .games import check_universe, subset_sums
from .data import EuRule

# Gap-set members are materialized only up to this count; the summary
# statistics (count, core, minimum weight) are exact regardless.
GAP_MEMBER_CAP = 10**6
# The gap survey's tail: players whose subsets it keeps as sorted sums, 2^10 per game.
_TAIL_BITS = 10
# Per byte value, the veto weights 1 - bit of its eight players.
_VETO_BYTES = [tuple(1 - (b >> j & 1) for j in range(8)) for b in range(256)]

METHOD_CORE_BOOST = "core-boost"
METHOD_VETO_FENCE = "veto-fence"
METHOD_FIRST_GAME = "first-game"


class EmptyCoreError(ValueError):
    """The gap coalitions share no player, so no core boost can cover them."""

    def __init__(self, gap: "GapSummary") -> None:
        super().__init__(
            f"the {gap.count} gap coalitions have an empty intersection; "
            "the core-boost rewrite is inapplicable"
        )
        self.gap = gap


class ContainmentError(ValueError):
    """The candidate intersection rejects a coalition the target admits."""

    def __init__(self, witness: Coalition) -> None:
        members = ",".join(str(j) for j in witness)
        super().__init__(
            f"candidate is not a winning-superset of the target: "
            f"coalition {{{members}}} wins the target but loses the candidate"
        )
        self.witness = witness


class GapSummary(Record):
    """Exact statistics of the gap set between two weighted games.

    The gap set of ``(first, second)`` holds every coalition that loses
    ``first`` but wins ``second``; it is empty iff the union of the two
    games already equals ``first``.

    Attributes
    ----------
    count:
        Number of gap coalitions.
    common_core:
        Intersection of all gap coalitions.  By convention the full player
        set when the gap is empty (the core is then never used).
    min_weight:
        Smallest ``first``-weight among gap coalitions; None when the gap
        or its core is empty (no boost can then be used).
    boost:
        ``first.quota - min_weight``: the weight increment that makes the
        heaviest-missing gap coalition win ``first``'s quota.  At least 1
        whenever the gap has a non-empty core, because gap members sit
        strictly below the quota.  None when ``min_weight`` is.
    members:
        The gap coalitions themselves, ascending by mask, or None when
        ``count`` exceeded the materialization cap or the core is empty
        (no rewrite then reads them).
    """

    __slots__ = ("count", "common_core", "min_weight", "boost", "members")
    count: int
    common_core: Coalition
    min_weight: Optional[int]
    boost: Optional[int]
    members: Optional[tuple[Coalition, ...]]


class Decomposition(Record):
    """An intersection of weighted games equivalent to the rewritten input.

    ``games`` intersect to the input; ``frontier`` lists the coalitions
    that the pre-veto stage over-admits, one veto game each.  ``gap`` is
    populated by the union rewrite and None for the veto-only refinement.
    """

    __slots__ = ("games", "gap", "frontier")
    games: tuple[WeightedGame, ...]
    gap: Optional[GapSummary]
    frontier: tuple[Coalition, ...]

    @property
    def method(self) -> str:
        if self.gap is None:
            return METHOD_VETO_FENCE
        return METHOD_FIRST_GAME if self.gap.count == 0 else METHOD_CORE_BOOST

    def common_core_players(self) -> tuple[int, ...]:
        if self.gap is None:
            return ()
        return tuple(self.gap.common_core.members())


def veto_game(blocked: Coalition) -> WeightedGame:
    """The quota-1 game whose losing coalitions are exactly subsets of ``blocked``.

    Every player outside ``blocked`` carries weight 1, so a coalition loses
    iff it avoids all of them.  ``blocked`` must not be the full player
    set: that would leave no player with weight.
    """
    m, t = blocked.mask, _VETO_BYTES
    if m == (1 << blocked.n) - 1:
        raise ValueError("cannot veto the grand coalition: no player would carry weight")
    weights = t[m & 255] + t[m >> 8 & 255] + t[m >> 16 & 255] + t[m >> 24]
    return WeightedGame(weights[: blocked.n], 1)


def _walk_order(first: WeightedGame, second: WeightedGame, players) -> tuple[list, ...]:
    """``players`` by descending ``first``-weight, their weights in both games, suffix sums."""
    order = sorted(players, key=lambda j: -first.weights[j])
    w, v = [first.weights[j] for j in order], [second.weights[j] for j in order]
    return order, w, v, *([sum(x[i:]) for i in range(len(x) + 1)] for x in (w, v))


def gap_summary(first: WeightedGame, second: WeightedGame) -> GapSummary:
    """Exact survey of the coalitions losing ``first`` but winning ``second``.

    A walk over the players by descending ``first``-weight drops a branch
    that wins ``first`` or cannot win ``second``, and counts one that wins
    ``second`` at once if no completion wins ``first`` (2^remaining) or in
    the tail (one bisection): its empty completion gives its mask to the
    core and its weight to the minimum.  With the core empty, a tail branch
    that cannot win ``first`` is counted too.  Counted branches are listed
    at the end, given a core and a count within ``GAP_MEMBER_CAP``.
    """
    n, q1, q2 = check_universe(first.n, second.n), first.quota, second.quota
    order, w, v, w_rest, v_rest = _walk_order(first, second, range(n))
    tail = max(0, n - _TAIL_BITS)
    # Per tail suffix i and game, the subsets of order[i:] as sorted (sum, mask) pairs.
    subsets = {n: ([(0, 0)], [(0, 0)])}
    for i in range(n - 1, tail - 1, -1):
        subsets[i] = tuple(
            sorted(pairs + [(s + x[i], m | 1 << order[i]) for s, m in pairs])
            for pairs, x in zip(subsets[i + 1], (w, v))
        )
    count, core, lightest, branches, stack = 0, (1 << n) - 1, None, [], [(0, 0, 0, 0)]
    while stack:
        i, mask, x, y = stack.pop()
        if x >= q1 or y + v_rest[i] < q2:
            continue
        loses = x + w_rest[i] < q1
        if y >= q2 and (loses or i >= tail):
            count += 1 << (n - i) if loses else bisect_left(subsets[i][0], (q1 - x,))
            core &= mask
            lightest = x if lightest is None else min(lightest, x)
        elif loses and i >= tail and not core:
            count += (1 << (n - i)) - bisect_left(subsets[i][1], (q2 - y,))
        else:
            stack += [(i + 1, mask | 1 << order[i], x + w[i], y + v[i]), (i + 1, mask, x, y)]
            continue
        if count <= GAP_MEMBER_CAP:
            branches.append((i, mask, x))
    masks, listed = [], count <= GAP_MEMBER_CAP and core != 0
    for i, mask, x in branches if listed else ():
        # Above the tail a branch is whole: all of order[i:tail] times all of the tail.
        # With a core, every branch wins ``second``, so its ``first``-losers are listed.
        heads = [mask]
        for j in order[i:tail]:
            heads += [h | 1 << j for h in heads]
        ws = subsets[max(i, tail)][0]
        masks += [h | m for h in heads for _, m in ws[: bisect_left(ws, (q1 - x,))]]
    members = tuple(Coalition(m, n) for m in sorted(masks)) if listed else None
    min_weight = lightest if core else None
    boost = None if min_weight is None else q1 - min_weight
    return GapSummary(count, Coalition(core, n), min_weight, boost, members)


def _frontier(first: WeightedGame, second: WeightedGame, core: Coalition, boost: int) -> list[int]:
    """Ascending masks of the maximal coalitions that win every boosted copy but lose the union.

    Each is the core and some of the other players (module docstring).  The
    walk drops a branch once the last player it left out can no longer be
    made to win ``first`` or ``second`` by adding it.
    """
    order, w, v, w_rest, v_rest = _walk_order(first, second, set(range(first.n)) - set(core))
    a, b = first.quota - first.weight_sum(core), second.quota - second.weight_sum(core)
    found, stack = [], [(0, core.mask, 0, 0, ())]
    while stack:
        i, mask, x, y, out = stack.pop()
        if x >= a or y >= b or x + w_rest[i] < a - boost:
            continue
        if out and x + w_rest[i] + w[out[-1]] < a and y + v_rest[i] + v[out[-1]] < b:
            continue
        if i < len(order):
            stack += [(i + 1, mask, x, y, out + (i,))]
            stack += [(i + 1, mask | 1 << order[i], x + w[i], y + v[i], out)]
        elif all(x + w[j] >= a or y + v[j] >= b for j in out):
            found.append(mask)
    return sorted(found)


def _checked_frontier(up: GameExpr, down: GameExpr, masks: list[int]) -> list[Coalition]:
    """Re-check ``masks``: each wins ``up``, loses ``down``, and is maximal with both.

    ``up`` is a weighted game or an AND of them, ``down`` any expression.
    Every leaf weighs all masks once, through its four 256-entry byte-sum
    tables.  An extension still wins ``up``, which is monotone, so only
    ``down`` is folded: into the players j for which m | 1 << j still loses
    it, so m loses ``down`` iff they include m, and is maximal iff they hold
    no other player.  A leaf that m lacks d > 0 of keeps losing iff j is in m
    or w_j < d, a prefix of its players by weight; an AND keeps losing iff
    some child does, an OR iff every child does.
    """
    n = check_universe(up.n, down.n)
    split = [(m & 255, m >> 8 & 255, m >> 16 & 255, m >> 24) for m in masks]

    def lacking(g: WeightedGame) -> list[int]:
        t0, t1, t2, t3 = (subset_sums(g.weights[k : k + 8]) for k in range(0, MAX_PLAYERS, 8))
        return [g.quota - t0[b0] - t1[b1] - t2[b2] - t3[b3] for b0, b1, b2, b3 in split]

    def keeps_losing(g: WeightedGame) -> list[int]:
        order = sorted(range(n), key=g.weights.__getitem__)
        ws, prefix = [g.weights[j] for j in order], [0, *accumulate(1 << j for j in order)]
        return [prefix[bisect_left(ws, d)] | m if d > 0 else 0 for m, d in zip(masks, lacking(g))]

    def join(op):
        return lambda parts: [reduce(op, row) for row in zip(*parts)]

    kept = down.fold(keeps_losing, join(or_), join(and_))
    lacks_up = any(max(lacking(g), default=0) > 0 for g in up.leaves())
    if lacks_up or any(k & m != m for m, k in zip(masks, kept)):
        raise AssertionError("a listed mask failed the predicate re-check")
    if any(k & ~m for m, k in zip(masks, kept)):
        raise AssertionError("a listed mask has a satisfying one-player extension")
    return [Coalition(m, n) for m in masks]


def _boosted_games(base: WeightedGame, core: Coalition, boost: int) -> tuple[WeightedGame, ...]:
    games = []
    for k in core.members():
        weights = list(base.weights)
        weights[k] += boost
        games.append(WeightedGame(tuple(weights), base.quota))
    return tuple(games)


def union_as_intersection(first: WeightedGame, second: WeightedGame) -> Decomposition:
    """Rewrite ``first OR second`` as an intersection of weighted games.

    When the gap set is empty the union already equals ``first`` and is
    returned alone.  Otherwise each common-core player gets one copy of
    ``first`` with its weight boosted; the intersection of those copies
    admits every union winner, and its excess winners (the frontier) are
    removed by one veto game each.

    Raises
    ------
    EmptyCoreError
        When the gap coalitions share no player, carrying the gap summary
        for diagnostics.
    """
    gap = gap_summary(first, second)
    if gap.count == 0:
        return Decomposition((first,), gap, ())
    if gap.common_core.mask == 0:
        raise EmptyCoreError(gap)
    assert gap.boost is not None
    boosted = _boosted_games(first, gap.common_core, gap.boost)
    masks = _frontier(first, second, gap.common_core, gap.boost)
    frontier = _checked_frontier(all_of(*boosted), any_of(first, second), masks)
    games = boosted + tuple(veto_game(s) for s in frontier)
    return Decomposition(games, gap, tuple(frontier))


def analyze_rule(rule: EuRule, swap_roles: bool = False) -> Decomposition:
    """Rewrite ``count AND (population OR veto)``; ``swap_roles`` boosts the veto game.

    The count game leads the emitted games, so ``len(games)`` is the bound.
    Raises ``EmptyCoreError`` as ``union_as_intersection`` does.
    """
    first, second = rule.population_game, rule.veto_game
    if swap_roles:
        first, second = second, first
    dec = union_as_intersection(first, second)
    return Decomposition((rule.count_game,) + dec.games, dec.gap, dec.frontier)


def refine_by_vetoes(target: GameExpr, candidate: GameExpr) -> Decomposition:
    """Cut a winning-superset ``candidate`` down to ``target`` with veto games.

    ``candidate`` must be an intersection of weighted games (a single game
    or an AND-only tree) admitting every winner of ``target``; the result
    appends one veto game per inclusion-maximal coalition that wins
    ``candidate`` but loses ``target``.

    Raises
    ------
    ContainmentError
        When some coalition wins ``target`` but loses ``candidate``.
    ValueError
        When ``candidate`` contains a union node.
    """
    if not candidate.fold(lambda g: True, all, lambda parts: False):
        raise ValueError("candidate must be a single game or an AND-only tree")
    from . import sweep

    # W(target) is contained in W(candidate) iff target == target AND candidate.
    check = sweep.equivalent(target, all_of(target, candidate))
    if not check:
        assert check.counterexample is not None
        raise ContainmentError(check.counterexample)
    frontier = _checked_frontier(candidate, target, sweep.maximal_satisfying(candidate, target))
    games = tuple(candidate.leaves()) + tuple(veto_game(s) for s in frontier)
    return Decomposition(games, None, tuple(frontier))

