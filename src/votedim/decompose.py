"""Rewriting boolean combinations of weighted games as intersections.

The central operation turns a union of two weighted games into an
equivalent intersection of weighted games.  The union fails to be weighted
exactly because of its *gap set*: coalitions that lose the first game but
win the second.  When every gap coalition contains a common core of
players, boosting each core player's weight by a fixed amount yields games
that admit all gap coalitions; the coalitions the boosted intersection
over-admits are then fenced off one veto game apiece.

No 2^n-bit table is built.  The gap survey streams ``~first & second`` a
block of 2^22 coalitions at a time and folds its count, core, minimum
weight and members.  With boost u >= 0, quota q and weights w, the boosted
intersection wins exactly ``[w(S) >= q] or ([w(S) >= q - u] and core ⊆ S)``,
so the over-admitted coalitions are ``core ∪ T`` for the T over the
r = n - |core| other players with ``w1(T) >= q1 - u - w1(core)``,
``w1(T) < q1 - w1(core)`` and ``w2(T) < q2 - w2(core)``: three win tables
of 2^r bits, whose maximal members give the frontier.  The shortcut only
finds the frontier: the emitted games are still the boosted copies and the
vetoes, and ``verify`` folds every one of them leaf by leaf over all 2^n
coalitions.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .games import AND, Coalition, GameExpr, Node, WeightedGame, all_of, any_of, check_universe
from . import sweep
from .data import EuRule

# Gap-set members are materialized only up to this count; the summary
# statistics (count, core, minimum weight) are exact regardless.
GAP_MEMBER_CAP = 10**6

METHOD_CORE_BOOST = "core-boost"
METHOD_VETO_FENCE = "veto-fence"
METHOD_FIRST_GAME = "first-game"
METHOD_INAPPLICABLE = "inapplicable"


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


@dataclass(frozen=True)
class GapSummary:
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
        ``count`` exceeded the materialization cap.
    """

    count: int
    common_core: Coalition
    min_weight: Optional[int]
    boost: Optional[int]
    members: Optional[tuple[Coalition, ...]]

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"gap count must be >= 0, got {self.count}")
        if self.count > 0:
            if self.common_core.mask and (self.boost is None or self.boost < 1):
                raise ValueError(
                    f"a gap with a non-empty core must carry a boost >= 1, got {self.boost}"
                )
            if self.members is not None:
                core = self.common_core.mask
                for s in self.members:
                    if core & ~s.mask:
                        raise ValueError(
                            f"common core is not contained in gap member {s}"
                        )


@dataclass(frozen=True)
class Decomposition:
    """An intersection of weighted games equivalent to the rewritten input.

    ``games`` intersect to the input; ``frontier`` lists the coalitions
    that the pre-veto stage over-admits, one veto game each.  ``gap`` is
    populated by the union rewrite and None for the veto-only refinement.
    """

    games: tuple[WeightedGame, ...]
    gap: Optional[GapSummary]
    frontier: tuple[Coalition, ...]
    method: str

    def __post_init__(self) -> None:
        if not self.games:
            raise ValueError("a decomposition must contain at least one game")
        if self.method not in (METHOD_CORE_BOOST, METHOD_VETO_FENCE, METHOD_FIRST_GAME):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.method == METHOD_CORE_BOOST:
            assert self.gap is not None
            core_size = len(self.common_core_players())
            if len(self.games) != core_size + len(self.frontier):
                raise ValueError(
                    "core-boost must emit one game per core player plus one "
                    f"per frontier coalition: {len(self.games)} != "
                    f"{core_size} + {len(self.frontier)}"
                )

    def common_core_players(self) -> tuple[int, ...]:
        if self.gap is None:
            return ()
        return tuple(self.gap.common_core.members())

    def intersection(self) -> GameExpr:
        """The emitted games as a single AND expression."""
        if len(self.games) == 1:
            return self.games[0]
        return all_of(*self.games)


def veto_game(blocked: Coalition) -> WeightedGame:
    """The quota-1 game whose losing coalitions are exactly subsets of ``blocked``.

    Every player outside ``blocked`` carries weight 1, so a coalition loses
    iff it avoids all of them.  ``blocked`` must not be the full player
    set: that would leave no player with weight.
    """
    if blocked.mask == Coalition.grand(blocked.n).mask:
        raise ValueError("cannot veto the grand coalition: no player would carry weight")
    weights = tuple(1 - (blocked.mask >> j & 1) for j in range(blocked.n))
    return WeightedGame(weights, 1)


def gap_summary(first: WeightedGame, second: WeightedGame) -> GapSummary:
    """Exact survey of the coalitions losing ``first`` but winning ``second``.

    The gap table ``~first & second`` is streamed a block at a time and
    never held whole.  The fold counts each block and, while the core is
    non-empty, intersects the block's members into it and weighs them.  It
    keeps the non-zero gap words of each block while the count stays within
    ``GAP_MEMBER_CAP`` and lists their members at the end, so once the core
    (which only shrinks) is empty and the count is past the cap, a block is
    only counted.
    """
    n = check_universe(first.n, second.n)
    count, core, base = 0, (1 << n) - 1, 0
    lightest: list[int] = []
    listed: Optional[list[tuple[np.ndarray, np.ndarray]]] = []
    for gap, wins in zip(sweep.expr_blocks(first), sweep.expr_blocks(second)):
        gap = np.bitwise_and(np.invert(gap, out=gap), wins, out=gap)
        nonzero = np.flatnonzero(gap)
        words = gap[nonzero]
        count += int(np.bitwise_count(words).sum(dtype=np.int64))
        if count > GAP_MEMBER_CAP:
            listed = None
        elif listed is not None:
            listed.append((words, nonzero + base))
        if core and nonzero.size:
            core &= sweep.players_in_all(gap, n, base)
            # An empty core makes the rewrite inapplicable: no boost is priced.
            if core:
                lightest.append(sweep.min_member_weight(first, gap, base))
        base += gap.size
    if count == 0:
        return GapSummary(0, Coalition(core, n), None, None, ())
    min_weight = boost = members = None
    if core:
        min_weight = min(lightest)
        boost = first.quota - min_weight
    if listed is not None:
        words, index = (np.concatenate(part) for part in zip(*listed))
        # Bit b of listed word i is coalition index[i] * 64 + b.
        bits = np.concatenate(list(sweep.member_chunks(words, np.arange(words.size))))
        masks = (index[bits >> 6] << 6) | (bits & 63)
        members = tuple(Coalition(m, n) for m in masks.tolist())
    return GapSummary(count, Coalition(core, n), min_weight, boost, members)


def _sub_cube_winners(game: WeightedGame, quota: int, rest: list[int]) -> sweep.Table:
    """Win table, over the players in ``rest``, of the T with w(core ∪ T) >= quota.

    The core is every player outside ``rest``; bit i of T is player ``rest[i]``.
    """
    weights = tuple(game.weights[j] for j in rest)
    quota -= game.total_weight - sum(weights)
    if 0 < quota <= sum(weights):
        return sweep.win_table(WeightedGame(weights, quota))
    table = sweep.full_table(len(rest))
    return table if quota <= 0 else sweep.complement(table, len(rest))


def _boosted_games(
    base: WeightedGame, core: Coalition, boost: int
) -> tuple[WeightedGame, ...]:
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

    The over-admitted set comes from the closed form (module docstring) on
    the sub-cube of the non-core players; its maximal members, re-checked
    with one probe against the unfused games, are the frontier.

    Raises
    ------
    EmptyCoreError
        When the gap coalitions share no player, carrying the gap summary
        for diagnostics.
    """
    gap = gap_summary(first, second)
    if gap.count == 0:
        return Decomposition((first,), gap, (), METHOD_FIRST_GAME)
    if gap.common_core.mask == 0:
        raise EmptyCoreError(gap)
    assert gap.boost is not None
    boosted = _boosted_games(first, gap.common_core, gap.boost)

    # Over-admitted: core ∪ T reaching q - u but losing first and second.
    rest = [j for j in range(first.n) if j not in gap.common_core]
    sub = _sub_cube_winners(first, first.quota - gap.boost, rest)
    sub &= sweep.complement(_sub_cube_winners(first, first.quota, rest), len(rest))
    sub &= sweep.complement(_sub_cube_winners(second, second.quota, rest), len(rest))
    # Scatter T back to full masks; rest is ascending, so the order is kept.
    bits = sweep.maximal_members(sub, len(rest))
    masks = np.full(bits.size, gap.common_core.mask, dtype=np.int64)
    for i, j in enumerate(rest):
        masks |= (bits >> i & 1) << j
    up = boosted[0] if len(boosted) == 1 else all_of(*boosted)
    frontier = sweep.checked_maximal(up, any_of(first, second), masks)
    games = boosted + tuple(veto_game(s) for s in frontier)
    return Decomposition(games, gap, tuple(frontier), METHOD_CORE_BOOST)


@dataclass(frozen=True)
class RuleAnalysis:
    """``games`` (count game first) intersect to the rule; none when ``inapplicable``."""

    gap: GapSummary
    games: tuple[WeightedGame, ...]
    frontier: tuple[Coalition, ...]
    method: str

    @property
    def bound(self) -> Optional[int]:
        return None if self.method == METHOD_INAPPLICABLE else len(self.games)


def analyze_rule(rule: EuRule, swap_roles: bool = False) -> RuleAnalysis:
    """Rewrite ``count AND (population OR veto)``; ``swap_roles`` boosts the veto game."""
    first, second = rule.population_game, rule.veto_game
    if swap_roles:
        first, second = second, first
    try:
        dec = union_as_intersection(first, second)
    except EmptyCoreError as e:
        return RuleAnalysis(e.gap, (), (), METHOD_INAPPLICABLE)
    assert dec.gap is not None
    return RuleAnalysis(dec.gap, (rule.count_game,) + dec.games, dec.frontier, dec.method)


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
    if not _and_only(candidate):
        raise ValueError("candidate must be a single game or an AND-only tree")
    # W(target) is contained in W(candidate) iff target == target AND candidate.
    check = sweep.equivalent(target, all_of(target, candidate))
    if not check:
        assert check.counterexample is not None
        raise ContainmentError(check.counterexample)
    frontier = sweep.maximal_satisfying(candidate, target)
    games = tuple(candidate.leaves()) + tuple(veto_game(s) for s in frontier)
    return Decomposition(games, None, tuple(frontier), METHOD_VETO_FENCE)


def _and_only(expr: GameExpr) -> bool:
    if isinstance(expr, WeightedGame):
        return True
    assert isinstance(expr, Node)
    return expr.op == AND and all(_and_only(c) for c in expr.children)
