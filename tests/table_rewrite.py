"""The table-based union rewrite, frozen as the reference for the walked one.

This is ``decompose.union_as_intersection`` as it stood before the gap
survey was streamed and the frontier moved to the core's sub-cube: the gap
is surveyed from two whole 2^n-bit win tables, and the over-admitted set is
cut from the complement of the first game with one more whole table at the
lowered quota q - u.  The only edits are that the frontier is re-checked
by ``decompose._checked_frontier``, which takes the (up, down) pair and
the maximal members of the over-admitted table as a list of masks
(``sweep.checked_maximal``, which took a predicate and the table and
later the pair and an array, is gone), that ``Decomposition`` no
longer takes a method tag: it derives the tag from the gap, and that
``sweep.players_in_all`` and ``sweep.min_member_weight`` take the table's
run of non-zero words and their indices (``oracles.run_of``) instead of
the table, that the maximal members are listed through
``sweep.member_array``, as ``sweep.maximal_members`` is gone, and that the
boost is read from summed weights, as ``WeightedGame.total_weight`` is gone.
"""

from typing import Optional

import oracles
from votedim import decompose, sweep
from votedim.decompose import (
    Decomposition,
    EmptyCoreError,
    GapSummary,
    veto_game,
)
from votedim.games import Coalition, WeightedGame, all_of, any_of


def keep_supersets(table: sweep.Table, mask: int) -> sweep.Table:
    """Clear every coalition that misses a player of ``mask``, in place."""
    for j in range(mask.bit_length()):
        if mask >> j & 1:
            if j < 6:
                table &= sweep._pattern(j, True)
            else:
                sweep._pairs(table, j)[:, 0] = 0
    return table


def summarize_gap(first: WeightedGame, table: sweep.Table) -> GapSummary:
    """Gap statistics read from the gap table, which is left unchanged."""
    n = first.n
    count = table.bit_count()
    run = oracles.run_of(table)
    core = Coalition(sweep.players_in_all(*run, n), n)
    if count == 0:
        return GapSummary(0, core, None, None, ())
    min_weight = boost = None
    if core.mask:
        min_weight = sweep.min_member_weight(first, *run)
        assert min_weight is not None
        boost = first.quota - min_weight
    members: Optional[tuple[Coalition, ...]] = None
    if count <= decompose.GAP_MEMBER_CAP:
        members = tuple(Coalition(m, n) for m in sweep.table_members(table))
    return GapSummary(count, core, min_weight, boost, members)


def union_as_intersection(first: WeightedGame, second: WeightedGame) -> Decomposition:
    """``first OR second`` as an intersection of weighted games, from whole tables."""
    if first.n != second.n:
        raise ValueError(f"player counts differ: {first.n} vs {second.n}")
    n = first.n
    sat = sweep.complement(sweep.win_table(first), n)
    gap_table = sweep.win_table(second)
    gap_table &= sat
    gap = summarize_gap(first, gap_table)
    if gap.count == 0:
        return Decomposition((first,), gap, ())
    if gap.common_core.mask == 0:
        raise EmptyCoreError(gap)
    assert gap.boost is not None
    boosted = decompose._boosted_games(first, gap.common_core, gap.boost)
    boost = sum(boosted[0].weights) - sum(first.weights)
    assert boost >= 0

    # Over-admitted: lose first and second, reach q - u, contain the core.
    sat ^= gap_table
    del gap_table
    if first.quota > boost:
        sat &= sweep.win_table(WeightedGame(first.weights, first.quota - boost))
    keep_supersets(sat, gap.common_core.mask)
    maximal = sweep.member_array(sweep._maximal_bits(sat, n)).tolist()
    frontier = decompose._checked_frontier(all_of(*boosted), any_of(first, second), maximal)
    games = boosted + tuple(veto_game(s) for s in frontier)
    return Decomposition(games, gap, tuple(frontier))
