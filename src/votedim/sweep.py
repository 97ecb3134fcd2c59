"""Exhaustive coalition sweeps over all 2^n coalitions.

The engine's working representation is a *win table*: a little-endian
``uint64`` array of max(1, 2^n / 64) words whose bit m is set iff the
coalition with bit-mask m wins (for n < 6 one word, unused high bits zero).
A game expression is folded one block of 2^22 coalitions (512 KB) at a
time, in ascending order: ``equivalent`` compares two folds block by block
and stops at the first block that differs, the gap survey streams blocks
through ``expr_blocks``, and ``expr_table`` fills a whole table block by
block with the same fold.  A weighted leaf's block is gathered in rows
(Horowitz & Sahni's sorted halves): the low 11 players' sums are sorted
once into 2^11 + 1 patterns "sorted rank >= r" (0.5 MB per distinct leaf),
and a binary search picks each row's pattern; the row thresholds come from
two small partial-sum tables, one for the row bits inside the block and one
for the block index.  The quota-1 leaves under an AND share one
down-closure per block.  Closures and the maximality thinning of
``maximal_members`` are the bitset subset-sum (zeta) transform: halves of
a ``reshape(-1, 2, 2^(j-6))`` view for player j >= 6, in-word shifts under
a constant mask for j < 6.  Both veto fences list their frontier with
``maximal_members`` and re-check it with ``checked_maximal``, one probe of
the listed masks and their one-player extensions.  Batches of single
coalitions (``evaluate_many`` in that probe, ``weights_of`` in
``min_member_weight``) read their weights off two partial-sum tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .games import AND, Coalition, GameExpr, Node, WeightedGame, check_universe

# Win table rows: 2^11 coalitions, whole words once n >= 6.
_RANK_BITS = 11
# Coalitions per fold block: 2^22, i.e. 64 K words.  At least 6 (whole
# words); rows shrink to the block when it is smaller than a row.
_BLOCK_BITS = 22
# Table words unpacked at a time when listing members.
_MEMBER_WORDS = 1 << 15

class Table(np.ndarray):
    """A win table: ``uint64`` words, bit m of the array = coalition m."""

    def bit_count(self) -> int:
        """Number of member coalitions (the table's population count)."""
        return int(np.bitwise_count(self.view(np.ndarray)).sum(dtype=np.int64))


def _empty(n: int) -> Table:
    return np.zeros(max(1, (1 << n) >> 6), dtype="<u8").view(Table)


def full_table(n: int) -> Table:
    """Table with every coalition winning."""
    table = _empty(n)
    table[:] = (1 << min(1 << n, 64)) - 1
    return table


def complement(table: Table, n: int) -> Table:
    """Flip every coalition in place; a one-word table keeps its high bits zero."""
    np.invert(table, out=table)
    if n < 6:
        table &= full_table(n)
    return table


def _pattern(j: int, present: bool) -> np.uint64:
    """In-word mask of the bit positions where player j < 6 is present (or absent)."""
    half = 1 << j
    period = ((1 << half) - 1) << half
    word = period * (((1 << 64) - 1) // ((1 << (2 * half)) - 1))
    return np.uint64(word if present else word ^ ((1 << 64) - 1))


def _pairs(table: Table, j: int) -> np.ndarray:
    """For player j >= 6: view [:, 0] holds the masks without j, [:, 1] with j."""
    return table.reshape(-1, 2, 1 << (j - 6))


def subset_sums(weights: Iterable[int]) -> np.ndarray:
    """Partial-sum table: entry m = total weight of the players with bits in m."""
    sums = np.zeros(1, dtype=np.int64)
    for w in weights:
        sums = np.concatenate([sums, sums + np.int64(w)])
    return sums


def _blocked_mask(game: WeightedGame) -> int:
    return sum(1 << j for j, w in enumerate(game.weights) if w == 0)


def _block_shape(n: int) -> tuple[int, int]:
    """Blocks of an n-player table and the words in each."""
    bits = min(n, _BLOCK_BITS)
    return 1 << (n - bits), max(1, (1 << bits) >> 6)


# Block k of a table, written into (and returned as) a buffer of one block's words.
BlockFill = Callable[[int, np.ndarray], np.ndarray]


def _weighted_fill(game: WeightedGame) -> BlockFill:
    """Block fill of a weighted game's win table, gathered in rows.

    A row holds the 2^lo coalitions that share their players above lo = 11
    (or the block, or n, if smaller).  Row h of block k wins where low_sum
    >= quota - w(block index k) - w(row bits of h inside the block), a
    suffix of the sorted low sums: pattern r holds the low masks of sorted
    rank >= r.
    """
    bits = min(game.n, _BLOCK_BITS)
    lo = min(bits, _RANK_BITS)
    low_sums = subset_sums(game.weights[:lo])
    order = np.argsort(low_sums, kind="stable")
    sorted_low = low_sums[order]
    patterns = np.zeros((order.size + 1, max(1, order.size >> 6)), dtype="<u8")
    patterns[np.arange(order.size), order >> 6] = np.uint64(1) << (order & 63).astype("<u8")
    np.bitwise_or.accumulate(patterns[::-1], axis=0, out=patterns[::-1])
    rows = subset_sums(game.weights[lo:bits])
    blocks = subset_sums(game.weights[bits:])
    quota = np.int64(game.quota)

    def fill(k: int, out: np.ndarray) -> np.ndarray:
        # side="left": the first rank whose sum reaches the threshold, ties included.
        ranks = np.searchsorted(sorted_low, (quota - blocks[k]) - rows, side="left")
        # mode="clip" writes straight into ``out``; "raise" would buffer a copy.
        np.take(patterns, ranks, axis=0, out=out.reshape(ranks.size, -1), mode="clip")
        return out

    return fill


def _veto_fill(blocked: list[int], n: int) -> BlockFill:
    """Block fill of the coalitions that are not a subset of any ``blocked`` mask.

    A coalition in block k is a subset of a mask iff k's bits are among the
    mask's bits above the block and its own bits are among the mask's low
    bits: the block's losers are the down-closure of those low bits.
    """
    bits = min(n, _BLOCK_BITS)
    masks = np.array(blocked, dtype=np.int64)
    high, low = masks >> bits, masks & ((1 << bits) - 1)

    def fill(k: int, out: np.ndarray) -> np.ndarray:
        out[:] = 0
        m = low[(high & k) == k]
        np.bitwise_or.at(out, m >> 6, np.uint64(1) << (m & 63).astype("<u8"))
        return complement(down_closure(out, bits), bits)

    return fill


def _fold(expr: GameExpr, leaves: dict[WeightedGame, BlockFill]) -> BlockFill:
    """Block fill of an expression; ``leaves`` shares one gather per distinct game."""
    if isinstance(expr, WeightedGame):
        if expr not in leaves:
            leaves[expr] = _weighted_fill(expr)
        return leaves[expr]
    assert isinstance(expr, Node)
    # A quota-1 leaf wins iff the coalition holds a positive-weight player,
    # so it loses exactly on the subsets of its zero-weight players.  All
    # such leaves under one AND share a single down-closure.
    children: list[BlockFill] = []
    blocked: list[int] = []
    for c in expr.children:
        if expr.op == AND and isinstance(c, WeightedGame) and c.quota == 1:
            blocked.append(_blocked_mask(c))
        else:
            children.append(_fold(c, leaves))
    if blocked:
        children.insert(0, _veto_fill(blocked, expr.n))
    combine = np.bitwise_and if expr.op == AND else np.bitwise_or
    scratch = np.empty(_block_shape(expr.n)[1], dtype="<u8")

    def fill(k: int, out: np.ndarray) -> np.ndarray:
        children[0](k, out)
        for child in children[1:]:
            combine(out, child(k, scratch), out=out)
        return out

    return fill


def _blocks(fill: BlockFill, n: int, table: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
    """The blocks of an n-player table in ascending order.

    Each block is filled straight into its slice of ``table`` when given,
    else into one reused buffer: a block is then valid only until the next
    one is drawn.
    """
    count, words = _block_shape(n)
    buffer = np.empty(words, dtype="<u8") if table is None else None
    for k in range(count):
        yield fill(k, table[k * words : (k + 1) * words] if buffer is None else buffer)


def expr_blocks(expr: GameExpr) -> Iterator[np.ndarray]:
    """The expression's win table a block of 2^22 coalitions at a time, in one reused buffer."""
    return _blocks(_fold(expr, {}), expr.n)


def expr_table(expr: GameExpr) -> Table:
    """Win table of a boolean game expression, filled block by block."""
    table = _empty(expr.n)
    for _ in _blocks(_fold(expr, {}), expr.n, table.view(np.ndarray)):
        pass
    return table


def win_table(game: WeightedGame) -> Table:
    """The full win table of a weighted game."""
    return expr_table(game)


def _spread(src: Table, dst: Table, n: int, down: bool) -> Table:
    """OR into ``dst`` each member of ``src`` with one player dropped (or added).

    With ``dst is src`` each player's step sees the earlier ones, which
    compounds into the whole down (or up) closure.
    """
    scratch = np.empty_like(src)
    shift = np.right_shift if down else np.left_shift
    for j in range(n):
        if j < 6:
            np.bitwise_and(src, _pattern(j, down), out=scratch)
            dst |= shift(scratch, 1 << j, out=scratch)
        else:
            to = 0 if down else 1
            _pairs(dst, j)[:, to] |= _pairs(src, j)[:, 1 - to]
    return dst


def down_closure(table: Table, n: int) -> Table:
    """Add every subset of every member, in place."""
    return _spread(table, table, n, down=True)


def up_closure(table: Table, n: int) -> Table:
    """Add every superset of every member, in place."""
    return _spread(table, table, n, down=False)


def member_chunks(
    words: np.ndarray, nonzero: np.ndarray, base: int = 0
) -> Iterator[np.ndarray]:
    """Member masks in the ``nonzero`` words, ascending, a chunk at a time.

    ``words`` is a table or a run of its words starting at word ``base``.
    """
    for start in range(0, nonzero.size, _MEMBER_WORDS):
        index = nonzero[start : start + _MEMBER_WORDS]
        bits = np.unpackbits(words[index].view(np.uint8), bitorder="little")
        pos = np.flatnonzero(bits)
        yield ((index[pos >> 6] + base) << 6) | (pos & 63)


def member_array(table: Table) -> np.ndarray:
    """Set-bit indices (coalition masks) of a table, ascending, in one ``int64`` buffer."""
    nonzero = np.flatnonzero(table)
    members = np.empty(int(np.bitwise_count(table[nonzero]).sum(dtype=np.int64)), np.int64)
    end = 0
    for chunk in member_chunks(table, nonzero):
        members[end : end + chunk.size] = chunk
        end += chunk.size
    return members


def table_members(table: Table) -> list[int]:
    """Set-bit indices (coalition masks) of a table, ascending."""
    return member_array(table).tolist()


def players_in_all(table: Table, n: int, base: int = 0) -> int:
    """Bit-mask of players present in every member coalition of the table.

    ``table`` is a table or a run of its words starting at word ``base``.
    The intersection over an empty table is the whole player set.
    """
    nonzero = np.flatnonzero(table)
    if nonzero.size == 0:
        return (1 << n) - 1
    # Players 0..5 are bits inside a word, players 6.. are bits of its index.
    union_word = np.bitwise_or.reduce(table.view(np.ndarray)[nonzero])
    common_index = int(np.bitwise_and.reduce(nonzero + base))
    mask = (common_index << 6) & ((1 << n) - 1)
    for j in range(min(n, 6)):
        if not union_word & _pattern(j, False):
            mask |= 1 << j
    return mask


def weights_of(game: WeightedGame, masks: np.ndarray) -> np.ndarray:
    """Weight of each coalition mask, read off the two half-universe partial sums."""
    lo = game.n // 2
    low = subset_sums(game.weights[:lo])[masks & ((1 << lo) - 1)]
    return low + subset_sums(game.weights[lo:])[masks >> lo]


def min_member_weight(game: WeightedGame, table: Table, base: int = 0) -> Optional[int]:
    """Minimum weight (under ``game``) over the coalitions in the table (or run at ``base``)."""
    chunks = member_chunks(table, np.flatnonzero(table), base)
    return min((int(weights_of(game, m).min()) for m in chunks), default=None)


def _evaluate(expr: GameExpr, masks: np.ndarray) -> np.ndarray:
    # Recursing here, not through evaluate_many, keeps perfbench/traced.py's
    # wrapper of evaluate_many at one span per batch.
    if isinstance(expr, WeightedGame):
        return weights_of(expr, masks) >= expr.quota
    assert isinstance(expr, Node)
    parts = [_evaluate(c, masks) for c in expr.children]
    return (np.logical_and if expr.op == AND else np.logical_or).reduce(parts)


def evaluate_many(expr: GameExpr, masks: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of an expression on an array of coalition masks."""
    return _evaluate(expr, np.asarray(masks, dtype=np.int64))


# --- public sweep operations ------------------------------------------------


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    counterexample: Optional[Coalition]

    def __bool__(self) -> bool:
        return self.equal


def equivalent(a: GameExpr, b: GameExpr) -> EquivalenceResult:
    """Exhaustively compare two expressions over all 2^n coalitions.

    The two folds run block by block and stop at the first block that
    differs.  Returns the smallest differing coalition mask (numeric order)
    if any.
    """
    check_universe(a.n, b.n)
    leaves: dict[WeightedGame, BlockFill] = {}
    pairs = zip(_blocks(_fold(a, leaves), a.n), _blocks(_fold(b, leaves), b.n))
    for k, (left, right) in enumerate(pairs):
        diff = np.bitwise_xor(left, right, out=left)
        nonzero = np.flatnonzero(diff)
        if nonzero.size:
            word = int(diff[nonzero[0]])
            lowest = ((k * diff.size + int(nonzero[0])) << 6) + (word & -word).bit_length() - 1
            return EquivalenceResult(False, Coalition(lowest, a.n))
    return EquivalenceResult(True, None)


def _maximal_bits(sat: Table, n: int) -> Table:
    # In place: keep the members none of whose one-player extensions is a member.
    bad = _spread(sat, np.zeros_like(sat), n, down=True)
    np.invert(bad, out=bad)
    sat &= bad
    return sat


def maximal_members(table: Table, n: int) -> np.ndarray:
    """Ascending masks of the members with no member one-player extension; thins ``table``."""
    return member_array(_maximal_bits(table, n))


def checked_maximal(up: GameExpr, down: GameExpr, masks: np.ndarray) -> list[Coalition]:
    """The ascending ``masks``, checked maximal among coalitions winning ``up``, losing ``down``.

    One probe checks that every mask satisfies and that none of its
    one-player extensions does.  One step suffices because both games are
    monotone: an extension still wins ``up``, so it fails only by winning
    ``down``, which every further superset inherits.
    """
    n = check_universe(up.n, down.n)
    ext = masks[:, None] | (np.int64(1) << np.arange(n, dtype=np.int64))
    probe = np.concatenate([masks, ext[ext != masks[:, None]]])
    ok = evaluate_many(up, probe) & ~evaluate_many(down, probe)
    if not ok[: masks.size].all():
        raise AssertionError("a listed mask failed the predicate re-check")
    if ok[masks.size :].any():
        raise AssertionError("a listed mask has a satisfying one-player extension")
    return [Coalition(m, n) for m in masks.tolist()]


def maximal_satisfying(up: GameExpr, down: GameExpr) -> list[Coalition]:
    """Inclusion-maximal coalitions winning ``up`` and losing ``down``, ascending by mask."""
    n = check_universe(up.n, down.n)
    sat = expr_table(up)
    sat &= complement(expr_table(down), n)
    return checked_maximal(up, down, maximal_members(sat, n))
