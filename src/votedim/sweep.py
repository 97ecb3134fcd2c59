"""Exhaustive coalition sweeps over all 2^n coalitions.

The engine's working representation is a *win table*: a little-endian
``uint64`` array of max(1, 2^n / 64) words whose bit m is set iff the
coalition with bit-mask m wins (for n < 6 one word, unused high bits zero).
A game expression is folded one block of 2^20 coalitions (128 KB) at a
time, in ascending order.  Only ``runs`` pairs two folds: it combines
their blocks into *runs*, a block's non-zero words and their word
indices, read by ``equivalent`` (the first run of the XOR).  ``expr_table``
fills a whole table block by block with the same fold.  A weighted leaf's
block is gathered in rows (Horowitz & Sahni's sorted halves): the low 11
players' sums are sorted once into 2^11 + 1 patterns "sorted rank >= r"
(0.5 MB per distinct vector of low weights, shared by both folds of
``runs``), and a binary search gives each row's rank; the row thresholds
come from two small partial-sum tables, one for the row bits inside the
block and one for the block index.  The weighted children of a node with
equal low weights share one gather: each child computes its own threshold,
and the extreme threshold, the largest (AND) or least (OR), is searched
once.  The quota-1 leaves under an AND share one down-closure,
redone only for a block that selects other blocked masks.  Closures and
the maximality thinning of ``_maximal_bits`` are the bitset subset-sum
(zeta) transform: halves of a ``reshape(-1, 2, 2^(j-6))`` view for player
j >= 6, in-word shifts under a constant mask for j < 6.  The veto
refinement lists its frontier with ``maximal_satisfying``, which tables
both sides and re-checks the frontier with one probe, ``evaluate_many``.
The union rewrite in ``decompose`` walks the players instead.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .games import AND, Coalition, GameExpr, Node, Record, WeightedGame, check_universe

# Win table rows: 2^11 coalitions, whole words once n >= 6.  Rows of 2^10
# made the fold 30-50 % slower.
_RANK_BITS = 11
# Coalitions per fold block: 2^20, i.e. 16 K words, 128 KB.  Every block,
# node scratch and veto-closure buffer has this size, so a fold's buffers
# stay in L2; members are unpacked a block of words at a time.  At least 6
# (whole words); rows shrink to the block when it is smaller than a row.
_BLOCK_BITS = 20

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


def _block_shape(n: int) -> tuple[int, int]:
    """Blocks of an n-player table and the words in each."""
    bits = min(n, _BLOCK_BITS)
    return 1 << (n - bits), max(1, (1 << bits) >> 6)


# Block k of a table, written into (and returned as) a buffer of one block's words.
BlockFill = Callable[[int, np.ndarray], np.ndarray]
# Sorted low sums and their row patterns, by the weights of the low players.
LowHalves = dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]


def _low_weights(game: WeightedGame) -> tuple[int, ...]:
    """Weights of a row's low players: the first 11, or fewer when the block or n is smaller."""
    return game.weights[: min(game.n, _BLOCK_BITS, _RANK_BITS)]


def _gather_fill(games: list[WeightedGame], op: str, halves: LowHalves) -> BlockFill:
    """Block fill of the AND (or OR) of weighted games with equal low weights, gathered in rows.

    A row holds the 2^lo coalitions that share their players above lo = 11
    (or the block, or n, if smaller).  Row h of block k wins game i where
    low_sum >= quota_i - w_i(block index k) - w_i(row bits of h inside the
    block), a suffix of the sorted low sums: pattern r holds the low masks
    of sorted rank >= r.  The AND takes the largest rank, the OR the least:
    ranks grow with thresholds, so one search finds the extreme threshold's.
    """
    key = _low_weights(games[0])
    bits, lo = min(games[0].n, _BLOCK_BITS), len(key)
    if key not in halves:
        low_sums = subset_sums(key)
        order = np.argsort(low_sums, kind="stable")
        patterns = np.zeros((order.size + 1, max(1, order.size >> 6)), dtype="<u8")
        patterns[np.arange(order.size), order >> 6] = np.uint64(1) << (order & 63).astype("<u8")
        np.bitwise_or.accumulate(patterns[::-1], axis=0, out=patterns[::-1])
        halves[key] = low_sums[order], patterns
    sorted_low, patterns = halves[key]
    thresholds = [
        (subset_sums(g.weights[lo:bits]), subset_sums(g.weights[bits:]), np.int64(g.quota))
        for g in games
    ]
    pick = np.maximum if op == AND else np.minimum

    def fill(k: int, out: np.ndarray) -> np.ndarray:
        rows = reduce(pick, [q - b[k] - r for r, b, q in thresholds])
        # side="left": the first rank whose sum reaches the threshold, ties included.
        ranks = np.searchsorted(sorted_low, rows, side="left")
        # mode="clip" writes straight into ``out``; "raise" would buffer a copy.
        np.take(patterns, ranks, axis=0, out=out.reshape(ranks.size, -1), mode="clip")
        return out

    return fill


def _veto_fill(blocked: list[int], n: int) -> BlockFill:
    """Block fill of the coalitions that are not a subset of any ``blocked`` mask.

    A coalition in block k is a subset of a mask iff k's bits are among the
    mask's bits above the block and its own bits are among the mask's low
    bits: the block's losers are the down-closure of those low bits, kept
    while the same masks are selected.
    """
    bits = min(n, _BLOCK_BITS)
    masks = np.array(blocked, dtype=np.int64)
    high, low = masks >> bits, masks & ((1 << bits) - 1)
    closed = np.empty(_block_shape(n)[1], dtype="<u8")
    closed_for: Optional[np.ndarray] = None

    def fill(k: int, out: np.ndarray) -> np.ndarray:
        nonlocal closed_for
        selected = (high & k) == k
        if closed_for is None or not np.array_equal(selected, closed_for):
            closed[:] = 0
            m = low[selected]
            np.bitwise_or.at(closed, m >> 6, np.uint64(1) << (m & 63).astype("<u8"))
            complement(down_closure(closed, bits), bits)
            closed_for = selected
        np.copyto(out, closed)
        return out

    return fill


def _fold(expr: GameExpr, halves: LowHalves) -> BlockFill:
    """Block fill of an expression; ``halves`` shares each sorted low half it builds."""
    if isinstance(expr, WeightedGame):
        return _gather_fill([expr], AND, halves)
    assert isinstance(expr, Node)
    # A quota-1 leaf wins iff the coalition holds a positive-weight player,
    # so it loses exactly on the subsets of its zero-weight players.  All
    # such leaves under one AND share a single down-closure, and the other
    # weighted children with equal low weights share one gather.
    children: list[BlockFill] = []
    blocked: list[int] = []
    groups: dict[tuple[int, ...], list[WeightedGame]] = {}
    for c in expr.children:
        if expr.op == AND and isinstance(c, WeightedGame) and c.quota == 1:
            blocked.append(sum(1 << j for j, w in enumerate(c.weights) if w == 0))
        elif isinstance(c, WeightedGame):
            groups.setdefault(_low_weights(c), []).append(c)
        else:
            children.append(_fold(c, halves))
    children[:0] = [_gather_fill(group, expr.op, halves) for group in groups.values()]
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


def runs(
    a: GameExpr, b: GameExpr, combine: Callable[..., np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block's run of ``combine(left, right, out=left)``, skipping all-zero blocks."""
    check_universe(a.n, b.n)
    halves: LowHalves = {}
    pairs = zip(_blocks(_fold(a, halves), a.n), _blocks(_fold(b, halves), b.n))
    for k, (left, right) in enumerate(pairs):
        block = combine(left, right, out=left)
        index = np.flatnonzero(block)
        if index.size:
            yield block[index], index + k * block.size


def member_chunks(words: np.ndarray, index: np.ndarray) -> Iterator[np.ndarray]:
    """Member masks of the run ``words`` at word indices ``index``, ascending, a block at a time.

    Bit b of table word i is coalition 64 i + b.
    """
    step = _block_shape(_BLOCK_BITS)[1]
    for start in range(0, words.size, step):
        bits = np.unpackbits(words[start : start + step].view(np.uint8), bitorder="little")
        pos = np.flatnonzero(bits)
        yield (index[start:][pos >> 6] << 6) | (pos & 63)


def member_array(table: Table) -> np.ndarray:
    """Set-bit indices (coalition masks) of a table, ascending, as one ``int64`` array."""
    index = np.flatnonzero(table)
    chunks = list(member_chunks(table[index], index))
    return np.concatenate(chunks) if chunks else np.empty(0, np.int64)


def table_members(table: Table) -> list[int]:
    """Set-bit indices (coalition masks) of a table, ascending."""
    return member_array(table).tolist()


def players_in_all(words: np.ndarray, index: np.ndarray, n: int) -> int:
    """Bit-mask of players present in every member of a run; all players for an empty run.

    Kept for ``tests/table_rewrite.py`` and ``perfbench/traced.py`` (ROADMAP item 10)."""
    if index.size == 0:
        return (1 << n) - 1
    # Players 0..5 are bits inside a word, players 6.. are bits of its index.
    union_word = np.bitwise_or.reduce(words)
    common_index = int(np.bitwise_and.reduce(index))
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


def min_member_weight(game: WeightedGame, words: np.ndarray, index: np.ndarray) -> Optional[int]:
    """Minimum weight (under ``game``) over the members of a run; None for an empty run.

    Kept for ``tests/table_rewrite.py`` and ``perfbench/traced.py`` (ROADMAP item 10)."""
    chunks = member_chunks(words, index)
    return min((int(weights_of(game, m).min()) for m in chunks), default=None)


def evaluate_many(expr: GameExpr, masks: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of an expression on an array of coalition masks."""
    masks = np.asarray(masks, dtype=np.int64)
    and_, or_ = partial(reduce, np.logical_and), partial(reduce, np.logical_or)
    return expr.fold(lambda g: weights_of(g, masks) >= g.quota, and_, or_)


# --- public sweep operations ------------------------------------------------


class EquivalenceResult(Record):
    __slots__ = ("equal", "counterexample")
    equal: bool
    counterexample: Optional[Coalition]

    def __bool__(self) -> bool:
        return self.equal


def equivalent(a: GameExpr, b: GameExpr) -> EquivalenceResult:
    """Exhaustively compare two expressions; the counterexample is the smallest differing mask."""
    for words, index in runs(a, b, np.bitwise_xor):
        lowest = next(member_chunks(words[:1], index[:1]))[0]
        return EquivalenceResult(False, Coalition(int(lowest), a.n))
    return EquivalenceResult(True, None)


def _maximal_bits(sat: Table, n: int) -> Table:
    # In place: keep the members none of whose one-player extensions is a member.
    bad = _spread(sat, np.zeros_like(sat), n, down=True)
    np.invert(bad, out=bad)
    sat &= bad
    return sat


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
    return checked_maximal(up, down, member_array(_maximal_bits(sat, n)))
