"""The earlier big-integer sweep engine, frozen as a differential oracle.

A win table here is one (2^n)-bit Python int in which bit m is set iff the
coalition with bit-mask m wins.  Every operation rebuilds presence/absence
pattern tables and crosses ``to_bytes``/``from_bytes``, which is why the
package replaced it with a word-array engine; it is kept only so that the
tests can compare the two engines bit for bit at sizes where the
definition-level oracles in ``oracles.py`` are too slow.  Do not optimise it.

The word-array engine's byte-per-coalition fill (compare ``low >= quota -
high`` into a boolean block, ``packbits`` it into the table) is frozen here
as ``packbits_win_table``, the reference for the rank-gather fill.

The certificate split search that spread selector bits into a (splits x
players) bit matrix and multiplied it by each leaf's weights is frozen here
too (``certificate_split``), as the reference for the two-table search.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from votedim.games import AND, GameExpr, Node, WeightedGame

_LO_BITS = 14
_CHUNK_ELEMS = 1 << 21
_INDICATOR_GROUP_MIN = 8
_BYTE_PRESENT = {0: 0xAA, 1: 0xCC, 2: 0xF0}


def full_table(n: int) -> int:
    return (1 << (1 << n)) - 1


def _pattern(n: int, j: int, present: bool) -> int:
    nbytes = max(1, (1 << n) >> 3)
    if j < 3:
        byte = _BYTE_PRESENT[j]
        if not present:
            byte ^= 0xFF
        arr = np.full(nbytes, byte, dtype=np.uint8)
    else:
        half = 1 << (j - 3)
        zeros = np.zeros(half, dtype=np.uint8)
        ones = np.full(half, 0xFF, dtype=np.uint8)
        period = np.concatenate([zeros, ones] if present else [ones, zeros])
        arr = np.tile(period, nbytes // (2 * half))
    return int.from_bytes(arr.tobytes(), "little") & full_table(n)


def presence_table(n: int, j: int) -> int:
    return _pattern(n, j, present=True)


def absence_table(n: int, j: int) -> int:
    return _pattern(n, j, present=False)


def _subset_sums(weights) -> np.ndarray:
    sums = np.zeros(1, dtype=np.int64)
    for w in weights:
        sums = np.concatenate([sums, sums + np.int64(w)])
    return sums


def _is_indicator_veto(game: WeightedGame) -> bool:
    return game.quota == 1 and all(w in (0, 1) for w in game.weights)


def win_table(game: WeightedGame) -> int:
    n = game.n
    if _is_indicator_veto(game):
        blocked = sum(1 << j for j, w in enumerate(game.weights) if w == 0)
        return full_table(n) ^ down_closure(1 << blocked, n)
    lo = min(n, _LO_BITS)
    low_sums = _subset_sums(game.weights[:lo])
    high_sums = _subset_sums(game.weights[lo:])
    quota = np.int64(game.quota)
    out = bytearray(max(1, (1 << n) >> 3))
    chunk_highs = max(1, _CHUNK_ELEMS >> lo)
    for h in range(0, len(high_sums), chunk_highs):
        sums = high_sums[h : h + chunk_highs, None] + low_sums[None, :]
        bits = np.packbits(sums.reshape(-1) >= quota, bitorder="little")
        offset = (h << lo) >> 3
        out[offset : offset + bits.nbytes] = bits.tobytes()
    return int.from_bytes(bytes(out), "little")


def packbits_win_table(game: WeightedGame) -> np.ndarray:
    """Win table as little-endian ``uint64`` words (one word below n = 6)."""
    n = game.n
    lo = min(n, _LO_BITS)
    low_sums = _subset_sums(game.weights[:lo])
    high_sums = _subset_sums(game.weights[lo:])
    quota = np.int64(game.quota)
    table = np.zeros(max(1, (1 << n) >> 6), dtype="<u8")
    out = table.view(np.uint8)
    chunk_highs = max(1, _CHUNK_ELEMS >> lo)
    for h in range(0, len(high_sums), chunk_highs):
        wins = low_sums[None, :] >= (quota - high_sums[h : h + chunk_highs])[:, None]
        bits = np.packbits(wins, bitorder="little")
        offset = (h << lo) >> 3
        out[offset : offset + bits.size] = bits
    return table


def down_closure(table: int, n: int) -> int:
    for j in range(n):
        table |= (table & presence_table(n, j)) >> (1 << j)
    return table


def up_closure(table: int, n: int) -> int:
    for j in range(n):
        table |= (table & absence_table(n, j)) << (1 << j)
    return table


def expr_table(expr: GameExpr) -> int:
    if isinstance(expr, WeightedGame):
        return win_table(expr)
    assert isinstance(expr, Node)
    n = expr.n
    children = list(expr.children)
    acc: Optional[int] = None
    if expr.op == AND:
        vetoes = [
            c for c in children if isinstance(c, WeightedGame) and _is_indicator_veto(c)
        ]
        if len(vetoes) >= _INDICATOR_GROUP_MIN:
            children = [c for c in children if c not in vetoes]
            blocked_bits = 0
            for c in vetoes:
                blocked_bits |= 1 << sum(
                    1 << j for j, w in enumerate(c.weights) if w == 0
                )
            acc = full_table(n) ^ down_closure(blocked_bits, n)
    for child in children:
        t = expr_table(child)
        if acc is None:
            acc = t
        elif expr.op == AND:
            acc &= t
        else:
            acc |= t
    assert acc is not None
    return acc


def table_members(table: int, n: int) -> list[int]:
    if table == 0:
        return []
    nbytes = max(1, (1 << n) >> 3)
    arr = np.frombuffer(table.to_bytes(nbytes, "little"), dtype=np.uint8)
    nz = np.flatnonzero(arr)
    bits = np.unpackbits(arr[nz], bitorder="little").reshape(-1, 8)
    rows, cols = np.nonzero(bits)
    masks = (nz[rows].astype(np.int64) << 3) | cols
    return [int(m) for m in masks]


def players_in_all(table: int, n: int) -> int:
    mask = 0
    for j in range(n):
        if table & absence_table(n, j) == 0:
            mask |= 1 << j
    return mask


def min_member_weight(game: WeightedGame, table: int) -> Optional[int]:
    if table == 0:
        return None
    n = game.n
    lo = min(n, _LO_BITS)
    low_sums = _subset_sums(game.weights[:lo])
    high_sums = _subset_sums(game.weights[lo:])
    nbytes = max(1, (1 << n) >> 3)
    arr = np.frombuffer(table.to_bytes(nbytes, "little"), dtype=np.uint8)
    nz = np.flatnonzero(arr)
    block_bytes = max(1, (1 << lo) >> 3)
    best = None
    for block in np.unique(nz // block_bytes):
        chunk = arr[block * block_bytes : (block + 1) * block_bytes]
        present = np.unpackbits(chunk, bitorder="little").astype(bool)[: 1 << lo]
        local = int(low_sums[present].min()) + int(high_sums[block])
        if best is None or local < best:
            best = local
    return best


def first_difference(a: GameExpr, b: GameExpr) -> Optional[int]:
    """Smallest coalition mask on which the two expressions differ."""
    diff = expr_table(a) ^ expr_table(b)
    if diff == 0:
        return None
    return (diff & -diff).bit_length() - 1


def maximal_bits(sat: int, n: int) -> int:
    bad = 0
    for j in range(n):
        bad |= (sat >> (1 << j)) & absence_table(n, j)
    return sat & ~bad


def maximal_elements(table: int, n: int) -> list[int]:
    return table_members(maximal_bits(down_closure(table, n), n), n)


# --- the bit-matrix certificate search, replaced by the two-table split ---


def _expand_selector(r: np.ndarray, positions) -> np.ndarray:
    out = np.zeros_like(r)
    for i, d in enumerate(positions):
        out |= ((r >> i) & 1) << d
    return out


def _evaluate_bits(e, bits: np.ndarray) -> np.ndarray:
    if isinstance(e, WeightedGame):
        return bits @ np.array(e.weights, dtype=np.int64) >= e.quota
    parts = [_evaluate_bits(c, bits) for c in e.children]
    out = parts[0].copy()
    for p in parts[1:]:
        if e.op == AND:
            out &= p
        else:
            out |= p
    return out


def evaluate_many(expr: GameExpr, masks: np.ndarray) -> np.ndarray:
    masks = np.asarray(masks, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(expr.n, dtype=np.int64)[None, :]) & 1
    return _evaluate_bits(expr, bits)


def certificate_split(
    expr: GameExpr, a: int, b: int, chunk: int = 1 << 18
) -> Optional[int]:
    """x of the first certifying split of two losing masks, or None."""
    base = a & b
    delta = (a | b) ^ base
    free = [j for j in range(expr.n) if delta >> j & 1][:-1]
    total = (1 << len(free)) if delta else 0
    for start in range(0, total, chunk):
        r = np.arange(start, min(start + chunk, total), dtype=np.int64)
        xm = _expand_selector(r, free)
        ok = evaluate_many(expr, base | xm)
        ok &= evaluate_many(expr, base | (delta ^ xm))
        hits = np.flatnonzero(ok)
        if hits.size:
            return int(xm[hits[0]])
    return None
