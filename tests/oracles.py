"""Definition-level reimplementations used as independent test oracles.

Everything here works from the mathematical definitions with plain Python
loops over all 2^n coalitions, deliberately avoiding the bit-table engine
under test; only the table *type* is imported, so that tables can be
converted to and from one integer (bit m = coalition m).  Keep n small.
"""

import itertools
import random
from typing import Iterable, Optional

import numpy as np

from votedim.games import AND, GameExpr, Node, WeightedGame
from votedim.sweep import Table


def weight_of(weights: tuple[int, ...], mask: int) -> int:
    return sum(w for j, w in enumerate(weights) if mask >> j & 1)


def wins(game, mask: int) -> bool:
    """Evaluate a WeightedGame or GameExpr by definition."""
    if isinstance(game, WeightedGame):
        return weight_of(game.weights, mask) >= game.quota
    assert isinstance(game, Node)
    results = (wins(c, mask) for c in game.children)
    return all(results) if game.op == AND else any(results)


def winning_masks(game, n: int) -> set[int]:
    return {m for m in range(1 << n) if wins(game, m)}


def table_of(masks: Iterable[int]) -> int:
    table = 0
    for m in masks:
        table |= 1 << m
    return table


def table_to_int(table) -> int:
    """A word-array win table as one integer: bit m = coalition m."""
    return int.from_bytes(np.asarray(table, dtype="<u8").tobytes(), "little")


def int_to_table(bits: int, n: int):
    """The word-array win table whose coalition m is bit m of ``bits``."""
    assert 0 <= bits < 1 << (1 << n)
    words = max(1, (1 << n) >> 6)
    raw = np.frombuffer(bits.to_bytes(8 * words, "little"), dtype="<u8")
    return raw.copy().view(Table)


def run_of(table) -> tuple[np.ndarray, np.ndarray]:
    """A table's non-zero words and their word indices, the sweep's run form."""
    index = np.flatnonzero(table)
    return np.asarray(table)[index], index


def down_set(masks: Iterable[int]) -> set[int]:
    """Every subset of every mask."""
    out = set()
    for m in masks:
        sub = m
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    return out


def up_set(masks: Iterable[int], n: int) -> set[int]:
    """Every superset (within n players) of every mask."""
    full = (1 << n) - 1
    return {full ^ m for m in down_set(full ^ s for s in masks)}


def maximal_masks(masks: set[int], n: int) -> set[int]:
    """Members with no strict superset in the set."""
    out = set()
    for m in masks:
        if not any(s != m and s & m == m for s in masks):
            out.add(m)
    return out


def minimal_masks(masks: set[int]) -> set[int]:
    out = set()
    for m in masks:
        if not any(s != m and s & m == s for s in masks):
            out.add(m)
    return out


def gap_masks(first: WeightedGame, second: WeightedGame) -> list[int]:
    """Masks losing ``first`` but winning ``second``, ascending."""
    return [
        m
        for m in range(1 << first.n)
        if not wins(first, m) and wins(second, m)
    ]


def random_game(rng: random.Random, n: int, max_weight: int = 8) -> WeightedGame:
    while True:
        weights = tuple(rng.randint(0, max_weight) for _ in range(n))
        total = sum(weights)
        if total >= 1:
            return WeightedGame(weights, rng.randint(1, total))


def random_expr(rng: random.Random, n: int, max_weight: int = 8) -> GameExpr:
    """A random two-level AND/OR combination of 2 or 3 weighted games."""
    games = [random_game(rng, n, max_weight) for _ in range(rng.randint(2, 3))]
    return Node(rng.choice(("and", "or")), tuple(games))


def single_weighted_game_exists(
    expr, a_mask: int, b_mask: int, n: int, max_weight: int = 6
) -> bool:
    """Exhaustive grid search: is there one weighted game that admits every
    winner of ``expr`` while keeping both ``a`` and ``b`` losing?

    A quota works iff it is above both losing weights and at most the
    smallest minimal-winning weight, so only weight vectors are enumerated
    (vectorized over the full (max_weight+1)^n grid).
    """
    minimal_winning = sorted(minimal_masks(winning_masks(expr, n)))
    grid_side = max_weight + 1
    total = grid_side**n
    member_bits = np.array(
        [[(m >> j) & 1 for j in range(n)] for m in minimal_winning], dtype=np.int64
    )
    a_bits = np.array([(a_mask >> j) & 1 for j in range(n)], dtype=np.int64)
    b_bits = np.array([(b_mask >> j) & 1 for j in range(n)], dtype=np.int64)
    chunk = 1 << 18
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        weights = np.empty((codes.size, n), dtype=np.int64)
        rest = codes
        for j in range(n):
            weights[:, j] = rest % grid_side
            rest = rest // grid_side
        min_winning_weight = (weights @ member_bits.T).min(axis=1)
        losing_ceiling = np.maximum(weights @ a_bits, weights @ b_bits)
        # Some quota in 1..min_winning_weight stays above both losers iff
        # the ceiling sits strictly below the smallest winning weight.
        ok = (min_winning_weight >= 1) & (losing_ceiling < min_winning_weight)
        if bool(ok.any()):
            return True
    return False
