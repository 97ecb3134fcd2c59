"""Core domain types: coalitions, weighted games, and boolean game expressions.

Players are indexed 0..n-1 internally; report and I/O layers translate to the
1-based ranks used in published population tables.  A coalition is a bit-set
packed into a single int (bit j set = player j present), capped at 32 players
so that it fits one machine word; the mask is also its bit index in the sweep
engine's ``uint64`` word-array win tables (bit m % 64 of word m // 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

MAX_PLAYERS = 32

# Exactness envelope for the sweep engine's int64 arithmetic: any weight sum,
# quota, or boosted weight derived from a valid game must stay below 2^63.
MAX_TOTAL_WEIGHT = 1 << 61


class UniverseMismatchError(ValueError):
    """Raised when coalitions or games from different player universes meet."""


def check_universe(n_left: int, n_right: int) -> int:
    """The common player count; raises when the two differ."""
    if n_left != n_right:
        raise UniverseMismatchError(f"player universes differ: {n_left} vs {n_right} players")
    return n_left


@dataclass(frozen=True, order=True)
class Coalition:
    """A subset of the n players, as a bit-set of 0-based player indices."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(
                f"coalition mask {self.mask:#x} has members outside 0..{self.n - 1}"
            )

    @classmethod
    def grand(cls, n: int) -> "Coalition":
        return cls((1 << n) - 1, n)

    def members(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if self.mask >> j & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, j: int) -> bool:
        return 0 <= j < self.n and bool(self.mask >> j & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def _binary(self, other: "Coalition") -> None:
        if not isinstance(other, Coalition):
            raise TypeError(f"expected Coalition, got {type(other).__name__}")
        check_universe(self.n, other.n)

    def union(self, other: "Coalition") -> "Coalition":
        self._binary(other)
        return Coalition(self.mask | other.mask, self.n)

    def intersection(self, other: "Coalition") -> "Coalition":
        self._binary(other)
        return Coalition(self.mask & other.mask, self.n)

    def __repr__(self) -> str:
        return f"Coalition({{{', '.join(map(str, self.members()))}}}, n={self.n})"


# --- boolean combinations -------------------------------------------------

AND = "and"
OR = "or"


class GameExpr:
    """A boolean combination of weighted games: leaves joined by AND / OR.

    A weighted game is itself a leaf.  Every expression over ``n`` players
    is a simple game: evaluation is monotone, the empty coalition loses and
    the grand coalition wins.  ``WeightedGame`` validates this for a leaf
    (quota >= 1, quota <= total weight), and it follows for a ``Node`` by
    induction, since AND and OR preserve all three properties.
    ``WeightedGame`` and ``Node`` are the only subclasses.
    """

    __slots__ = ()

    def fold(self, leaf: Callable, and_: Callable, or_: Callable):
        """Map each leaf with ``leaf``; join each node's children with ``and_`` or ``or_``.

        A join gets one lazy iterable of its children's results, in order,
        so ``all`` and ``any`` stop at the first child that settles the node.
        """
        raise NotImplementedError

    def evaluate(self, s: Coalition) -> bool:
        # The first leaf weighed checks the universe.
        return self.fold(lambda g: g.weight_sum(s) >= g.quota, all, any)

    def leaves(self) -> list[WeightedGame]:
        """The weighted leaves, in construction order."""
        flatten = lambda parts: list(chain.from_iterable(parts))
        return self.fold(lambda g: [g], flatten, flatten)


@dataclass(frozen=True)
class WeightedGame(GameExpr):
    """A weighted majority game [quota; w_1, ..., w_n] over integer weights.

    A coalition wins iff its weight sum meets the quota (>=, no tie layer),
    and the game is a leaf expression in its own right.  Quotas that arise
    as a fraction of the total weight must be rescaled to exact integers by
    the caller (see ``votedim.data``); this type never touches floating
    point.
    """

    weights: tuple[int, ...]
    quota: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        n = len(self.weights)
        if not 1 <= n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if self.quota < 1:
            raise ValueError(f"quota must be >= 1, got {self.quota}")
        total = sum(self.weights)
        if self.quota > total:
            raise ValueError(
                f"quota {self.quota} exceeds total weight {total}: grand coalition would lose"
            )
        if total + self.quota >= MAX_TOTAL_WEIGHT:
            raise ValueError(
                "weights too large for the exact integer engine "
                f"(total weight + quota must stay below 2^61, got {total + self.quota})"
            )

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def weight_sum(self, s: Coalition) -> int:
        """Exact integer weight of coalition ``s``."""
        check_universe(self.n, s.n)
        m = s.mask
        total = 0
        while m:
            low = m & -m
            total += self.weights[low.bit_length() - 1]
            m ^= low
        return total

    def fold(self, leaf, and_, or_):
        return leaf(self)

    def __repr__(self) -> str:
        ws = ",".join(map(str, self.weights))
        return f"[{self.quota}; {ws}]"


def unit_game(quota: int, n: int) -> WeightedGame:
    """The counting game [quota; 1, ..., 1]: wins iff at least ``quota`` players."""
    return WeightedGame((1,) * n, quota)


class Node(GameExpr):
    __slots__ = ("op", "children", "n")

    def __init__(self, op: str, children: tuple[GameExpr, ...]):
        if op not in (AND, OR):
            raise ValueError(f"unknown connective {op!r}")
        if len(children) < 2:
            raise ValueError(f"{op} node needs at least 2 children, got {len(children)}")
        for child in children:
            if not isinstance(child, GameExpr):
                raise TypeError(f"expected GameExpr, got {type(child).__name__}")
            check_universe(children[0].n, child.n)
        self.op = op
        self.children = children
        self.n = children[0].n

    def fold(self, leaf, and_, or_):
        return (and_ if self.op == AND else or_)(c.fold(leaf, and_, or_) for c in self.children)

    def __repr__(self) -> str:
        sep = " & " if self.op == AND else " | "
        return "(" + sep.join(repr(c) for c in self.children) + ")"


def all_of(*exprs: GameExpr) -> GameExpr:
    """Intersection: wins iff every child wins; of one child, that child."""
    return exprs[0] if len(exprs) == 1 else Node(AND, exprs)


def any_of(*exprs: GameExpr) -> GameExpr:
    """Union: wins iff at least one child wins; of one child, that child."""
    return exprs[0] if len(exprs) == 1 else Node(OR, exprs)
