"""Core domain types: coalitions, weighted games, and boolean game expressions.

Players are indexed 0..n-1 internally; report and I/O layers translate to the
1-based ranks used in published population tables.  A coalition is a bit-set
packed into a single int (bit j set = player j present), capped at 32 players
so that it fits one machine word; the mask is also its bit index in the sweep
engine's ``uint64`` word-array win tables (bit m % 64 of word m // 64).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator

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


class Record:
    """An immutable record whose fields are its ``__slots__``, set positionally in order.

    ``__post_init__`` validates a new record.  Records are equal when they
    are of one class with equal fields, hash by their fields, and refuse
    assignment with ``AttributeError``.  ``Coalition`` and ``WeightedGame``,
    made and hashed on the search's hot paths, write out their own
    constructor, equality and hash.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Coalition(Record):
    """A subset of the n players, as a bit-set of 0-based player indices."""

    __slots__ = ("mask", "n")
    mask: int
    n: int

    def __init__(self, mask: int, n: int) -> None:
        if not 1 <= n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"coalition mask {mask:#x} has members outside 0..{n - 1}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def members(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if self.mask >> j & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, j: int) -> bool:
        return 0 <= j < self.n and bool(self.mask >> j & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

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


class WeightedGame(Record, GameExpr):
    """A weighted majority game [quota; w_1, ..., w_n] over integer weights.

    A coalition wins iff its weight sum meets the quota (>=, no tie layer),
    and the game is a leaf expression in its own right.  Quotas that arise
    as a fraction of the total weight must be rescaled to exact integers by
    the caller (see ``votedim.data``); this type never touches floating
    point.
    """

    __slots__ = ("weights", "quota")
    weights: tuple[int, ...]
    quota: int

    def __init__(self, weights: Iterable[int], quota: int) -> None:
        weights = tuple(map(int, weights))
        n = len(weights)
        if not 1 <= n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
        if min(weights) < 0:
            raise ValueError("weights must be non-negative")
        if quota < 1:
            raise ValueError(f"quota must be >= 1, got {quota}")
        total = sum(weights)
        if quota > total:
            raise ValueError(
                f"quota {quota} exceeds total weight {total}: grand coalition would lose"
            )
        if total + quota >= MAX_TOTAL_WEIGHT:
            raise ValueError(
                "weights too large for the exact integer engine "
                f"(total weight + quota must stay below 2^61, got {total + quota})"
            )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "quota", quota)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.quota == other.quota and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.weights, self.quota))

    @property
    def n(self) -> int:
        return len(self.weights)

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


def subset_sums(weights: Iterable[int]) -> list[int]:
    """Partial-sum table: entry m = total weight of the players with bits in m."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


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
