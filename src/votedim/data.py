"""Population tables and the EU Council qualified-majority rule builder.

The Lisbon-treaty voting rule passes a proposal when at least 55% of the
member states vote yes and those states hold at least 65% of the union's
population, with a rescue clause: a proposal cannot be blocked unless the
blocking side musters a minimum number of states.  This module loads
population tables (four reference years ship as package data), derives the
three component games with exact integer arithmetic, and exposes the rule
as a boolean expression over them.
"""

import csv
import io
import warnings
from importlib import resources
from typing import Iterable, Optional

from .games import GameExpr, Record, WeightedGame, all_of, any_of, unit_game

BUILTIN_YEARS = ("2014", "2016", "2017", "2018")

_CSV_HEADER = ("rank", "country", "population")


class CountryRow(Record):
    """One member state: rank by descending population, name, population."""

    __slots__ = ("rank", "country", "population")
    rank: int
    country: str
    population: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank}")
        if self.population < 1:
            raise ValueError(
                f"population of {self.country!r} must be positive, got {self.population}"
            )
        if not self.country:
            raise ValueError("country name must be non-empty")


class PopulationTable(Record):
    """An ordered population table; ranks are 1-based and strictly increasing.

    Populations must be non-increasing down the table (ties keep input
    order; ``load_table`` warns about them).  Excluding members keeps the
    survivors' original ranks, so labels remain stable across scenarios.
    """

    __slots__ = ("rows",)
    rows: tuple[CountryRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("population table must have at least one row")
        names = set()
        for row in self.rows:
            if row.country in names:
                raise ValueError(f"duplicate country name {row.country!r}")
            names.add(row.country)
        for prev, cur in zip(self.rows, self.rows[1:]):
            if cur.rank <= prev.rank:
                raise ValueError(
                    f"ranks must strictly increase: {prev.rank} then {cur.rank}"
                )
            if cur.population > prev.population:
                raise ValueError(
                    f"populations must not increase down the table: rank "
                    f"{prev.rank} has {prev.population} but rank {cur.rank} "
                    f"has {cur.population}; sort the rows by descending "
                    "population and number the ranks in that order"
                )

    @property
    def total(self) -> int:
        return sum(r.population for r in self.rows)

    @property
    def member_count(self) -> int:
        return len(self.rows)

    def exclude(self, names: Iterable[str]) -> "PopulationTable":
        """The table without the named members, original ranks retained."""
        wanted = set(names)
        known = {r.country for r in self.rows}
        unknown = sorted(wanted - known)
        if unknown:
            raise ValueError(f"unknown countries: {', '.join(unknown)}")
        rows = tuple(r for r in self.rows if r.country not in wanted)
        if not rows:
            raise ValueError("cannot exclude every member")
        return PopulationTable(rows)


def load_table(text: str) -> PopulationTable:
    """Parse a ``rank,country,population`` CSV into a validated table."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if tuple(h.strip() for h in header) != _CSV_HEADER:
        raise ValueError(
            f"expected header {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    rows = []
    for lineno, record in enumerate(reader, start=2):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if len(record) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(record)}")
        rank_s, country, population_s = (f.strip() for f in record)
        try:
            rank, population = int(rank_s), int(population_s)
        except ValueError:
            raise ValueError(
                f"line {lineno}: rank and population must be integers "
                f"(no thousands separators), got {rank_s!r}, {population_s!r}"
            ) from None
        try:
            rows.append(CountryRow(rank, country, population))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    table = PopulationTable(tuple(rows))
    for prev, cur in zip(rows, rows[1:]):
        if cur.population == prev.population:
            warnings.warn(
                f"population tie between ranks {prev.rank} and {cur.rank}; keeping input order",
                stacklevel=2,
            )
    return table


def builtin_table(year: str) -> PopulationTable:
    """One of the bundled EU tables: 2014, 2016, 2017 or 2018."""
    if year not in BUILTIN_YEARS:
        raise ValueError(f"no builtin table {year!r}; choose from {', '.join(BUILTIN_YEARS)}")
    text = resources.files(__package__).joinpath(f"data/eu{year}.csv").read_text("utf-8")
    return load_table(text)


# The Lisbon thresholds, as (numerator, denominator): 55% of the members
# (quota by ceiling) holding 65% of the population (exact integer
# comparison) approve; a blocking minority needs at least BLOCKING_MINORITY
# states, so a proposal with fewer rejectors passes regardless of population.
MEMBER_FRACTION = (11, 20)
POPULATION_FRACTION = (13, 20)
BLOCKING_MINORITY = 4


def member_quota(m: int) -> int:
    numerator, denominator = MEMBER_FRACTION
    return -(-numerator * m // denominator)


def veto_quota(m: int) -> int:
    # Fewer than BLOCKING_MINORITY rejectors cannot block, so any coalition
    # of at least m - (BLOCKING_MINORITY - 1) supporters wins.  With
    # m <= BLOCKING_MINORITY no blocking side can ever form; quota 1 is the
    # closest valid game (it differs only on the empty coalition, which the
    # member-count game rejects anyway).
    return max(1, m - (BLOCKING_MINORITY - 1))


class EuRule(Record):
    """The qualified-majority rule over one table, with its components.

    ``expr`` is ``count AND (population OR veto)``.  Player index ``j``
    corresponds to ``labels[j]`` (the 1-based rank in the source table).  The
    population game carries weights scaled by ``scale`` so that the
    fractional threshold is an exact integer quota.
    """

    __slots__ = (
        "expr", "count_game", "population_game", "veto_game", "labels",
        "member_quota", "veto_quota", "scale", "total_population",
    )
    expr: GameExpr
    count_game: WeightedGame
    population_game: WeightedGame
    veto_game: WeightedGame
    labels: tuple[int, ...]
    member_quota: int
    veto_quota: int
    scale: int
    total_population: int

    @property
    def n(self) -> int:
        return len(self.labels)

    def label_members(self, mask: int) -> tuple[int, ...]:
        """1-based rank labels of the players in a coalition mask."""
        return tuple(self.labels[j] for j in range(self.n) if mask >> j & 1)

    def mask_from_labels(self, ranks: Iterable[int]) -> int:
        index = {r: j for j, r in enumerate(self.labels)}
        mask = 0
        for rank in ranks:
            if rank not in index:
                raise ValueError(f"rank {rank} is not in the table")
            if mask >> index[rank] & 1:
                raise ValueError(f"rank {rank} is listed twice")
            mask |= 1 << index[rank]
        return mask


def build_eu_rule(
    table: PopulationTable,
    exclude: Iterable[str] = (),
    quota_member_count: Optional[int] = None,
) -> EuRule:
    """Build the rule for a table, optionally excluding members.

    Quotas for the two counting games derive from the member count that
    remains after exclusion.  ``quota_member_count`` overrides that count
    for quota derivation only (the games still range over the remaining
    members); it expresses the alternative reading that keeps the original
    absolute quotas when the membership shrinks.
    """
    exclude = tuple(exclude)
    if exclude:
        table = table.exclude(exclude)
    m = table.member_count
    if m < 2:
        raise ValueError(f"need at least 2 members, got {m}")
    quota_base = m if quota_member_count is None else quota_member_count
    member_q = member_quota(quota_base)
    veto_q = veto_quota(quota_base)
    for name, q in (("member", member_q), ("veto", veto_q)):
        if not 1 <= q <= m:
            raise ValueError(
                f"{name} quota {q} is not satisfiable by {m} members"
            )
    numerator, scale = POPULATION_FRACTION
    weights = tuple(scale * r.population for r in table.rows)
    total = table.total
    population_game = WeightedGame(weights, numerator * total)
    count_game = unit_game(member_q, m)
    veto = unit_game(veto_q, m)
    expr = all_of(count_game, any_of(population_game, veto))
    labels = tuple(r.rank for r in table.rows)
    return EuRule(
        expr, count_game, population_game, veto, labels, member_q, veto_q, scale, total
    )
