"""Population tables, bundled datasets, and the rule builder."""

import csv
import io
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from votedim import data
from votedim.games import Coalition
from votedim import sweep

BUILTIN_TOTALS = {
    "2014": 507_416_607,
    "2016": 510_277_177,
    "2017": 511_521_686,
    "2018": 512_710_966,
}


def to_csv(table: data.PopulationTable) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("rank", "country", "population"))
    writer.writerows((r.rank, r.country, r.population) for r in table.rows)
    return out.getvalue()


class TestBuiltinTables:
    @pytest.mark.parametrize("year", data.BUILTIN_YEARS)
    def test_shape_and_totals(self, year):
        table = data.builtin_table(year)
        assert table.member_count == 28
        assert [r.rank for r in table.rows] == list(range(1, 29))
        assert table.total == BUILTIN_TOTALS[year]
        pops = [r.population for r in table.rows]
        assert pops == sorted(pops, reverse=True)

    def test_2016_row_13_is_sweden(self):
        row = data.builtin_table("2016").rows[12]
        assert (row.country, row.population) == ("Sweden", 9_851_017)

    def test_2014_has_the_reverse_ordering_of_the_pair(self):
        rows = data.builtin_table("2014").rows
        assert rows[12].country == "Hungary"
        assert rows[13].country == "Sweden"

    def test_unknown_year(self):
        with pytest.raises(ValueError, match="no builtin table '1999'; choose from 2014, 2016"):
            data.builtin_table("1999")


class TestLoadTable:
    def test_single_row(self):
        table = data.load_table("rank,country,population\n1,X,10\n")
        assert table.member_count == 1
        assert table.rows[0] == data.CountryRow(1, "X", 10)

    def test_round_trip(self):
        for year in data.BUILTIN_YEARS:
            table = data.builtin_table(year)
            again = data.load_table(to_csv(table))
            assert again == table

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            data.load_table("a,b,c\n1,X,10\n")

    def test_malformed_rows(self):
        with pytest.raises(ValueError, match="3 fields"):
            data.load_table("rank,country,population\n1,X\n")
        with pytest.raises(ValueError, match="integers"):
            data.load_table("rank,country,population\n1,X,12.5\n")
        with pytest.raises(ValueError, match="line 2: population of 'X' must be positive"):
            data.load_table("rank,country,population\n1,X,0\n")
        with pytest.raises(ValueError, match="line 2: rank must be a positive"):
            data.load_table("rank,country,population\n0,X,10\n")
        with pytest.raises(ValueError, match="line 2: country name must be non-empty"):
            data.load_table("rank,country,population\n1,,10\n")
        with pytest.raises(ValueError, match="empty CSV"):
            data.load_table("")

    def test_rank_order_enforced(self):
        with pytest.raises(ValueError, match="strictly increase"):
            data.load_table("rank,country,population\n2,X,10\n1,Y,9\n")

    def test_population_order_enforced(self):
        text = "rank,country,population\n1,X,10\n2,Y,20\n"
        with pytest.raises(ValueError, match="must not increase"):
            data.load_table(text)

    def test_tie_warns_and_keeps_order(self):
        text = "rank,country,population\n1,X,10\n2,Y,10\n"
        with pytest.warns(UserWarning, match="tie") as record:
            table = data.load_table(text)
        assert [r.country for r in table.rows] == ["X", "Y"]
        # The warning points at the caller of ``load_table``.
        assert [w.filename for w in record] == [__file__]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.exclude(["X"]).member_count == 1

    def test_duplicate_country(self):
        with pytest.raises(ValueError, match="duplicate"):
            data.load_table("rank,country,population\n1,X,10\n2,X,9\n")


class TestExclude:
    def test_preserves_original_ranks(self):
        table = data.builtin_table("2018")
        reduced = table.exclude(["United Kingdom"])
        assert reduced.member_count == 27
        assert [r.rank for r in reduced.rows][:4] == [1, 2, 4, 5]
        assert "United Kingdom" not in {r.country for r in reduced.rows}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown countries: Atlantis"):
            data.builtin_table("2014").exclude(["Atlantis"])

    def test_cannot_exclude_everyone(self):
        table = data.load_table("rank,country,population\n1,X,10\n")
        with pytest.raises(ValueError, match="every member"):
            table.exclude(["X"])

    def test_round_trip_with_rank_gap(self):
        reduced = data.builtin_table("2018").exclude(["United Kingdom"])
        assert data.load_table(to_csv(reduced)) == reduced


class TestRuleConfig:
    def test_defaults(self):
        assert data.MEMBER_FRACTION == (11, 20)
        assert data.POPULATION_FRACTION == (13, 20)
        assert data.BLOCKING_MINORITY == 4

    def test_quota_derivation(self):
        assert data.member_quota(28) == 16
        assert data.veto_quota(28) == 25
        assert data.member_quota(27) == 15
        assert data.veto_quota(27) == 24
        # Memberships at or below the blocking size cannot be blocked at
        # all; the quota clamps to the smallest valid game.
        assert data.veto_quota(2) == 1


class TestBuildEuRule:
    @pytest.mark.parametrize("year", data.BUILTIN_YEARS)
    def test_full_membership_quotas(self, year):
        rule = data.build_eu_rule(data.builtin_table(year))
        assert rule.member_quota == 16
        assert rule.veto_quota == 24 + 1
        assert rule.count_game.quota == 16
        assert rule.veto_game.quota == 25
        assert rule.scale == 20
        assert rule.population_game.quota == 13 * rule.total_population
        assert rule.population_game.weights == tuple(
            20 * r.population for r in data.builtin_table(year).rows
        )

    def test_exclusion_changes_quotas(self):
        rule = data.build_eu_rule(
            data.builtin_table("2018"), exclude=["United Kingdom"]
        )
        assert (rule.member_quota, rule.veto_quota) == (15, 24)
        assert rule.n == 27
        assert rule.labels == tuple(r for r in range(1, 29) if r != 3)

    def test_quota_member_count_override(self):
        rule = data.build_eu_rule(
            data.builtin_table("2018"),
            exclude=["United Kingdom"],
            quota_member_count=28,
        )
        assert (rule.member_quota, rule.veto_quota) == (16, 25)

    def test_too_few_members(self):
        table = data.load_table("rank,country,population\n1,X,10\n")
        with pytest.raises(ValueError, match="at least 2"):
            data.build_eu_rule(table)

    def test_unsatisfiable_override(self):
        table = data.load_table(
            "rank,country,population\n1,X,10\n2,Y,9\n3,Z,8\n"
        )
        with pytest.raises(ValueError, match="not satisfiable"):
            data.build_eu_rule(table, quota_member_count=28)

    def test_label_round_trip(self):
        rule = data.build_eu_rule(
            data.builtin_table("2018"), exclude=["United Kingdom"]
        )
        mask = rule.mask_from_labels([1, 4, 28])
        assert rule.label_members(mask) == (1, 4, 28)
        with pytest.raises(ValueError, match="rank 3"):
            rule.mask_from_labels([3])

    def test_rank_listed_twice(self):
        rule = data.build_eu_rule(data.builtin_table("2014"))
        with pytest.raises(ValueError, match="rank 1 is listed twice"):
            rule.mask_from_labels([1, 1, 2])

    def test_scaled_game_equals_rational_threshold(self):
        # The scaled integer game must agree with the exact rational
        # comparison population(S)/total >= 13/20 on a large random sample.
        rule = data.build_eu_rule(data.builtin_table("2017"))
        pops = tuple(r.population for r in data.builtin_table("2017").rows)
        total = sum(pops)
        rng = random.Random(2017)
        masks = np.array(
            [rng.getrandbits(28) for _ in range(100_000)], dtype=np.int64
        )
        got = sweep.evaluate_many(rule.population_game, masks)
        shifts = np.arange(28, dtype=np.int64)
        bits = (masks[:, None] >> shifts[None, :]) & 1
        raw = bits @ np.array(pops, dtype=np.int64)
        threshold = Fraction(13, 20) * total
        expected = np.array([Fraction(int(w)) >= threshold for w in raw])
        assert np.array_equal(got, expected)

    def test_expr_shape(self):
        rule = data.build_eu_rule(data.builtin_table("2014"))
        s = Coalition((1 << 25) - 1, 28)
        assert rule.expr.evaluate(s)
        tiny = Coalition(1 << 27, 28)
        assert not rule.expr.evaluate(tiny)
