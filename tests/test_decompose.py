"""Union-to-intersection rewriting and veto-based refinement."""

import random
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from votedim.games import Coalition, WeightedGame, all_of, any_of, unit_game
from votedim import data, decompose, sweep
from votedim.decompose import (
    ContainmentError,
    Decomposition,
    EmptyCoreError,
    GapSummary,
    METHOD_CORE_BOOST,
    METHOD_FIRST_GAME,
    METHOD_VETO_FENCE,
    gap_summary,
    refine_by_vetoes,
    union_as_intersection,
    veto_game,
)

rngs = st.integers(0, 2**32 - 1).map(random.Random)
DATA = Path(__file__).resolve().parent / "data"


def traced_rewrite(rule):
    """The rule's union rewrite and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        dec = union_as_intersection(rule.population_game, rule.veto_game)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return dec, peak


@pytest.fixture
def built_tables(monkeypatch):
    """The expressions tabled through ``sweep.expr_table``, in call order.

    ``win_table`` calls it too, so every win table built is listed.
    """
    built = []
    expr_table = sweep.expr_table

    def counting(expr):
        built.append(expr)
        return expr_table(expr)

    monkeypatch.setattr(sweep, "expr_table", counting)
    return built


class TestVetoGame:
    def test_empty_block_rejects_only_empty_coalition(self):
        game = veto_game(Coalition(0, 4))
        assert game.weights == (1, 1, 1, 1)
        assert game.quota == 1
        assert not game.evaluate(Coalition(0, 4))

    def test_blocked_pair(self):
        game = veto_game(Coalition(0b011, 3))
        assert game.weights == (0, 0, 1)
        losers = {m for m in range(8) if not oracles.wins(game, m)}
        assert losers == {0b000, 0b001, 0b010, 0b011}

    def test_grand_coalition_rejected(self):
        with pytest.raises(ValueError, match="grand coalition"):
            veto_game(Coalition.grand(3))

    @given(st.integers(1, 32), st.integers(0, 2**32 - 1))
    def test_weight_one_outside_the_block(self, n, bits):
        blocked_mask = bits % ((1 << n) - 1)
        game = veto_game(Coalition(blocked_mask, n))
        assert game.weights == tuple(0 if blocked_mask >> j & 1 else 1 for j in range(n))
        assert game.quota == 1

    @given(st.integers(1, 8), st.integers(0, 255))
    def test_losers_are_exactly_subsets(self, n, seed):
        blocked_mask = seed % (1 << n)
        if blocked_mask == (1 << n) - 1:
            blocked_mask = 0
        game = veto_game(Coalition(blocked_mask, n))
        for m in range(1 << n):
            assert oracles.wins(game, m) == bool(m & ~blocked_mask)


class TestGapSummary:
    @given(st.integers(1, 9), rngs)
    def test_matches_definition(self, n, rng):
        first = oracles.random_game(rng, n)
        second = oracles.random_game(rng, n)
        gap = gap_summary(first, second)
        masks = oracles.gap_masks(first, second)
        assert gap.count == len(masks)
        core = (1 << n) - 1
        for m in masks:
            core &= m
        assert gap.common_core.mask == core
        if core == 0:
            # The rewrite is inapplicable, so no boost is priced and no member listed.
            assert gap.min_weight is None and gap.boost is None and gap.members is None
            return
        assert gap.members is not None
        assert [s.mask for s in gap.members] == masks
        if masks:
            assert gap.min_weight == min(
                oracles.weight_of(first.weights, m) for m in masks
            )
            assert gap.boost == first.quota - gap.min_weight
            assert gap.boost >= 1
        else:
            assert gap.common_core == Coalition.grand(n)
            assert gap.min_weight is None and gap.boost is None

    def test_empty_gap_convention(self):
        # Winners of the second game are a subset of the first game's.
        gap = gap_summary(unit_game(1, 3), unit_game(2, 3))
        assert gap.count == 0
        assert gap.common_core == Coalition.grand(3)
        assert gap.min_weight is None
        assert gap.boost is None
        assert gap.members == ()

    def test_member_cap_suppresses_listing_only(self, monkeypatch):
        # Gap: every coalition that holds player 7 and is not grand (127 of
        # them), with the core {7}.
        first = unit_game(8, 8)
        second = WeightedGame((1,) * 7 + (8,), 8)
        full = gap_summary(first, second)
        monkeypatch.setattr(decompose, "GAP_MEMBER_CAP", 10)
        capped = gap_summary(first, second)
        assert capped.count == full.count == 127
        assert capped.members is None
        assert full.members is not None and len(full.members) == 127
        assert capped.min_weight == full.min_weight == 1
        assert capped.boost == full.boost == 7

    def test_empty_core_lists_no_members(self):
        # Every coalition that is neither empty nor grand (254 of them): far
        # below the cap, but they share no player, so no rewrite reads them.
        gap = gap_summary(unit_game(8, 8), unit_game(1, 8))
        assert gap.count == 254
        assert gap.common_core.mask == 0 and gap.members is None

    def test_fold_stops_unpacking_once_done(self):
        # 2014 with swapped roles: 45,535,773 gap coalitions and no core.  The
        # walk keeps counted branches, not members, and drops them past the
        # listing cap, so it peaks at 3.0 MiB; listing members up to the cap
        # would hold a million of them.  The bound leaves 33 %.
        rule = data.build_eu_rule(data.builtin_table("2014"))
        tracemalloc.start()
        try:
            gap = gap_summary(rule.veto_game, rule.population_game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gap.count == 45_535_773
        assert gap.common_core.mask == 0 and gap.members is None
        assert peak < 4 * 2**20

    def test_player_count_mismatch(self):
        with pytest.raises(ValueError, match="universes differ"):
            gap_summary(unit_game(1, 3), unit_game(1, 4))


class TestUnionAsIntersection:
    def test_worked_example_with_frontier(self):
        first = WeightedGame((2, 2, 2, 0), 4)
        second = WeightedGame((1, 1, 0, 2), 3)
        dec = union_as_intersection(first, second)

        assert dec.method == METHOD_CORE_BOOST
        assert dec.gap is not None
        assert dec.gap.count == 2
        assert [s.members() for s in dec.gap.members] == [(0, 3), (1, 3)]
        assert dec.gap.common_core.members() == (3,)
        assert dec.gap.min_weight == 2
        assert dec.gap.boost == 2

        # One boosted copy of the first game per core player, then vetoes.
        assert dec.games[0] == WeightedGame((2, 2, 2, 2), 4)
        assert [s.members() for s in dec.frontier] == [(2, 3)]
        assert dec.games[1] == WeightedGame((1, 1, 0, 0), 1)
        assert len(dec.games) == 2
        assert dec.common_core_players() == (3,)

        union = oracles.winning_masks(any_of(first, second), 4)
        assert oracles.winning_masks(dec.intersection(), 4) == union

    def test_empty_gap_returns_first_game_alone(self):
        first = unit_game(1, 3)
        second = unit_game(2, 3)
        dec = union_as_intersection(first, second)
        assert dec.method == METHOD_FIRST_GAME
        assert dec.games == (first,)
        assert dec.frontier == ()
        assert dec.gap is not None and dec.gap.count == 0

    def test_union_with_itself_is_first_game(self):
        g = WeightedGame((3, 1, 2), 3)
        dec = union_as_intersection(g, g)
        assert dec.method == METHOD_FIRST_GAME
        assert dec.games == (g,)

    def test_empty_core_raises(self):
        # Gap = {{0}, {1}}: disjoint singletons, no common player.
        first = unit_game(2, 2)
        second = unit_game(1, 2)
        with pytest.raises(EmptyCoreError, match="empty intersection"):
            union_as_intersection(first, second)
        try:
            union_as_intersection(first, second)
        except EmptyCoreError as e:
            assert e.gap.count == 2
            assert e.gap.common_core.mask == 0

    def test_analyze_rule_raises_on_an_empty_core(self):
        # 2014 with swapped roles: the gap coalitions share no player.
        rule = data.build_eu_rule(data.builtin_table("2014"))
        with pytest.raises(EmptyCoreError) as info:
            decompose.analyze_rule(rule, swap_roles=True)
        assert info.value.gap.count == 45_535_773

    def test_empty_core_prices_no_boost(self):
        # Gap: every coalition but the empty and the grand one; no common player.
        with pytest.raises(EmptyCoreError) as info:
            union_as_intersection(unit_game(8, 8), unit_game(1, 8))
        assert info.value.gap.count == 254
        assert info.value.gap.min_weight is None and info.value.gap.boost is None

    def test_frontier_recheck_rejects_wrong_masks(self):
        # One "boosted" game won by any player, and a union won only by all
        # three: the maximal coalitions in between are the three pairs.
        check = partial(
            decompose._checked_frontier, (unit_game(1, 3),), unit_game(3, 3), unit_game(3, 3)
        )
        assert [s.mask for s in check([0b011, 0b101, 0b110])] == [0b011, 0b101, 0b110]
        # {0} is listed, but {0, 1} satisfies too.
        with pytest.raises(AssertionError, match="extension"):
            check([0b001])
        # The grand coalition wins the union; the empty one loses the boosted game.
        for mask in (0b111, 0b000):
            with pytest.raises(AssertionError, match="re-check"):
                check([mask])

    @given(st.integers(1, 9), rngs)
    def test_frontier_recheck_finds_every_extension(self, n, rng):
        # Every non-empty mask losing both games, against a boosted game that
        # any player wins: the re-check fails it iff a one-player extension
        # still loses both.
        first, second = oracles.random_game(rng, n), oracles.random_game(rng, n)
        union = any_of(first, second)
        for m in range(1, 1 << n):
            if oracles.wins(union, m):
                continue
            extensions = [m | 1 << j for j in range(n) if not m >> j & 1]
            if any(not oracles.wins(union, e) for e in extensions):
                with pytest.raises(AssertionError, match="extension"):
                    decompose._checked_frontier((unit_game(1, n),), first, second, [m])
            else:
                assert decompose._checked_frontier((unit_game(1, n),), first, second, [m])

    def test_boost_offset_breaks_equivalence(self):
        first = WeightedGame((2, 2, 2, 0), 4)
        second = WeightedGame((1, 1, 0, 2), 3)
        dec = union_as_intersection(first, second)
        assert dec.games[0] == WeightedGame((2, 2, 2, 2), 4)
        lowered = Decomposition(
            (WeightedGame((2, 2, 2, 1), 4),) + dec.games[1:],
            dec.gap,
            dec.frontier,
        )
        assert not sweep.equivalent(lowered.intersection(), any_of(first, second))

    def test_zero_minimum_weight_keeps_the_frontier(self):
        # Every gap coalition weighs 0 in the first game, so the lowered
        # quota q - u is 0: that table admits everything.
        first = WeightedGame((0, 0, 0, 1), 1)
        second = WeightedGame((2, 1, 1, 0), 3)
        dec = union_as_intersection(first, second)
        assert dec.gap.min_weight == 0
        assert dec.games[0] == WeightedGame((1, 0, 0, 1), 1)
        assert [s.members() for s in dec.frontier] == [(0,)]
        assert sweep.equivalent(dec.intersection(), any_of(first, second))

    def test_table_count_does_not_grow_with_the_core(self, built_tables):
        # Only supersets of {0..6} win the second game: a 7-player core.
        first = WeightedGame((1, 1, 1, 1, 1, 1, 1, 3), 8)
        second = WeightedGame((1, 1, 1, 1, 1, 1, 1, 0), 7)
        dec = union_as_intersection(first, second)
        assert dec.method == METHOD_CORE_BOOST
        assert dec.common_core_players() == tuple(range(7))
        assert built_tables == []

    @pytest.mark.parametrize(
        "year, exclude, r",
        [("2014", [], 6), ("2016", [], 6), ("2017", [], 6), ("2018", [], 6),
         ("2018", ["United Kingdom"], 15)],
    )
    def test_bundled_rules_build_two_sub_cube_tables(self, year, exclude, r, built_tables):
        # The frontier lies on the core's sub-cube: each frontier coalition
        # holds the core and some of the r non-core players.  The table
        # rewrite built two 2^r-bit tables there, one for all boosted copies
        # and one for the union; the walk builds none.
        rule = data.build_eu_rule(data.builtin_table(year), exclude=exclude)
        dec = decompose.analyze_rule(rule)
        core = dec.gap.common_core.mask
        assert rule.n - len(dec.common_core_players()) == r
        assert dec.frontier and all(s.mask & core == core for s in dec.frontier)
        assert built_tables == []

    def test_bundled_rules_load_no_numpy(self):
        # The rewrite walks the players and builds no table, so neither the
        # sweep engine nor numpy loads, for any bundled rule in either role.
        code = """
import sys
from votedim import data, decompose
for year in data.BUILTIN_YEARS:
    table = data.builtin_table(year)
    rules = [data.build_eu_rule(table)]
    if year == "2018":
        rules.append(data.build_eu_rule(table, exclude=["United Kingdom"]))
    for rule in rules:
        for swap_roles in (False, True):
            try:
                decompose.analyze_rule(rule, swap_roles)
            except decompose.EmptyCoreError:
                assert swap_roles
assert not {"numpy", "votedim.sweep"} & set(sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_frontier_needs_no_whole_table_pass(self):
        # 2018 without the UK, n = 27: 20 gap coalitions, a 12-player core
        # and 1,351 frontier coalitions.  The rewrite peaks at 0.55 MiB: the
        # byte tables of the 14 re-checked leaves, the frontier and its veto
        # games.  The sub-cube tables held 0.099 of a 2^27-bit table
        # (1.6 MiB) and the whole-table rewrite 2.13.  The bound leaves 46 %.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        dec, peak = traced_rewrite(rule)
        assert len(dec.frontier) == 1351
        assert peak < 0.8 * 2**20

    def test_gap_survey_needs_no_whole_table(self):
        # 2014, n = 28: 10 gap coalitions, a 22-player core and one frontier
        # coalition.  The survey alone peaks at 0.15 MiB (its tail sums); the
        # rewrite at 0.83 MiB, nearly all of it the byte tables of the 24
        # re-checked leaves.  The streamed survey read 0.050 of a 2^28-bit
        # table (1.6 MiB).  The bound leaves 45 %.
        rule = data.build_eu_rule(data.builtin_table("2014"))
        dec, peak = traced_rewrite(rule)
        assert len(dec.common_core_players()) == 22 and len(dec.frontier) == 1
        assert peak < 1.2 * 2**20

    def test_synthetic_30_player_table(self):
        # The 2018 rows plus two synthetic members, n = 30: one 2^30-bit
        # table would take 128 MB.  The analysis peaks at 2.04 MiB with
        # 128 KB blocks, 2.63 MiB with 512 KB blocks.  The bound leaves 23 %.
        table = data.load_table((DATA / "synthetic30.csv").read_text(encoding="utf-8"))
        rule = data.build_eu_rule(table)
        tracemalloc.start()
        try:
            result = decompose.analyze_rule(rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rule.n == 30
        assert len(result.games) == 27
        assert result.gap.count == 11
        assert len(result.gap.common_core.members()) == 24
        assert len(result.frontier) == 2
        assert peak < 2.5 * 2**20

    def test_every_single_member_exit(self):
        # Each bundled year with one member excluded, under the derived
        # quotas: (bound, frontier count) by excluded rank.  None is
        # inapplicable, and only the exit of rank 2, 3 or 4 gives a large
        # bound.  Rank 3 in 2018 is the UK: the bundled no-UK result.
        head = {
            "2014": [(28, 6), (496, 481), (845, 831), (300, 284), (41, 20), (27, 5)],
            "2016": [(29, 7), (840, 826), (1377, 1364), (859, 845), (41, 20), (39, 18)],
            "2017": [(29, 7), (837, 823), (1370, 1357), (860, 846), (41, 20), (39, 18)],
            "2018": [(41, 20), (1388, 1375), (1364, 1351), (861, 847), (41, 20), (40, 19)],
        }
        tail = {"2014": (23, 1), "2016": (24, 2), "2017": (24, 2), "2018": (24, 2)}
        for year, expected in head.items():
            table = data.builtin_table(year)
            exits = []
            for row in table.rows:
                result = decompose.analyze_rule(data.build_eu_rule(table, exclude=[row.country]))
                exits.append((len(result.games), len(result.frontier)))
            assert exits == expected + [tail[year]] * 22, year
        assert data.builtin_table("2018").rows[2].country == "United Kingdom"

    def test_large_exits_fold_to_their_rules(self):
        # The exits of rank 2-4, which give the large bounds above (300-1,388
        # games), under both quota readings: 24 rules, each folded over its
        # 2^27 coalitions against its emitted games.
        for year in data.BUILTIN_YEARS:
            table = data.builtin_table(year)
            for row in table.rows[1:4]:
                for members in (None, table.member_count):
                    rule = data.build_eu_rule(table, [row.country], quota_member_count=members)
                    games = decompose.analyze_rule(rule).games
                    assert sweep.equivalent(rule.expr, all_of(*games)), (year, row.rank, members)

    @settings(deadline=None)
    @given(st.integers(2, 8), rngs)
    def test_random_pairs(self, n, rng):
        first = oracles.random_game(rng, n)
        second = oracles.random_game(rng, n)
        try:
            dec = union_as_intersection(first, second)
        except EmptyCoreError as e:
            assert e.gap.count > 0
            assert e.gap.common_core.mask == 0
            return

        union = oracles.winning_masks(any_of(first, second), n)
        assert oracles.winning_masks(dec.intersection(), n) == union
        for g in dec.games:
            admitted = oracles.winning_masks(g, n)
            assert union <= admitted

        if dec.method == METHOD_FIRST_GAME:
            assert dec.games == (first,)
            assert dec.frontier == ()
            return

        assert dec.method == METHOD_CORE_BOOST
        core = dec.common_core_players()
        assert len(dec.games) == len(core) + len(dec.frontier)
        # Frontier = maximal coalitions winning every boosted game but
        # losing the union.
        boosted = dec.games[: len(core)]
        over = {
            m
            for m in range(1 << n)
            if all(oracles.wins(g, m) for g in boosted) and m not in union
        }
        assert {s.mask for s in dec.frontier} == oracles.maximal_masks(over, n)


class TestRefineByVetoes:
    def test_candidate_equal_to_target(self):
        g = WeightedGame((1, 2, 3), 3)
        dec = refine_by_vetoes(g, g)
        assert dec.method == METHOD_VETO_FENCE
        assert dec.games == (g,)
        assert dec.frontier == ()
        assert dec.gap is None

    def test_threshold_target_against_unit_candidate(self):
        target = unit_game(2, 3)
        candidate = unit_game(1, 3)
        dec = refine_by_vetoes(target, candidate)
        assert dec.games[0] == candidate
        assert [s.members() for s in dec.frontier] == [(0,), (1,), (2,)]
        assert dec.games[1:] == (
            WeightedGame((0, 1, 1), 1),
            WeightedGame((1, 0, 1), 1),
            WeightedGame((1, 1, 0), 1),
        )
        assert oracles.winning_masks(dec.intersection(), 3) == (
            oracles.winning_masks(target, 3)
        )

    def test_containment_violation(self):
        target = unit_game(2, 3)
        candidate = unit_game(3, 3)
        with pytest.raises(ContainmentError, match="wins the target"):
            refine_by_vetoes(target, candidate)
        try:
            refine_by_vetoes(target, candidate)
        except ContainmentError as e:
            # Smallest mask winning the target but losing the candidate.
            assert e.witness.mask == 0b011

    def test_union_candidate_rejected(self):
        target = unit_game(1, 3)
        with pytest.raises(ValueError, match="AND-only"):
            refine_by_vetoes(target, any_of(unit_game(1, 3), unit_game(2, 3)))

    def test_nested_and_candidate_accepted(self):
        g1, g2, g3 = unit_game(1, 4), unit_game(2, 4), unit_game(1, 4)
        target = unit_game(3, 4)
        dec = refine_by_vetoes(target, all_of(g1, all_of(g2, g3)))
        assert dec.games[:3] == (g1, g2, g3)
        assert oracles.winning_masks(dec.intersection(), 4) == (
            oracles.winning_masks(target, 4)
        )

    def test_veto_leaves_share_one_table(self, built_tables):
        # "At least 6 of 12 players" written as 792 vetoes, one per 5-player
        # set: the target is one 2^12-bit table, not one per veto leaf.
        n = 12
        fives = [m for m in range(1 << n) if m.bit_count() == 5]
        target = all_of(*(veto_game(Coalition(m, n)) for m in fives))
        dec = refine_by_vetoes(target, unit_game(1, n))
        assert [s.mask for s in dec.frontier] == fives
        assert [e.n for e in built_tables] == [n, n]

    @settings(deadline=None)
    @given(st.integers(2, 7), rngs)
    def test_random_targets_against_unit_candidate(self, n, rng):
        target = oracles.random_expr(rng, n)
        candidate = unit_game(1, n)
        dec = refine_by_vetoes(target, candidate)
        target_set = oracles.winning_masks(target, n)
        assert oracles.winning_masks(dec.intersection(), n) == target_set
        losing_nonempty = {
            m for m in range(1, 1 << n) if m not in target_set
        }
        assert {s.mask for s in dec.frontier} == oracles.maximal_masks(
            losing_nonempty, n
        )


class TestDecompositionValidation:
    def test_method_tags_are_frozen_strings(self):
        assert METHOD_CORE_BOOST == "core-boost"
        assert METHOD_VETO_FENCE == "veto-fence"
        assert METHOD_FIRST_GAME == "first-game"

    def test_fields_are_games_gap_frontier(self):
        # The method tag is derived from the gap, not stored.
        assert Decomposition.__slots__ == ("games", "gap", "frontier")
