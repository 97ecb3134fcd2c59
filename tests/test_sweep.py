"""The bit-table sweep engine against definition-level oracles."""

import functools
import gc
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from votedim import data, decompose, sweep
from votedim.decompose import analyze_rule
from votedim.games import Coalition, UniverseMismatchError, WeightedGame, all_of, any_of, unit_game

rngs = st.integers(0, 2**32 - 1).map(random.Random)
DATA = Path(__file__).resolve().parent / "data"


def traced_verify(rule: data.EuRule):
    """``verify``'s check of the rule against its analysis, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        result = sweep.equivalent(rule.expr, all_of(*analyze_rule(rule).games))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestTables:
    def test_full_table(self):
        assert oracles.table_to_int(sweep.full_table(2)) == 0b1111
        assert oracles.table_to_int(sweep.full_table(0)) == 0b1
        for n in (1, 5, 6, 7, 9):
            table = sweep.full_table(n)
            assert table.size == max(1, (1 << n) // 64)
            assert oracles.table_to_int(table) == (1 << (1 << n)) - 1
            assert table.bit_count() == 1 << n

    def test_presence_absence_tables(self):
        # In-word masks: bit m of a word is set iff player j is in m.
        for j in range(6):
            presence = int(sweep._pattern(j, True))
            absence = int(sweep._pattern(j, False))
            for m in range(64):
                assert bool(presence >> m & 1) == bool(m >> j & 1)
            assert absence == presence ^ (2**64 - 1)
        # Whole tables: the up-closure of {j} holds the coalitions with j,
        # its complement those without, and no bit above 2^n is ever set.
        for n in (1, 3, 6, 8):
            for j in range(n):
                presence = sweep.up_closure(oracles.int_to_table(1 << (1 << j), n), n)
                bits = oracles.table_to_int(presence)
                for m in range(1 << n):
                    assert bool(bits >> m & 1) == bool(m >> j & 1)
                absence = oracles.table_to_int(sweep.complement(presence, n))
                assert absence == ((1 << (1 << n)) - 1) ^ bits

    @given(st.integers(1, 10), rngs)
    def test_win_table_matches_definition(self, n, rng):
        game = oracles.random_game(rng, n)
        table = sweep.win_table(game)
        assert oracles.table_to_int(table) == oracles.table_of(
            oracles.winning_masks(game, n)
        )

    def test_win_table_veto_fast_path_agrees_with_generic(self):
        # A quota-1 game wins iff the coalition holds a positive-weight
        # player, whatever the positive weights are: rescaling the weights,
        # with or without the quota, keeps the winners.  Under an AND,
        # expr_table takes every quota-1 leaf through the shared
        # down-closure; it must agree with the win table.
        other = WeightedGame((1,) * 6, 2)
        for blocked in (0b0011, 0b0000, 0b101010):
            veto = WeightedGame(
                tuple(0 if blocked >> j & 1 else 1 for j in range(6)), 1
            )
            doubled = WeightedGame(tuple(2 * w for w in veto.weights), 2)
            heavy = WeightedGame(tuple(w * (j + 2) for j, w in enumerate(veto.weights)), 1)
            assert sweep.win_table(veto) == sweep.win_table(doubled)
            assert sweep.win_table(heavy) == sweep.win_table(veto)
            for game in (veto, heavy):
                grouped = sweep.expr_table(all_of(other, game))
                assert grouped == sweep.win_table(other) & sweep.win_table(veto)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_win_table_needs_no_second_table(self, chunks, monkeypatch):
        # numpy reports its buffers to tracemalloc.  Besides the table, the
        # fill holds the 0.5 MB pattern block and one block's thresholds and
        # ranks (16 bytes per row): 1.3x the table at n = 24.  A buffered
        # np.take (its default mode="raise") or any other full-size temporary
        # reads 2.3x.  The bound holds whether the table is one block or several.
        game = oracles.random_game(random.Random(3), 24, max_weight=1000)
        monkeypatch.setattr(sweep, "_BLOCK_BITS", game.n - (chunks - 1))
        tracemalloc.start()
        try:
            table = sweep.win_table(game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table.nbytes

    @given(st.integers(1, 8), rngs)
    def test_closures(self, n, rng):
        table = rng.getrandbits(1 << n)
        members = {m for m in range(1 << n) if table >> m & 1}
        down = {m for m in range(1 << n) if any(m & s == m for s in members)}
        up = {m for m in range(1 << n) if any(m & s == s for s in members)}
        got_down = sweep.down_closure(oracles.int_to_table(table, n), n)
        got_up = sweep.up_closure(oracles.int_to_table(table, n), n)
        assert oracles.table_to_int(got_down) == oracles.table_of(down)
        assert oracles.table_to_int(got_up) == oracles.table_of(up)

    @given(st.integers(2, 8), rngs)
    def test_expr_table_matches_definition(self, n, rng):
        expr = oracles.random_expr(rng, n)
        assert oracles.table_to_int(sweep.expr_table(expr)) == oracles.table_of(
            oracles.winning_masks(expr, n)
        )

    def test_expr_table_groups_indicator_vetoes(self):
        # An AND node with many quota-1 indicator games exercises the grouped
        # path; compare with plain table intersection.
        n = 12
        rng = random.Random(5)
        vetoes = [
            WeightedGame(tuple(rng.randint(0, 1) for _ in range(n)), 1)
            for _ in range(10)
        ]
        vetoes = [v for v in vetoes if sum(v.weights) >= 1]
        other = WeightedGame(tuple(rng.randint(0, 4) for _ in range(n)), 9)
        grouped = sweep.expr_table(all_of(other, *vetoes))
        expected = functools.reduce(
            lambda acc, g: acc & oracles.table_to_int(sweep.win_table(g)),
            vetoes,
            oracles.table_to_int(sweep.win_table(other)),
        )
        assert oracles.table_to_int(grouped) == expected


class TestTableQueries:
    def test_members_and_count(self):
        table = oracles.int_to_table(0b10110010, 3)
        assert sweep.table_members(table) == [1, 4, 5, 7]
        assert table.bit_count() == 4
        assert sweep.table_members(oracles.int_to_table(0, 3)) == []
        empty = sweep.member_array(oracles.int_to_table(0, 3))
        assert empty.dtype == np.int64 and empty.size == 0
        # Across word boundaries the order stays ascending by mask.
        wide = oracles.int_to_table(sum(1 << m for m in (200, 3, 64, 65, 255)), 8)
        assert sweep.table_members(wide) == [3, 64, 65, 200, 255]
        assert wide.bit_count() == 5

    def test_member_chunks_of_a_run_with_gaps(self, monkeypatch):
        # A 16-player table with members in words 0 (full), 3 (one bit), 4
        # (the top bit) and 900 (lowest and top bits).  With 2^6-coalition
        # blocks each word is its own unpack chunk.
        masks = [*range(64), 3 * 64 + 17, 4 * 64 + 63, 900 * 64, 900 * 64 + 63]
        words, index = oracles.run_of(oracles.int_to_table(oracles.table_of(masks), 16))
        assert index.tolist() == [0, 3, 4, 900]
        monkeypatch.setattr(sweep, "_BLOCK_BITS", 6)
        chunks = list(sweep.member_chunks(words, index))
        assert [c.tolist() for c in chunks] == [masks[:64], masks[64:65], masks[65:66], masks[66:]]
        # Any sub-run decodes on its own word indices.
        tail = sweep.member_chunks(words[2:], index[2:])
        assert np.concatenate(list(tail)).tolist() == masks[65:]

    def test_players_in_all(self):
        # Members {0,1} and {1,2}: only player 1 is common.
        table = oracles.int_to_table((1 << 0b011) | (1 << 0b110), 3)
        assert sweep.players_in_all(*oracles.run_of(table), 3) == 0b010
        # Empty table: full mask by convention.
        assert sweep.players_in_all(*oracles.run_of(oracles.int_to_table(0, 3)), 3) == 0b111

    @given(st.integers(1, 9), rngs)
    def test_min_member_weight(self, n, rng):
        game = oracles.random_game(rng, n)
        table = rng.getrandbits(1 << n)
        expected = min(
            (
                oracles.weight_of(game.weights, m)
                for m in range(1 << n)
                if table >> m & 1
            ),
            default=None,
        )
        got = sweep.min_member_weight(game, *oracles.run_of(oracles.int_to_table(table, n)))
        assert got == expected

    def test_min_member_weight_tiny_universe(self):
        game = WeightedGame((3, 5), 4)
        assert sweep.min_member_weight(game, *oracles.run_of(oracles.int_to_table(0b1000, 2))) == 8
        assert sweep.min_member_weight(game, *oracles.run_of(oracles.int_to_table(0, 2))) is None

    @given(st.integers(1, 9), rngs)
    def test_maximal_elements(self, n, rng):
        table = rng.getrandbits(1 << n)
        members = {m for m in range(1 << n) if table >> m & 1}
        # _maximal_bits expects a down-closed table; closing keeps the maximal elements.
        closed = sweep.down_closure(oracles.int_to_table(table, n), n)
        got = sweep.member_array(sweep._maximal_bits(closed, n))
        assert set(got.tolist()) == oracles.maximal_masks(members, n)


class TestPredicates:
    @given(st.integers(2, 9), rngs)
    def test_maximal_satisfying_matches_definition(self, n, rng):
        up = oracles.random_game(rng, n)
        down = oracles.random_game(rng, n)
        satisfying = {
            m
            for m in range(1 << n)
            if oracles.wins(up, m) and not oracles.wins(down, m)
        }
        expected = oracles.maximal_masks(satisfying, n)
        got = sweep.maximal_satisfying(up, down)
        assert set(got) == expected
        assert got == sorted(got)

    def test_checked_maximal_rejects_wrong_tables(self):
        # Satisfied by every coalition except the empty and the grand one:
        # the maximal members are the three pairs.
        up, down = unit_game(1, 3), unit_game(3, 3)
        pairs = [0b011, 0b101, 0b110]
        got = decompose._checked_frontier(up, down, pairs)
        assert [s.mask for s in got] == pairs
        assert sweep.maximal_satisfying(up, down) == pairs
        # {0} is the only listed mask, but {0, 1} satisfies.
        with pytest.raises(AssertionError, match="extension"):
            decompose._checked_frontier(up, down, [0b001])
        # {0, 1} is maximal, but {0} is listed too and extends to it.
        with pytest.raises(AssertionError, match="extension"):
            decompose._checked_frontier(up, down, [0b001, 0b011])
        # The grand coalition does not satisfy the predicate at all.
        with pytest.raises(AssertionError, match="re-check"):
            decompose._checked_frontier(up, down, [0b111])

    def test_universe_mismatch(self):
        three, four = unit_game(1, 3), unit_game(4, 4)
        with pytest.raises(ValueError, match="universes differ: 3 vs 4"):
            decompose._checked_frontier(three, four, [0b001])
        with pytest.raises(ValueError, match="universes differ: 3 vs 4"):
            sweep.maximal_satisfying(three, four)
        with pytest.raises(ValueError, match="universes differ: 4 vs 3"):
            sweep.equivalent(four, three)

    def test_equivalent_reports_smallest_difference(self):
        a = WeightedGame((1, 1, 0), 2)
        b = WeightedGame((1, 1, 1), 2)
        result = sweep.equivalent(a, b)
        assert not result
        # {0,2} (mask 5) is the numerically smallest coalition where the
        # third player's weight matters.
        assert result.counterexample == Coalition(0b101, 3)
        assert bool(sweep.equivalent(a, a))

    @pytest.mark.parametrize("top", [0, 4])
    def test_equivalent_counterexample_is_lowest_differing_mask(self, top, monkeypatch):
        # The games differ where player 2 joins exactly one of players 0 and
        # 1 (and player 7, when it weighs 4): several bits of the first
        # differing word, which is word 0, or word 2 in the third 2^6-block.
        n = 8
        a = WeightedGame((1, 1, 1, 0, 0, 0, 0, top), top + 2)
        b = WeightedGame((1, 1, 0, 0, 0, 0, 0, top), top + 2)
        differ = sorted(oracles.winning_masks(a, n) ^ oracles.winning_masks(b, n))
        first_word = [m for m in differ if m >> 6 == differ[0] >> 6]
        assert differ[0] >> 6 == (2 if top else 0) and len(first_word) > 1
        monkeypatch.setattr(sweep, "_BLOCK_BITS", 6)
        assert sweep.equivalent(a, b).counterexample == Coalition(differ[0], n)
        assert sweep.equivalent(b, a).counterexample == Coalition(differ[0], n)

    @settings(max_examples=60)
    @given(st.integers(6, 10), st.sampled_from([6, 7]), rngs)
    def test_runs_decode_to_the_oracle(self, n, block_bits, rng):
        # Blocks of one or two words, so a pair of folds gives many runs, the
        # later ones included, and usually some blocks with no set bit.
        a, b = oracles.random_expr(rng, n), oracles.random_expr(rng, n)
        wins_a, wins_b = oracles.winning_masks(a, n), oracles.winning_masks(b, n)
        cases = [(np.bitwise_xor, wins_a ^ wins_b), (np.bitwise_and, wins_a & wins_b)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "_BLOCK_BITS", block_bits)
            for combine, expected in cases:
                runs = list(sweep.runs(a, b, combine))
                index = np.concatenate([i for _, i in runs]).tolist() if runs else []
                assert index == sorted(set(index))
                assert all(words.all() for words, _ in runs)
                # One run per block holding a member, and none for the others.
                blocks = [i[0] >> (block_bits - 6) for _, i in runs]
                assert blocks == sorted({m >> block_bits for m in expected})
                assert all(np.all(i >> (block_bits - 6) == i[0] >> (block_bits - 6)) for _, i in runs)
                masks = [m for run in runs for c in sweep.member_chunks(*run) for m in c.tolist()]
                assert masks == sorted(expected)

    def test_runs_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            next(sweep.runs(unit_game(1, 3), unit_game(4, 4), np.bitwise_xor))

    def test_verify_fold_memory(self):
        # ``verify`` on 2018 without the UK, n = 27: the rule against its
        # 1,364 games, folded block by block over all 2^27 coalitions.  numpy
        # reports its buffers to tracemalloc; analysis and fold peak at 0.168
        # tables (2.7 MB) with 128 KB blocks, 0.34 with 512 KB blocks.  The
        # 12 boosted copies share one gather, and two low halves of 0.5 MB
        # row patterns serve both sides.  One row pattern block per copy
        # read 0.73, the whole-table fold 4.13.  The bound leaves 31 %.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        result, peak = traced_verify(rule)
        assert result
        assert peak <= 0.22 * (1 << rule.n) / 8

    def test_verify_fold_memory_2014(self):
        # n = 28: the 17 of the 22 boosted copies that are boosted above the
        # 11 low players share one gather, and both sides hold seven low
        # halves of 0.5 MB row patterns: 0.152 tables (4.9 MB) with 128 KB
        # blocks, 0.24 with 512 KB blocks.  One row pattern block per
        # distinct leaf read 0.52, the whole-table fold 4.08.  The bound
        # leaves 32 %.
        rule = data.build_eu_rule(data.builtin_table("2014"))
        result, peak = traced_verify(rule)
        assert result
        assert peak <= 0.20 * (1 << rule.n) / 8

    def test_verify_synthetic_30_player_table(self):
        # The 2018 rows plus two synthetic members, n = 30: one 2^30-bit
        # table would take 128 MB.  Analysis and fold peak at 5.1 MiB with
        # 128 KB blocks, 7.8 MiB with 512 KB blocks (17.6 MiB with one row
        # pattern block per distinct leaf).  The bound leaves 28 %.
        table = data.load_table((DATA / "synthetic30.csv").read_text(encoding="utf-8"))
        rule = data.build_eu_rule(table)
        result, peak = traced_verify(rule)
        assert rule.n == 30
        assert result
        assert peak < 6.5 * 2**20

    def test_maximal_satisfying_in_one_word(self):
        # Coalitions of size 2 or 3 out of 4 players, all in one word: a stray
        # bit above the 2^4 coalitions would come out as a member.
        n = 4
        masks = sweep.maximal_satisfying(unit_game(2, n), unit_game(4, n))
        assert len(masks) == math.comb(4, 3)
        assert masks == sorted(m for m in range(1 << n) if m.bit_count() == 3)


class TestDeterminism:
    @settings(deadline=None)
    @given(st.integers(1, 28), rngs)
    def test_evaluate_many_matches_single_evaluation(self, n, rng):
        # n > 14 reads both halves of the two-table lookup.
        expr = oracles.random_expr(rng, n)
        masks = np.array(
            [rng.randint(0, (1 << n) - 1) for _ in range(64)], dtype=np.int64
        )
        got = sweep.evaluate_many(expr, masks)
        expected = np.array([oracles.wins(expr, int(m)) for m in masks])
        assert np.array_equal(got, expected)

    def test_evaluate_many_leaves_no_garbage(self):
        # The recursion must not keep the (masks x n) bit matrix alive in a
        # reference cycle until the collector runs.
        expr = any_of(all_of(unit_game(2, 6), unit_game(3, 6)), unit_game(5, 6))
        masks = np.arange(64, dtype=np.int64)
        gc.collect()
        gc.disable()
        try:
            got = sweep.evaluate_many(expr, masks)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert np.array_equal(got, [oracles.wins(expr, int(m)) for m in masks])
