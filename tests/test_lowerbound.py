"""Pairwise-incompatibility certificates and lower-bound sets."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from greedy_clique import greedy_clique
from votedim import data, lowerbound, sweep
from votedim.games import Coalition, UniverseMismatchError, WeightedGame, all_of, unit_game
from votedim.lowerbound import (
    IncompatibilityCertificate,
    STATUS_CERTIFIED,
    STATUS_NO_CERTIFICATE,
    STATUS_NOT_ATTEMPTED,
    find_certificate,
    search_certificate_set,
    verify_certificate_set,
)


def two_chamber_game():
    """Wins iff the coalition meets both {0,1} and {2,3}; not weighted."""
    return all_of(
        WeightedGame((1, 1, 0, 0), 1),
        WeightedGame((0, 0, 1, 1), 1),
    )


def wide_pair():
    """Two disjoint coalitions of 32 players whose symmetric difference has 31 players."""
    return Coalition(0xFFFF, 32), Coalition(0x7FFF_0000, 32)


def wide_two_chamber_game():
    """Wins iff 8 of players 0-15 and 7 of players 16-31 join; not weighted.

    Both coalitions of ``wide_pair`` lose it: each misses one chamber.
    """
    return all_of(
        WeightedGame((1,) * 16 + (0,) * 16, 8),
        WeightedGame((0,) * 16 + (1,) * 16, 7),
    )


class TestCertificateValidation:
    def test_valid_certificate(self):
        a = Coalition(0b0011, 4)
        b = Coalition(0b1100, 4)
        cert = IncompatibilityCertificate(a, b, Coalition(0b0101, 4))
        assert cert.p == Coalition(0b0101, 4)
        assert cert.q == Coalition(0b1010, 4)
        assert cert.p.union(cert.q) == a.union(b)
        assert cert.p.intersection(cert.q) == a.intersection(b)

    def test_x_outside_delta(self):
        a = Coalition(0b0111, 4)
        b = Coalition(0b0101, 4)  # delta = {1}
        with pytest.raises(ValueError, match="subset of the symmetric"):
            IncompatibilityCertificate(a, b, Coalition(0b1000, 4))

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            IncompatibilityCertificate(Coalition(0b01, 2), Coalition(0b10, 3), Coalition(0, 2))
        with pytest.raises(UniverseMismatchError):
            IncompatibilityCertificate(Coalition(0b01, 2), Coalition(0b10, 2), Coalition(0b01, 3))

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
            )
        )
    )
    def test_halves_follow_from_x(self, arg):
        n, a_mask, b_mask, pick = arg
        a, b = Coalition(a_mask, n), Coalition(b_mask, n)
        x = Coalition(pick & (a_mask ^ b_mask), n)
        cert = IncompatibilityCertificate(a, b, x)
        assert cert.p == a.intersection(b).union(x)
        assert cert.q == Coalition((a_mask | b_mask) & ~x.mask, n)
        assert cert.p.union(cert.q) == a.union(b)
        assert cert.p.intersection(cert.q) == a.intersection(b)


class TestFindCertificate:
    def test_two_chamber_pair_certifies(self):
        game = two_chamber_game()
        a = Coalition(0b0011, 4)
        b = Coalition(0b1100, 4)
        cert = find_certificate(game, a, b)
        assert cert is not None
        # Deterministic first hit over the ascending split encoding.
        assert cert.x.mask == 0b0101
        assert cert.p.members() == (0, 2)
        assert cert.q.members() == (1, 3)
        assert oracles.wins(game, cert.p.mask)
        assert oracles.wins(game, cert.q.mask)

    def test_swapped_arguments_give_identical_certificate(self):
        game = two_chamber_game()
        a = Coalition(0b0011, 4)
        b = Coalition(0b1100, 4)
        assert find_certificate(game, a, b) == find_certificate(game, b, a)

    def test_weighted_game_pair_has_no_certificate(self):
        game = unit_game(3, 4)
        cert = find_certificate(game, Coalition(0b0011, 4), Coalition(0b1100, 4))
        assert cert is None

    def test_identical_coalitions_yield_none(self):
        game = unit_game(2, 2)
        a = Coalition(0b01, 2)
        assert find_certificate(game, a, a) is None

    def test_winning_coalition_rejected(self):
        game = unit_game(1, 3)
        with pytest.raises(ValueError, match="not losing"):
            find_certificate(game, Coalition(0b001, 3), Coalition(0b000, 3))
        with pytest.raises(ValueError, match="not losing"):
            find_certificate(game, Coalition(0b000, 3), Coalition(0b010, 3))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError, match="player universe"):
            find_certificate(unit_game(2, 3), Coalition(0b1, 2), Coalition(0b10, 2))
        with pytest.raises(UniverseMismatchError):
            find_certificate(unit_game(1, 3), Coalition(0, 4), Coalition(1, 4))

    def test_wide_pair_is_searched(self):
        game = wide_two_chamber_game()
        a, b = wide_pair()
        cert = find_certificate(game, a, b)
        assert cert is not None
        assert game.evaluate(cert.p) and game.evaluate(cert.q)

    def test_memory_is_bounded_by_the_chunk(self):
        # No certificate at |Δ| = 26 on 2018 without the UK: both 13-member
        # halves miss the 15-member quota, and two disjoint coalitions cannot
        # both reach it, so all 2^25 splits are tried, in 2^5 chunks.  The
        # search holds 2^11 + 1 row patterns of 256 bytes per distinct vector
        # of low-player weights (two here, unit and population weights, about
        # 0.6 MB each) and, per chunk, a few bitsets of 2^_CHUNK_BITS bits.
        # Budget: 32 such bitsets, 4 MB at the default chunk, whatever |Δ|.
        rule = data.build_eu_rule(data.builtin_table("2018"), ["United Kingdom"])
        a = Coalition(sum(1 << j for j in range(0, 26, 2)), rule.n)
        b = Coalition(sum(1 << j for j in range(1, 26, 2)), rule.n)
        tracemalloc.start()
        try:
            cert = find_certificate(rule.expr, a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert is None
        assert peak < 32 * (1 << lowerbound._CHUNK_BITS) // 8

    def test_certificate_contradicts_grid_oracle(self):
        # Where a certificate exists, the exhaustive weight grid agrees that
        # no single weighted game keeps both coalitions losing; where the
        # game is itself weighted, the grid finds one and the search fails.
        game = two_chamber_game()
        assert not oracles.single_weighted_game_exists(game, 0b0011, 0b1100, 4)
        weighted = unit_game(3, 4)
        assert oracles.single_weighted_game_exists(weighted, 0b0011, 0b1100, 4)


class TestVerifyCertificateSet:
    def test_two_chamber_pair(self):
        report = verify_certificate_set(
            two_chamber_game(), [Coalition(0b0011, 4), Coalition(0b1100, 4)]
        )
        assert report.losing == (True, True)
        assert report.all_losing
        assert len(report.pairs) == 1
        assert report.pairs[0].status == STATUS_CERTIFIED
        assert report.pairs[0].certificate is not None
        assert report.fully_certified
        assert report.lower_bound == 2

    def test_single_losing_coalition(self):
        report = verify_certificate_set(unit_game(2, 3), [Coalition(0b001, 3)])
        assert report.pairs == ()
        assert report.lower_bound == 1

    def test_winning_member_blocks_certification(self):
        game = two_chamber_game()
        report = verify_certificate_set(
            game, [Coalition(0b0011, 4), Coalition(0b0101, 4)]
        )
        assert report.losing == (True, False)
        assert not report.all_losing
        assert report.pairs[0].status == STATUS_NOT_ATTEMPTED
        assert report.lower_bound is None

    def test_compatible_pair_reports_no_certificate(self):
        report = verify_certificate_set(
            unit_game(3, 4), [Coalition(0b0011, 4), Coalition(0b1100, 4)]
        )
        assert report.pairs[0].status == STATUS_NO_CERTIFICATE
        assert report.lower_bound is None

    def test_wide_pair_is_certified(self):
        report = verify_certificate_set(wide_two_chamber_game(), wide_pair())
        assert report.losing == (True, True)
        assert report.pairs[0].status == STATUS_CERTIFIED
        assert report.lower_bound == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            verify_certificate_set(
                unit_game(2, 3), [Coalition(0b001, 3), Coalition(0b001, 3)]
            )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            verify_certificate_set(unit_game(2, 3), [])

    def test_universe_mismatch(self):
        with pytest.raises(ValueError, match="player universe"):
            verify_certificate_set(unit_game(2, 3), [Coalition(0b01, 2)])
        with pytest.raises(UniverseMismatchError):
            verify_certificate_set(unit_game(1, 3), [Coalition(0, 4)])

    def test_pairs_are_reported_in_index_order(self):
        game = two_chamber_game()
        coalitions = [
            Coalition(0b0011, 4),
            Coalition(0b1100, 4),
            Coalition(0b0001, 4),
        ]
        report = verify_certificate_set(game, coalitions)
        assert [(p.i, p.j) for p in report.pairs] == [(0, 1), (0, 2), (1, 2)]


class TestSearchCertificateSet:
    def test_weighted_game_yields_singleton(self):
        report = search_certificate_set(unit_game(2, 2))
        assert report.lower_bound == 1
        assert len(report.coalitions) == 1

    def test_weighted_game_with_more_players(self):
        report = search_certificate_set(unit_game(2, 4))
        assert report.lower_bound == 1

    def test_only_the_empty_coalition_loses(self):
        # The pool is never empty: the empty coalition always loses.
        report = search_certificate_set(WeightedGame((1, 1, 1), 1), pool_budget=4)
        assert [s.mask for s in report.coalitions] == [0]
        assert report.lower_bound == 1

    def test_search_memory_peak_on_2018_without_uk(self):
        # n = 27.  The pool is drawn without a table and the split search
        # runs on Python-int bitsets, so nothing of 2^n bits is held.  The
        # search peaks at 0.28 MB (0.48-0.98 MB at seeds 2, 3 and 4242); the
        # bound, 1 MiB, is 3.7 times that.  A 2^27-bit table takes 16.8 MB.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        tracemalloc.start()
        try:
            report = search_certificate_set(rule.expr, pool_budget=32, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.lower_bound == 7
        assert peak < 1 << 20

    def test_search_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 2^n table was built")

        monkeypatch.setattr(sweep, "win_table", refuse)
        monkeypatch.setattr(sweep, "expr_table", refuse)
        rule = data.build_eu_rule(data.builtin_table("2014"))
        report = search_certificate_set(rule.expr, pool_budget=8, seed=1)
        assert report.fully_certified

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_pool_holds_distinct_maximal_losers(self, n, k, seed):
        expr = oracles.random_expr(random.Random(seed), n)
        losers = {m for m in range(1 << n) if not oracles.wins(expr, m)}
        pool = lowerbound._loser_pool(expr, k, seed)
        assert 1 <= len(pool) <= k
        assert len(set(pool)) == len(pool)
        assert set(pool) <= oracles.maximal_masks(losers, n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_exact_clique_is_never_smaller_than_the_greedy(self, n, k, seed):
        expr = oracles.random_expr(random.Random(seed), n)
        pool = [Coalition(m, n) for m in lowerbound._loser_pool(expr, k, seed)]
        report = search_certificate_set(expr, pool_budget=k, seed=seed)
        assert report.fully_certified
        assert set(report.coalitions) <= set(pool)
        assert report.lower_bound >= len(greedy_clique(expr, pool))
        # The report is the clique's own check, in pool order.
        assert report == verify_certificate_set(expr, report.coalitions)

    def test_verifies_only_its_clique(self, monkeypatch):
        # The pool's pairs leave adjacency bits only; the one report is the clique's.
        verify, sizes = lowerbound.verify_certificate_set, []

        def spy(expr, coalitions):
            sizes.append(len(coalitions))
            return verify(expr, coalitions)

        monkeypatch.setattr(lowerbound, "verify_certificate_set", spy)
        rule = data.build_eu_rule(data.builtin_table("2014"))
        report = search_certificate_set(rule.expr, pool_budget=16, seed=0)
        assert sizes == [report.lower_bound]

    def test_two_chamber_game_reaches_two(self):
        report = search_certificate_set(two_chamber_game())
        assert report.lower_bound == 2
        assert {s.mask for s in report.coalitions} == {0b0011, 0b1100}
        assert report.fully_certified

    def test_same_seed_is_deterministic(self):
        game = two_chamber_game()
        first = search_certificate_set(game, seed=7)
        second = search_certificate_set(game, seed=7)
        assert first == second
        # Any integer seeds the pool, negative ones included.
        assert search_certificate_set(game, seed=-7) == search_certificate_set(game, seed=-7)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            search_certificate_set(unit_game(2, 2), pool_budget=0)

    def test_status_strings_are_frozen(self):
        assert STATUS_CERTIFIED == "certified"
        assert STATUS_NO_CERTIFICATE == "no-certificate"
        assert STATUS_NOT_ATTEMPTED == "not-attempted"


class TestMaxClique:
    @given(st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, k, seed):
        rng = random.Random(seed)
        density = rng.random()
        adjacent = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < density:
                    adjacent[i] |= 1 << j
                    adjacent[j] |= 1 << i
        got = lowerbound._max_clique(adjacent)
        vertices = [v for v in range(k) if got >> v & 1]
        assert all(adjacent[u] >> v & 1 for u in vertices for v in vertices if u != v)
        best = max(
            (
                s.bit_count()
                for s in range(1 << k)
                if all(s & ~(adjacent[v] | 1 << v) == 0 for v in range(k) if s >> v & 1)
            ),
            default=0,
        )
        assert len(vertices) == best
