"""Pairwise-incompatibility certificates and lower-bound sets."""

import random
import time
import tracemalloc
from itertools import accumulate, combinations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from greedy_clique import greedy_clique
from votedim import data, lowerbound, sweep
from votedim.games import (
    Coalition,
    UniverseMismatchError,
    WeightedGame,
    all_of,
    any_of,
    unit_game,
)
from votedim.lowerbound import (
    IncompatibilityCertificate,
    STATUS_CERTIFIED,
    STATUS_NO_CERTIFICATE,
    STATUS_NOT_ATTEMPTED,
    find_certificate,
    search_certificate_set,
    verify_certificate_set,
)


DATA = Path(__file__).resolve().parent / "data"
SUM_WITHIN = lowerbound._sum_within


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


def pool_rule(name: str):
    """The rule of a bundled year, of 2018 without the UK, or of synthetic32.csv."""
    if name == "noUK":
        return data.build_eu_rule(data.builtin_table("2018"), ["United Kingdom"])
    if name == "synthetic32":
        return data.build_eu_rule(data.load_table((DATA / "synthetic32.csv").read_text(encoding="utf-8")))
    return data.build_eu_rule(data.builtin_table(name))


def unit_and_vector_tree(rng: random.Random, n: int, weights: tuple[int, ...], depth: int = 2):
    """A random AND/OR tree whose leaves weigh every player 1, or by ``weights``.

    Quotas lie between a third and two thirds of the leaf's total weight.
    """
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(((1,) * n, weights))
        total = sum(leaf)
        return WeightedGame(leaf, rng.randint(total // 3 + 1, 2 * total // 3 + 1))
    children = [unit_and_vector_tree(rng, n, weights, depth - 1) for _ in range(rng.randint(2, 3))]
    return rng.choice((all_of, any_of))(*children)


def checked_sum_within(weights, top, stack):
    """``lowerbound._sum_within``, once every entry is checked to need a branch."""
    for i, k, lo, hi in stack:
        # The k lightest weigh below lo and the k heaviest above hi.
        assert i == 0 and top[-1] - top[len(weights) - k] < lo <= hi < top[k]
    return SUM_WITHIN(weights, top, stack)


@pytest.fixture
def low_halves(monkeypatch):
    """The low-player weight vectors passed to ``lowerbound._low_half`` during the test."""
    calls = []
    low_half = lowerbound._low_half

    def spy(weights, width):
        calls.append(weights)
        return low_half(weights, width)

    monkeypatch.setattr(lowerbound, "_low_half", spy)
    return calls


def searched_no_uk_pair(n: int) -> tuple[Coalition, Coalition]:
    """Two 15-member losers of 2018 without the UK, sharing its 3 smallest members.

    The even and the odd players among the other 24 split their difference.
    """
    base = 0b111 << 24
    return (
        Coalition(base | sum(1 << j for j in range(0, 24, 2)), n),
        Coalition(base | sum(1 << j for j in range(1, 24, 2)), n),
    )


class TestCertificateValidation:
    def test_valid_certificate(self):
        a = Coalition(0b0011, 4)
        b = Coalition(0b1100, 4)
        cert = IncompatibilityCertificate(a, b, Coalition(0b0101, 4))
        assert cert.p == Coalition(0b0101, 4)
        assert cert.q == Coalition(0b1010, 4)
        assert cert.p.mask | cert.q.mask == a.mask | b.mask
        assert cert.p.mask & cert.q.mask == a.mask & b.mask

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
        assert cert.p == Coalition((a_mask & b_mask) | x.mask, n)
        assert cert.q == Coalition((a_mask | b_mask) & ~x.mask, n)
        assert cert.p.mask | cert.q.mask == a_mask | b_mask
        assert cert.p.mask & cert.q.mask == a_mask & b_mask


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
        # both reach it.  All 2^25 splits are searched, in 2^5 chunks, within
        # the chunk budget of the next test.
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

    def test_memory_is_bounded_by_the_chunk_on_a_searched_pair(self, low_halves):
        # This pair has members enough for two count-game halves, 15 + 15
        # against a quota of 15, and still has no certificate, because both
        # halves cannot hold 65 % of the population: all 2^23 splits of its
        # 24-player difference are searched, in 2^3 chunks.  The search holds
        # 2^11 + 1 row patterns of 256 bytes per distinct vector of low-player
        # weights (two here, unit and population weights, about 0.6 MB each)
        # and, per chunk, a few bitsets of 2^_CHUNK_BITS bits.  Budget: 32
        # such bitsets, 4 MB at the default chunk, whatever |Δ|.
        rule = data.build_eu_rule(data.builtin_table("2018"), ["United Kingdom"])
        a, b = searched_no_uk_pair(rule.n)
        tracemalloc.start()
        try:
            cert = find_certificate(rule.expr, a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert is None
        assert len(low_halves) == 2
        assert peak < 32 * (1 << lowerbound._CHUNK_BITS) // 8

    def test_certificate_contradicts_grid_oracle(self):
        # Where a certificate exists, the exhaustive weight grid agrees that
        # no single weighted game keeps both coalitions losing; where the
        # game is itself weighted, the grid finds one and the search fails.
        game = two_chamber_game()
        assert not oracles.single_weighted_game_exists(game, 0b0011, 0b1100, 4)
        weighted = unit_game(3, 4)
        assert oracles.single_weighted_game_exists(weighted, 0b0011, 0b1100, 4)


class TestCertifiable:
    @pytest.mark.parametrize("name", ["2014", "2016", "2017", "2018", "noUK", "synthetic32"])
    def test_matches_the_split_search_on_every_pool_pair(self, name):
        # One decider for the whole pool, as the search uses it.
        expr = pool_rule(name).expr
        pool = [Coalition(m, expr.n) for m in lowerbound._loser_pool(expr, 32, 1)]
        decide = lowerbound._pair_decider(expr)
        for a, b in combinations(pool, 2):
            assert decide(a, b) == (find_certificate(expr, a, b) is not None)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    # Pairs whose deciding box has its lightest sum on the interval's lower end.
    @example(10, 13)
    @example(12, 14)
    def test_matches_the_oracle_on_unit_and_one_vector_trees(self, n, seed):
        rng = random.Random(seed)
        # Spread-out weights, or weights alike but for a few players.
        spread = rng.choice(((0, 1, 2, 3, 5, 8, 13, 21), (1, 1, 1, 1, 1, 1, 1, 2)))
        weights = tuple(rng.choice(spread) for _ in range(n - 1)) + (1,)
        expr = unit_and_vector_tree(rng, n, weights)
        losers = [m for m in range(1 << n) if not oracles.wins(expr, m)]
        masks = lowerbound._loser_pool(expr, 8, seed) + rng.choices(losers, k=2)
        # A cap that no pair of at most 12 players reaches.
        with mock.patch.object(lowerbound, "_NODE_CAP", 1 << 14), mock.patch.object(
            lowerbound, "_sum_within", checked_sum_within
        ):
            for a, b in combinations(masks, 2):
                want = oracles.pair_certifiable(expr, a, b, n)
                pair = Coalition(a, n), Coalition(b, n)
                assert lowerbound._pair_decider(expr)(*pair) == want
                assert (find_certificate(expr, *pair) is not None) == want

    def test_every_small_rule_is_answered_and_matches_the_oracle(self):
        # Every rule count(c) AND (g OR unit(v)) on 2 to 4 players: every
        # distinct weighted game g with weights 0..4 (0..6 gives the same
        # games), every count quota c and veto quota v, and every pair of the
        # rule's maximal losers.  None of these pairs certifies (nor any of
        # the 1,914,445 at n = 5), so this checks the decider's False answers;
        # the pool pairs above check its True ones.
        pairs = 0
        for n, distinct in ((2, 4), (3, 18), (4, 148)):
            games = oracles.small_weighted_games(n, 4)
            assert len(games) == distinct
            for g, c, v in product(games, range(1, n + 1), range(1, n + 1)):
                rule = all_of(unit_game(c, n), any_of(g, unit_game(v, n)))
                losers = {m for m in range(1 << n) if not oracles.wins(rule, m)}
                decide = lowerbound._pair_decider(rule)
                for a, b in combinations(sorted(oracles.maximal_masks(losers, n)), 2):
                    answer = decide(Coalition(a, n), Coalition(b, n))
                    assert answer is False
                    assert not oracles.pair_certifiable(rule, a, b, n), (rule, a, b)
                    pairs += 1
        assert pairs == 17_499

    def test_every_six_player_rule_with_certified_pairs_matches_the_oracle(self):
        # Every rule count(c) AND (g OR unit(v)) on 6 players where g has
        # weights non-increasing in 0..1 (21 games): up to relabelling, every
        # such rule with weights 0..1, since the count and veto games are
        # symmetric.  14 of its maximal-loser pairs certify, so this checks
        # the decider's True answers as well as its False ones.
        n = 6
        ones = [(1,) * k + (0,) * (n - k) for k in range(1, n + 1)]
        games = [WeightedGame(w, q) for w in ones for q in range(1, sum(w) + 1)]
        rules = pairs = certified = 0
        for g, c, v in product(games, range(1, n + 1), range(1, n + 1)):
            rule = all_of(unit_game(c, n), any_of(g, unit_game(v, n)))
            losers = {m for m in range(1 << n) if not oracles.wins(rule, m)}
            decide = lowerbound._pair_decider(rule)
            for a, b in combinations(sorted(oracles.maximal_masks(losers, n)), 2):
                pair = Coalition(a, n), Coalition(b, n)
                want = oracles.pair_certifiable(rule, a, b, n)
                assert decide(*pair) is want, (rule, a, b)
                if want:
                    assert find_certificate(rule, *pair) is not None
                pairs, certified = pairs + 1, certified + want
            rules += 1
        assert (len(games), rules, pairs, certified) == (21, 756, 58_535, 14)

    @pytest.mark.parametrize("weights", [(1, 1, 1, 1, 0), (2, 1, 1, 1, 1, 1), (1, 1, 3, 1, 1, 1, 1)])
    def test_a_weighted_game_certifies_no_pair(self, weights):
        # One weighted game keeps every pair of its losers losing, whatever its
        # quota.  Weights alike but for one player make no uniform leaf.
        n = len(weights)
        for quota in range(1, sum(weights) + 1):
            game = WeightedGame(weights, quota)
            losers = [Coalition(m, n) for m in range(1 << n) if not game.evaluate(Coalition(m, n))]
            decide = lowerbound._pair_decider(game)
            assert {decide(a, b) for a, b in combinations(losers, 2)} <= {False}

    def test_two_vectors_on_the_difference_are_not_answered(self):
        a, b = Coalition(0b00110, 5), Coalition(0b11000, 5)
        mixed = all_of(WeightedGame((0, 1, 2, 3, 4), 6), WeightedGame((0, 4, 3, 2, 1), 6))
        assert not mixed.evaluate(a) and not mixed.evaluate(b)
        assert lowerbound._pair_decider(mixed)(a, b) is None
        # Weights that differ only outside the difference are one vector on it.
        same = all_of(WeightedGame((0, 1, 2, 3, 4), 6), WeightedGame((9, 1, 2, 3, 4), 15))
        assert lowerbound._pair_decider(same)(a, b) == (find_certificate(same, a, b) is not None)

    @pytest.mark.parametrize("light, expected", [((1, 2, 3, 4), True), ((2, 2, 2, 4), False)])
    def test_an_inner_interval_goes_to_the_branch_and_bound(self, monkeypatch, light, expected):
        # a holds the two players of weight 10, too few for the count quota 3;
        # b the four light ones, 10 of the 30 units and short of the quota 15.
        # Both halves win iff they hold 3 players and exactly 15 units, and the
        # 3-player sums run from the 3 lightest to 10 + 10 + 4 = 24, so 15 lies
        # strictly between the extremes.  1 + 4 + 10 reaches it; with the even
        # light weights the sums jump from 14 to 16.
        expr = all_of(unit_game(3, 6), WeightedGame((10, 10) + light, 15))
        a, b = Coalition(0b000011, 6), Coalition(0b111100, 6)
        within, stacks = lowerbound._sum_within, []

        def spy(weights, top, stack):
            stacks.append(list(stack))
            return within(weights, top, stack)

        monkeypatch.setattr(lowerbound, "_sum_within", spy)
        assert lowerbound._pair_decider(expr)(a, b) is expected
        assert stacks == [[(0, 3, 15, 15)]]
        assert oracles.pair_certifiable(expr, a.mask, b.mask, 6) is expected
        assert (find_certificate(expr, a, b) is not None) is expected

    def test_only_strictly_inner_intervals_reach_the_branch_and_bound(self, monkeypatch):
        seen = []

        def spy(weights, top, stack):
            seen.extend(stack)
            return checked_sum_within(weights, top, stack)

        monkeypatch.setattr(lowerbound, "_sum_within", spy)
        expr = pool_rule("noUK").expr
        pool = [Coalition(m, expr.n) for m in lowerbound._loser_pool(expr, 32, 1)]
        decide = lowerbound._pair_decider(expr)
        for a, b in combinations(pool, 2):
            decide(a, b)
        assert seen

    def test_an_extreme_inside_the_interval_answers_at_once(self, monkeypatch):
        # The 3 heaviest of these weigh 24 and the 3 lightest 6, so one node
        # settles [20, 24], [6, 9] and [25, 30]; [15, 15] needs a branch.
        monkeypatch.setattr(lowerbound, "_NODE_CAP", 1)
        weights = [10, 10, 4, 3, 2, 1]
        top = list(accumulate(weights, initial=0))
        assert lowerbound._sum_within(weights, top, [(0, 3, 20, 24)]) is True
        assert lowerbound._sum_within(weights, top, [(0, 3, 6, 9)]) is True
        assert lowerbound._sum_within(weights, top, [(0, 3, 25, 30)]) is False
        assert lowerbound._sum_within(weights, top, [(0, 3, 15, 15)]) is None

    def test_a_pair_past_the_node_cap_is_not_answered(self):
        # 24 even weights that halve to the odd 4,333.  Both halves must hold
        # 12 players and exactly 4,333 units, which no subset reaches, and the
        # branch and bound's bounds cannot see parity.
        n = 24
        weights = tuple(2 * (100 + 7 * j + (j == 0)) for j in range(n))
        expr = all_of(unit_game(12, n), WeightedGame(weights, sum(weights) // 2))
        a = Coalition(((1 << 11) - 1) << 13, n)  # the 11 heaviest: too few
        b = Coalition((1 << 13) - 1, n)  # the 13 lightest: too light
        assert lowerbound._pair_decider(expr)(a, b) is None
        assert find_certificate(expr, a, b) is None

    def test_the_search_asks_the_split_search_when_unanswered(self, monkeypatch):
        # With no nodes allowed, every pair that needs the branch and bound is
        # unanswered, and the search must still find the same clique.
        expr = pool_rule("2014").expr
        want = search_certificate_set(expr, pool_budget=16, seed=0)
        monkeypatch.setattr(lowerbound, "_NODE_CAP", 0)
        pool = [Coalition(m, expr.n) for m in lowerbound._loser_pool(expr, 16, 0)]
        decide = lowerbound._pair_decider(expr)
        unanswered = [pair for pair in combinations(pool, 2) if decide(*pair) is None]
        search, searched = lowerbound.find_certificate, []

        def spy(*args):
            searched.append(args[1:])
            return search(*args)

        monkeypatch.setattr(lowerbound, "find_certificate", spy)
        assert search_certificate_set(expr, pool_budget=16, seed=0) == want
        assert unanswered
        assert searched == unanswered + list(combinations(want.coalitions, 2))

    def test_search_runs_the_split_search_on_its_clique_only(self, monkeypatch):
        expr = pool_rule("noUK").expr
        search, searched = lowerbound.find_certificate, []

        def spy(*args):
            searched.append(args[1:])
            return search(*args)

        monkeypatch.setattr(lowerbound, "find_certificate", spy)
        report = search_certificate_set(expr, pool_budget=32, seed=1)
        assert report.lower_bound == 7
        assert searched == list(combinations(report.coalitions, 2))

    def test_identical_and_neighbouring_coalitions_are_not_certifiable(self):
        decide = lowerbound._pair_decider(unit_game(3, 4))
        assert decide(Coalition(0b0011, 4), Coalition(0b0011, 4)) is False
        assert decide(Coalition(0b0011, 4), Coalition(0b0001, 4)) is False

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            lowerbound._pair_decider(unit_game(1, 3))(Coalition(0, 4), Coalition(1, 4))


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

    def test_the_decider_settles_a_pair_before_any_row_pattern(self, low_halves):
        # On 2018 without the UK the count game (quota 15) sits under the root
        # AND, so two losers of 14 members cannot split into two winning halves.
        rule = data.build_eu_rule(data.builtin_table("2018"), ["United Kingdom"])
        a = Coalition((1 << 14) - 1, rule.n)
        b = Coalition(((1 << 14) - 1) << 13, rule.n)
        assert len(a) + len(b) < 2 * rule.member_quota
        report = verify_certificate_set(rule.expr, [a, b])
        assert report.pairs[0].status == STATUS_NO_CERTIFICATE
        assert low_halves == []
        # The first two coalitions of the bundled 8-set are searched.
        a = Coalition(rule.mask_from_labels([1, 2, 7, 8, *range(10, 29)]), rule.n)
        b = Coalition(rule.mask_from_labels([2, 4, 5, 9, *range(10, 29)]), rule.n)
        report = verify_certificate_set(rule.expr, [a, b])
        assert report.pairs[0].status == STATUS_CERTIFIED
        assert low_halves != []

    def test_a_pair_the_decider_leaves_open_is_searched(self, monkeypatch):
        # The two leaves weigh the difference of a and b by two distinct
        # vectors, so the decider gives no answer; the split {1, 3} certifies.
        # c differs from a in one player, which the decider rules out.
        game = all_of(WeightedGame((0, 1, 2, 3, 4), 4), WeightedGame((0, 4, 3, 2, 1), 4))
        a, b, c = Coalition(0b00110, 5), Coalition(0b11000, 5), Coalition(0b00010, 5)
        decide = lowerbound._pair_decider(game)
        answers = {pair: decide(*pair) for pair in combinations((a, b, c), 2)}
        assert answers[a, b] is None and answers[a, c] is False
        search, searched = lowerbound.find_certificate, []

        def spy(*args):
            searched.append(args[1:])
            return search(*args)

        monkeypatch.setattr(lowerbound, "find_certificate", spy)
        report = verify_certificate_set(game, [a, b, c])
        assert report.losing == (True, True, True)
        assert report.pairs[0].status == STATUS_CERTIFIED
        assert report.pairs[0].certificate.x.mask == 0b01010
        assert report.pairs[1].status == STATUS_NO_CERTIFICATE
        assert searched == [pair for pair, answer in answers.items() if answer is not False]

    def test_a_product_of_unions_is_left_to_the_split_search(self, monkeypatch):
        # An AND of 16 two-leaf ORs expands into 2^16 terms, past _TERM_CAP,
        # so the decider answers None without expanding it (0.34 s and a
        # 12 MB peak when it did) and every losing pair is searched.
        union = any_of(WeightedGame((1, 1, 0, 0), 2), WeightedGame((0, 0, 1, 1), 2))
        game = all_of(*[union] * 16)
        coalitions = [Coalition(m, 4) for m in (0b0101, 0b1010, 0b1001, 0b0110)]
        start = time.perf_counter()
        report = verify_certificate_set(game, coalitions)
        elapsed = time.perf_counter() - start
        assert lowerbound._pair_decider(game)(*coalitions[:2]) is None
        with pytest.raises(UniverseMismatchError):
            lowerbound._pair_decider(game)(Coalition(0b01, 5), Coalition(0b10, 5))
        monkeypatch.setattr(lowerbound, "_pair_decider", lambda expr: lambda a, b: None)
        assert verify_certificate_set(game, coalitions) == report
        assert [p.status for p in report.pairs].count(STATUS_CERTIFIED) == 2
        assert elapsed < 0.05

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
        # n = 27.  The pool is drawn without a table, its pairs are decided
        # by arithmetic and the split search runs on Python-int bitsets, so
        # nothing of 2^n bits is held.  The search peaks at 0.16 MB (0.11-0.16
        # MB at seeds 2, 3 and 4242); the bound, 1 MiB, is 6.6 times that.  A
        # 2^27-bit table takes 16.8 MB.
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
