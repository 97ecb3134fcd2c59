"""Pairwise-incompatibility certificates and lower-bound sets."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from votedim import data, lowerbound
from votedim.games import Coalition, WeightedGame, all_of, unit_game
from votedim.lowerbound import (
    DELTA_CAP,
    DeltaTooLarge,
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


class TestCertificateValidation:
    def test_valid_certificate(self):
        a = Coalition(0b0011, 4)
        b = Coalition(0b1100, 4)
        cert = IncompatibilityCertificate(
            a=a,
            b=b,
            x=Coalition(0b0101, 4),
            p=Coalition(0b0101, 4),
            q=Coalition(0b1010, 4),
        )
        assert cert.p.union(cert.q) == a.union(b)
        assert cert.p.intersection(cert.q) == a.intersection(b)

    def test_x_outside_delta(self):
        a = Coalition(0b0111, 4)
        b = Coalition(0b0101, 4)  # delta = {1}
        with pytest.raises(ValueError, match="subset of the symmetric"):
            IncompatibilityCertificate(
                a, b, Coalition(0b1000, 4), Coalition(0b1101, 4), Coalition(0b0111, 4)
            )

    def test_p_mismatch(self):
        a = Coalition(0b0011, 4)
        b = Coalition(0b1100, 4)
        with pytest.raises(ValueError, match="p must equal"):
            IncompatibilityCertificate(
                a, b, Coalition(0b0001, 4), Coalition(0b0011, 4), Coalition(0b1110, 4)
            )

    def test_q_mismatch(self):
        a = Coalition(0b0011, 4)
        b = Coalition(0b1100, 4)
        with pytest.raises(ValueError, match="q must equal"):
            IncompatibilityCertificate(
                a, b, Coalition(0b0001, 4), Coalition(0b0001, 4), Coalition(0b0110, 4)
            )


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

    def test_delta_cap(self):
        game = two_chamber_game()
        with pytest.raises(DeltaTooLarge) as excinfo:
            find_certificate(
                game, Coalition(0b0011, 4), Coalition(0b1100, 4), delta_cap=2
            )
        assert excinfo.value.size == 4
        assert excinfo.value.cap == 2
        assert DELTA_CAP == 30

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

    def test_delta_cap_marks_pair_not_attempted(self):
        report = verify_certificate_set(
            two_chamber_game(),
            [Coalition(0b0011, 4), Coalition(0b1100, 4)],
            delta_cap=2,
        )
        assert report.pairs[0].status == STATUS_NOT_ATTEMPTED
        assert report.lower_bound is None

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
        # n = 27, 3.57 M maximal losers.  numpy reports its buffers to
        # tracemalloc.  Listing them into one buffer and keying them in one
        # more reads 3.6 tables; a chunk list plus its concatenation, or
        # extra full-size key temporaries, read 5.1.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        tracemalloc.start()
        try:
            report = search_certificate_set(rule.expr, pool_budget=32, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.lower_bound == 2
        assert peak < 4.0 * (1 << rule.n) / 8

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

    @given(st.integers(1, 32), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_pool_takes_the_heaviest_masks_first(self, n, k, seed):
        rng = random.Random(seed)
        masks = sorted({rng.getrandbits(n) for _ in range(rng.randint(1, 60))})
        expected = sorted(masks, key=lambda m: (-m.bit_count(), m))[:k]
        assert lowerbound._heaviest(np.array(masks, dtype=np.int64), n, k) == expected

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budgets"):
            search_certificate_set(unit_game(2, 2), pool_budget=0)

    def test_status_strings_are_frozen(self):
        assert STATUS_CERTIFIED == "certified"
        assert STATUS_NO_CERTIFICATE == "no-certificate"
        assert STATUS_NOT_ATTEMPTED == "not-attempted"
