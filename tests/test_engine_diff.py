"""Differential tests of the word-array sweep engine.

Against the definition-level oracles at n = 1..12 (n < 6 is the case where a
table is smaller than one word) and bit for bit against the frozen big-integer
engine in ``bigint_engine.py`` at n = 20, where the oracles are too slow.
The rewrite's closed-form frontier is compared with both engines' folds of
the boosted games it emits, the rank-gather win tables with the packbits
fill they replaced, the two-table certificate split search with the
bit-matrix search it replaced, and the walked union rewrite with the
whole-table rewrite frozen in ``table_rewrite.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bigint_engine
import oracles
import table_rewrite
from votedim import data, decompose, lowerbound, sweep
from votedim.decompose import METHOD_CORE_BOOST, EmptyCoreError, union_as_intersection
from votedim.games import MAX_TOTAL_WEIGHT, Coalition, WeightedGame, all_of, any_of, unit_game

rngs = st.integers(0, 2**32 - 1).map(random.Random)
small_n = st.integers(1, 12)
LARGE_N = 20
# Fold block sizes in bits: one word (rows shrink to it), one row, and the
# module's own.
block_bits = st.sampled_from((6, 8, sweep._RANK_BITS, sweep._BLOCK_BITS))


def random_bits(rng: random.Random, n: int) -> int:
    """A dense random table for small universes, else a few members."""
    if n <= 8 and rng.random() < 0.5:
        return rng.getrandbits(1 << n)
    return oracles.table_of(rng.randrange(1 << n) for _ in range(rng.randint(0, 5)))


def indicator_veto(rng: random.Random, n: int) -> WeightedGame:
    while True:
        weights = tuple(rng.randint(0, 1) for _ in range(n))
        if any(weights):
            return WeightedGame(weights, 1)


def random_leaf(rng: random.Random, n: int) -> WeightedGame:
    """A weighted game, an indicator veto every fourth draw on average."""
    if rng.random() < 0.25:
        return indicator_veto(rng, n)
    return oracles.random_game(rng, n, max_weight=rng.choice((1, 8, 50)))


def grouped_veto_expr(rng: random.Random, n: int):
    """An AND node with 1-10 quota-1 leaves, some with weights above 1.

    ``expr_table`` folds every quota-1 leaf under an AND into one shared
    down-closure.
    """
    vetoes = []
    for _ in range(rng.randint(1, 10)):
        scale = rng.choice((1, 1, 3))
        weights = indicator_veto(rng, n).weights
        vetoes.append(WeightedGame(tuple(scale * w for w in weights), 1))
    return all_of(oracles.random_game(rng, n), *vetoes)


def heavy_game(rng: random.Random, n: int, core=()) -> WeightedGame:
    """Zero weights allowed; a high quota, or one only supersets of ``core`` meet."""
    weights = [rng.randint(0, rng.choice((1, 3, 8))) for _ in range(n)]
    for k in core:
        weights[k] = max(1, weights[k])
    weights[rng.randrange(n)] |= 1
    total = sum(weights)
    if core:
        return WeightedGame(tuple(weights), total - min(weights[k] for k in core) + 1)
    return WeightedGame(tuple(weights), rng.randint((total + 1) // 2, total))


def union_pair(rng: random.Random, n: int) -> tuple[WeightedGame, WeightedGame]:
    """A pair whose gap is often non-empty, and every other time has a core."""
    core = rng.sample(range(n), rng.randint(1, n)) if rng.random() < 0.5 else ()
    return heavy_game(rng, n), heavy_game(rng, n, core)


def collapsed_and_unfused(rng: random.Random, n: int, unfused_frontier):
    """The rewrite's frontier and ``unfused_frontier(up, down)``, or None."""
    first, second = union_pair(rng, n)
    try:
        dec = union_as_intersection(first, second)
    except EmptyCoreError:
        return None
    if dec.method != METHOD_CORE_BOOST:
        assert dec.frontier == ()
        return None
    boosted = dec.games[: len(dec.common_core_players())]
    up = boosted[0] if len(boosted) == 1 else all_of(*boosted)
    got = [s.mask for s in dec.frontier]
    return got, unfused_frontier(up, any_of(first, second))


def table(bits: int, n: int):
    return oracles.int_to_table(bits, n)


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(small_n, rngs)
    def test_win_table(self, n, rng):
        game = random_leaf(rng, n)
        got = oracles.table_to_int(sweep.win_table(game))
        assert got == oracles.table_of(oracles.winning_masks(game, n))

    @settings(max_examples=60, deadline=None)
    @given(small_n, rngs)
    def test_closures(self, n, rng):
        bits = random_bits(rng, n)
        members = sweep.table_members(table(bits, n))
        down = sweep.down_closure(table(bits, n), n)
        up = sweep.up_closure(table(bits, n), n)
        assert oracles.table_to_int(down) == oracles.table_of(oracles.down_set(members))
        assert oracles.table_to_int(up) == oracles.table_of(oracles.up_set(members, n))

    @settings(max_examples=60, deadline=None)
    @given(small_n, rngs)
    def test_maximal(self, n, rng):
        bits = random_bits(rng, n)
        members = {m for m in range(1 << n) if bits >> m & 1}
        expected = oracles.maximal_masks(members, n)
        # _maximal_bits expects a down-closed table; closing keeps the maximal elements.
        closed_table = sweep.down_closure(table(bits, n), n)
        listed = sweep.member_array(sweep._maximal_bits(closed_table, n))
        assert listed.tolist() == sorted(expected)
        # The same, bit for bit, on a table closed by the oracle.
        closed = oracles.table_of(oracles.down_set(members))
        got = sweep._maximal_bits(table(closed, n), n)
        assert oracles.table_to_int(got) == oracles.table_of(expected)
        assert got.bit_count() == len(expected)

    @settings(max_examples=60, deadline=None)
    @given(small_n, rngs)
    def test_queries(self, n, rng):
        bits = random_bits(rng, n)
        members = [m for m in range(1 << n) if bits >> m & 1]
        game = oracles.random_game(rng, n)
        t = table(bits, n)
        assert sweep.table_members(t) == members
        assert t.bit_count() == len(members)
        common = (1 << n) - 1
        for m in members:
            common &= m
        assert sweep.players_in_all(*oracles.run_of(t), n) == common
        assert sweep.min_member_weight(game, *oracles.run_of(t)) == min(
            (oracles.weight_of(game.weights, m) for m in members), default=None
        )
        flipped = oracles.table_to_int(sweep.complement(t, n))
        assert flipped == ((1 << (1 << n)) - 1) ^ bits

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), rngs)
    def test_expr_table_with_grouped_vetoes(self, n, rng):
        expr = grouped_veto_expr(rng, n)
        got = oracles.table_to_int(sweep.expr_table(expr))
        assert got == oracles.table_of(oracles.winning_masks(expr, n))

    @settings(max_examples=60, deadline=None)
    @given(small_n, rngs)
    def test_smallest_counterexample(self, n, rng):
        a, b = oracles.random_expr(rng, n), oracles.random_expr(rng, n)
        differ = [m for m in range(1 << n) if oracles.wins(a, m) != oracles.wins(b, m)]
        result = sweep.equivalent(a, b)
        assert bool(result) == (not differ)
        if differ:
            assert result.counterexample.mask == differ[0]


class TestAgainstBigIntEngine:
    @settings(max_examples=15, deadline=None)
    @given(rngs)
    def test_win_table_and_closures(self, rng):
        n = LARGE_N
        game = random_leaf(rng, n)
        expected = bigint_engine.win_table(game)
        got = sweep.win_table(game)
        assert oracles.table_to_int(got) == expected
        for bits in (expected, random_bits(rng, n)):
            down = sweep.down_closure(table(bits, n), n)
            up = sweep.up_closure(table(bits, n), n)
            assert oracles.table_to_int(down) == bigint_engine.down_closure(bits, n)
            assert oracles.table_to_int(up) == bigint_engine.up_closure(bits, n)

    @settings(max_examples=15, deadline=None)
    @given(rngs)
    def test_maximal_and_queries(self, rng):
        n = LARGE_N
        game = oracles.random_game(rng, n, max_weight=50)
        sparse = random_bits(rng, n)
        losing = bigint_engine.full_table(n) ^ bigint_engine.win_table(game)
        for bits in (sparse, losing):
            t = table(bits, n)
            assert sweep.table_members(t) == bigint_engine.table_members(bits, n)
            assert t.bit_count() == bits.bit_count()
            run = oracles.run_of(t)
            assert sweep.players_in_all(*run, n) == bigint_engine.players_in_all(bits, n)
            assert sweep.min_member_weight(game, *run) == bigint_engine.min_member_weight(
                game, bits
            )
            got = sweep._maximal_bits(table(bits, n), n)
            assert oracles.table_to_int(got) == bigint_engine.maximal_bits(bits, n)
            # bigint_engine.maximal_elements closes its input first.
            maximal = sweep._maximal_bits(sweep.down_closure(t, n), n)
            assert sweep.member_array(maximal).tolist() == bigint_engine.maximal_elements(bits, n)

    @settings(max_examples=10, deadline=None)
    @given(rngs)
    def test_expr_table_and_first_difference(self, rng):
        n = LARGE_N
        grouped = grouped_veto_expr(rng, n)
        got = oracles.table_to_int(sweep.expr_table(grouped))
        assert got == bigint_engine.expr_table(grouped)
        a, b = oracles.random_expr(rng, n), oracles.random_expr(rng, n)
        expected = bigint_engine.first_difference(a, b)
        result = sweep.equivalent(a, b)
        assert (None if result else result.counterexample.mask) == expected


def block_expr(rng: random.Random, n: int):
    """A random expression, a grouped-veto AND, or a union of the two."""
    kind = rng.choice(("plain", "grouped", "mixed"))
    if kind == "plain":
        return oracles.random_expr(rng, n)
    if kind == "grouped":
        return grouped_veto_expr(rng, n)
    return any_of(oracles.random_expr(rng, n), grouped_veto_expr(rng, n))


class TestBlockFold:
    """The block-by-block fold against whole-table references.

    With one-word blocks, the smallest legal size, n <= 12 spans up to 64
    blocks.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), rngs)
    def test_against_bigint_engine(self, n, rng):
        a, b = block_expr(rng, n), block_expr(rng, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "_BLOCK_BITS", 6)
            table = sweep.expr_table(a)
            result = sweep.equivalent(a, b)
            assert bool(sweep.equivalent(a, a))
        assert oracles.table_to_int(table) == bigint_engine.expr_table(a)
        expected = bigint_engine.first_difference(a, b)
        assert (None if result else result.counterexample.mask) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 12), rngs)
    def test_difference_only_in_a_later_block(self, n, rng):
        # ``extra`` wins only coalitions holding both top players, so every
        # difference lies at mask >= 2^(n-1) + 2^(n-2), past the first
        # 3 * 2^(n-8) blocks; the fold draws no block after the differing one.
        base = block_expr(rng, n)
        extra = WeightedGame((0,) * (n - 2) + (1, 1), 2)
        widened = any_of(base, all_of(extra, oracles.random_game(rng, n)))
        drawn = []
        blocks = sweep._blocks

        def counting(fill, n, table=None):
            for k, block in enumerate(blocks(fill, n, table)):
                drawn.append(k)
                yield block

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "_BLOCK_BITS", 6)
            patch.setattr(sweep, "_blocks", counting)
            result = sweep.equivalent(base, widened)
        differ = [m for m in range(1 << n) if oracles.wins(base, m) != oracles.wins(widened, m)]
        if not differ:
            assert result
            return
        mask = result.counterexample.mask
        assert mask == differ[0] >= (1 << (n - 1)) + (1 << (n - 2))
        assert max(drawn) == mask >> 6

    def test_corrupted_boost_witness_2014(self, monkeypatch):
        # Every boosted copy one unit short of the derived boost (as in
        # test_cli's corrupted-boost check): the witness lies in the last of
        # the 64 blocks.  evaluate_many, which reads partial sums and not the
        # fold, finds it the first difference of its block.
        boosted = decompose._boosted_games
        monkeypatch.setattr(
            decompose,
            "_boosted_games",
            lambda base, core, boost: boosted(base, core, boost - 1),
        )
        rule = data.build_eu_rule(data.builtin_table("2014"))
        emitted = all_of(*decompose.analyze_rule(rule).games)
        result = sweep.equivalent(rule.expr, emitted)
        assert not result
        witness = result.counterexample
        assert witness.mask >> sweep._BLOCK_BITS == (1 << (rule.n - sweep._BLOCK_BITS)) - 1
        assert rule.expr.evaluate(witness) and not emitted.evaluate(witness)
        first = witness.mask >> sweep._BLOCK_BITS << sweep._BLOCK_BITS
        # 2^18 masks at a time: a few MB of weights per leaf.
        for start in range(first, witness.mask + 1, 1 << 18):
            masks = np.arange(start, min(start + (1 << 18), witness.mask + 1), dtype=np.int64)
            differ = sweep.evaluate_many(rule.expr, masks) != sweep.evaluate_many(emitted, masks)
            assert np.flatnonzero(differ).tolist() == (
                [masks.size - 1] if masks[-1] == witness.mask else []
            )


class TestCollapsedFrontier:
    """The closed-form frontier table against folds of every boosted game."""

    @settings(max_examples=150, deadline=None)
    @given(small_n, rngs)
    def test_matches_unfused_fold(self, n, rng):
        def unfused(up, down):
            return sweep.maximal_satisfying(up, down)

        pair = collapsed_and_unfused(rng, n, unfused)
        if pair is not None:
            assert pair[0] == pair[1]

    @settings(max_examples=30, deadline=None)
    @given(rngs)
    def test_matches_frozen_engine_fold(self, rng):
        n = LARGE_N

        def unfused(up, down):
            sat = bigint_engine.expr_table(up) & ~bigint_engine.expr_table(down)
            return bigint_engine.table_members(bigint_engine.maximal_bits(sat, n), n)

        pair = collapsed_and_unfused(rng, n, unfused)
        if pair is not None:
            assert pair[0] == pair[1]


def unchecked_game(weights, quota: int) -> WeightedGame:
    """A weighted game built without validation: quota may be <= 0 or > total."""
    game = object.__new__(WeightedGame)
    object.__setattr__(game, "weights", tuple(weights))
    object.__setattr__(game, "quota", quota)
    return game


def edge_game(rng: random.Random, n: int) -> WeightedGame:
    """Zero, all-equal or near-2^61 weights; the quota may lie past either end."""
    kind = rng.choice(("zero", "equal", "huge", "plain"))
    if kind == "zero":
        weights = [rng.choice((0, 0, rng.randint(1, 9))) for _ in range(n)]
    elif kind == "equal":
        weights = [rng.randint(0, 3)] * n
    elif kind == "huge":
        top = MAX_TOTAL_WEIGHT // n
        weights = [rng.randrange(top // 2, top) for _ in range(n)]
    else:
        weights = [rng.randint(0, 50) for _ in range(n)]
    total = sum(weights)
    quota = rng.choice(
        (rng.randint(-3, 0), total + rng.randint(1, 3), rng.randint(1, max(1, total)))
    )
    return unchecked_game(weights, quota)


def gathered_table(game: WeightedGame, bits: int):
    """``win_table`` folded in blocks of 2^``bits`` coalitions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_BLOCK_BITS", bits)
        return sweep.win_table(game)


class TestRankTables:
    """The rank-gather win table against the oracles and the packbits fill."""

    @settings(max_examples=150, deadline=None)
    @given(small_n, block_bits, rngs)
    def test_against_oracles(self, n, bits, rng):
        game = edge_game(rng, n)
        got = gathered_table(game, bits)
        assert got.size == max(1, (1 << n) >> 6)
        assert oracles.table_to_int(got) == oracles.table_of(oracles.winning_masks(game, n))

    # One word below six players, one whole word at six, one high row at
    # eleven and two at twelve.
    @pytest.mark.parametrize("n", [1, 5, 6, 11, 12])
    @settings(max_examples=20, deadline=None)
    @given(bits=block_bits, rng=rngs)
    def test_row_boundaries(self, n, bits, rng):
        game = edge_game(rng, n)
        got = oracles.table_to_int(gathered_table(game, bits))
        assert got == oracles.table_of(oracles.winning_masks(game, n))

    @settings(max_examples=25, deadline=None)
    @given(block_bits, rngs)
    def test_against_packbits_fill(self, bits, rng):
        game = edge_game(rng, LARGE_N)
        got = gathered_table(game, bits)
        assert np.array_equal(got, bigint_engine.packbits_win_table(game))

    @pytest.mark.parametrize(
        "year, excluded", [("2014", []), ("2018", ["United Kingdom"])]
    )
    def test_builtin_rule_games(self, year, excluded):
        rule = data.build_eu_rule(data.builtin_table(year), excluded)
        for game in (rule.population_game, rule.veto_game, rule.count_game):
            expected = bigint_engine.packbits_win_table(game)
            assert np.array_equal(sweep.win_table(game), expected)


def shared_low_games(rng: random.Random, n: int, lo: int) -> list[WeightedGame]:
    """Copies of one weighted game that share their weights below player ``lo``, mostly.

    A copy keeps the weights and takes another quota (now and then at most 0
    or above the total), or changes one weight at or above player ``lo``, or
    is boosted on a low player, which gives it a low half of its own.
    """
    weights = [rng.randint(0, 9) for _ in range(n)]
    games = []
    for _ in range(rng.randint(2, 6)):
        copy = list(weights)
        kind = rng.choice(("quota", "high", "low"))
        if kind == "high" and lo < n:
            copy[rng.randrange(lo, n)] += rng.randint(1, 20)
        elif kind == "low":
            copy[rng.randrange(lo)] += rng.randint(1, 20)
        total = sum(copy)
        if rng.random() < 0.2:
            quota = rng.choice((rng.randint(-2, 0), total + rng.randint(1, 2)))
        else:
            quota = rng.randint(1, max(1, total))
        games.append(unchecked_game(copy, quota))
    return games


def shared_low_pair(rng: random.Random, n: int, lo: int):
    """An AND or OR of shared-low copies, maybe under a node of the other kind, and a variant.

    The variant moves one copy's quota by one, so the two often differ on
    few coalitions.
    """
    games = shared_low_games(rng, n, lo)
    node, other = rng.sample((all_of, any_of), 2)
    changed = list(games)
    i = rng.randrange(len(games))
    changed[i] = unchecked_game(games[i].weights, games[i].quota + rng.choice((-1, 1)))
    extra = oracles.random_game(rng, n) if rng.random() < 0.5 else None
    a, b = node(*games), node(*changed)
    return (a, b) if extra is None else (other(a, extra), other(b, extra))


def recording(calls: list, fn):
    """``fn``, appending its first argument to ``calls`` on every call."""

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    return wrapper


def check_grouped_fold(rng: random.Random, n: int, bits: int) -> None:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_BLOCK_BITS", bits)
        # The fold's low players: 11, or fewer when the block or n is smaller.
        a, b = shared_low_pair(rng, n, min(n, bits, sweep._RANK_BITS))
        table = sweep.expr_table(a)
        result = sweep.equivalent(a, b)
    assert oracles.table_to_int(table) == bigint_engine.expr_table(a)
    expected = bigint_engine.first_difference(a, b)
    assert (None if result else result.counterexample.mask) == expected


class TestGroupedGathers:
    """AND and OR nodes whose weighted children share their low-player weights."""

    @settings(max_examples=150, deadline=None)
    @given(small_n, block_bits, rngs)
    def test_against_bigint_engine(self, n, bits, rng):
        check_grouped_fold(rng, n, bits)

    @settings(max_examples=12, deadline=None)
    @given(block_bits, rngs)
    def test_against_bigint_engine_large(self, bits, rng):
        check_grouped_fold(rng, LARGE_N, bits)

    def test_no_uk_fold_shares_its_tables(self, monkeypatch):
        # The 12 boosted copies differ only above the 11 low players: one
        # gather for all of them.  Two low halves serve all five groups (the
        # count and veto games both weigh every player 1), and the 1,351
        # quota-1 leaves are closed once for all 32 blocks, since every
        # blocked mask holds the players above the block.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        emitted = all_of(*decompose.analyze_rule(rule).games)
        groups, closures = [], []
        monkeypatch.setattr(sweep, "_gather_fill", recording(groups, sweep._gather_fill))
        monkeypatch.setattr(sweep, "down_closure", recording(closures, sweep.down_closure))
        halves = {}
        sweep._fold(rule.expr, halves)
        for _ in sweep._blocks(sweep._fold(emitted, halves), rule.n):
            pass
        assert sorted(map(len, groups)) == [1, 1, 1, 1, 12]
        assert len(halves) == 2
        assert len(closures) == 1

    def test_no_uk_fold_searches_once_per_group_and_block(self, monkeypatch):
        # Five groups (three on the rule's side, two on the emitted side) over
        # 2^27 / 2^20 = 128 blocks: 640 binary searches, where one search per
        # weighted leaf made 16 a block, 2,048 in all.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        emitted = all_of(*decompose.analyze_rule(rule).games)
        searches = []
        monkeypatch.setattr(np, "searchsorted", recording(searches, np.searchsorted))
        assert sweep.equivalent(rule.expr, emitted)
        assert len(searches) == 640

    # Low weights 1..11, so every sum 0..66 is a low sum and every threshold
    # in that range ties exactly with one.  Players 11 and 12 move the three
    # games' thresholds apart, in different rows: 30, 33, 31 without either,
    # 25, 33, 28 with 11 alone, 30, 26, 28 with 12 alone, 25, 26, 25 with both.
    TIED = [((5, 0), 30), ((0, 7), 33), ((3, 3), 31)]
    # A threshold below every low sum (-10) and one above them all (70).
    BEYOND = [((70, 0), 60), ((0, 10), 70), ((1, 1), 40)]

    @pytest.mark.parametrize("games", [TIED, BEYOND], ids=["tied", "beyond"])
    @pytest.mark.parametrize("node", [all_of, any_of], ids=["and", "or"])
    def test_extreme_threshold_against_bigint_engine(self, games, node):
        low = tuple(range(1, 12))
        leaves = [WeightedGame(low + high, quota) for high, quota in games]
        expr = node(*leaves)
        assert oracles.table_to_int(sweep.expr_table(expr)) == bigint_engine.expr_table(expr)
        # Each leaf alone, and the group against the other connective.
        other = (any_of if node is all_of else all_of)(*leaves)
        for a, b in [(expr, other)] + [(expr, leaf) for leaf in leaves]:
            result = sweep.equivalent(a, b)
            expected = bigint_engine.first_difference(a, b)
            assert (None if result else result.counterexample.mask) == expected


def veto_mask_expr(rng: random.Random, n: int, bits: int, fixed: bool):
    """An AND of a game of quota >= 2 and 1-12 quota-1 leaves with random blocked masks.

    With ``fixed`` every blocked mask holds all players above the block
    (n > ``bits``), so every block selects all of them; otherwise the
    selection changes from block to block.
    """
    above = ((1 << n) - 1) ^ ((1 << bits) - 1)
    vetoes = []
    for _ in range(rng.randint(1, 12)):
        blocked = rng.getrandbits(n) | (above if fixed else 0)
        blocked &= ~(1 << rng.randrange(bits))
        weights = [0 if blocked >> j & 1 else rng.choice((1, 1, 4)) for j in range(n)]
        vetoes.append(WeightedGame(tuple(weights), 1))
    head = WeightedGame(tuple(rng.randint(1, 5) for _ in range(n)), rng.randint(2, n))
    return all_of(head, *vetoes)


class TestVetoReuse:
    """The kept veto closure against the frozen engine, selection changing or not."""

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("bits", [6, 8])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(9, 12), rng=rngs)
    def test_against_bigint_engine(self, bits, fixed, n, rng):
        a, b = veto_mask_expr(rng, n, bits, fixed), veto_mask_expr(rng, n, bits, fixed)
        closures = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "_BLOCK_BITS", bits)
            patch.setattr(sweep, "down_closure", recording(closures, sweep.down_closure))
            result = sweep.equivalent(a, b)
            closures.clear()
            table = sweep.expr_table(a)
        assert oracles.table_to_int(table) == bigint_engine.expr_table(a)
        expected = bigint_engine.first_difference(a, b)
        assert (None if result else result.counterexample.mask) == expected
        # 2^(n - bits) blocks; a selection that never changes is closed once.
        assert len(closures) == 1 if fixed else 1 <= len(closures) <= 1 << (n - bits)


def large_loser(rng: random.Random, expr, n: int) -> int:
    """Drop players from the grand coalition in random order until it loses."""
    mask = (1 << n) - 1
    for j in rng.sample(range(n), n):
        if not oracles.wins(expr, mask):
            break
        mask ^= 1 << j
    return mask


def minimal_winner(rng: random.Random, expr, n: int, avoid: int = 0) -> int:
    """Drop players from the grand coalition while it wins, ``avoid`` first."""
    order = rng.sample(range(n), n)
    order.sort(key=lambda j: not avoid >> j & 1)
    mask = (1 << n) - 1
    for j in order:
        if oracles.wins(expr, mask ^ (1 << j)):
            mask ^= 1 << j
    return mask


def losing_pair(rng: random.Random, expr, n: int, max_delta: int):
    """Two losing masks that differ in 1..max_delta players, or None.

    Half the draws split the difference of two minimal winners p, q between
    a and b, so that (p, q) itself is a certificate whenever both halves
    lose.  A weighted game has no such split; then, as in the other half of
    the draws, a and b are two large losers, which seldom certify.
    """
    planted = rng.random() < 0.5
    for attempt in range(200):
        if planted and attempt < 100:
            p = minimal_winner(rng, expr, n)
            q = minimal_winner(rng, expr, n, avoid=p)
            delta = p ^ q
            for _ in range(20):
                side = rng.getrandbits(n) & delta
                a, b = (p & q) | side, (p & q) | (delta ^ side)
                if not (oracles.wins(expr, a) or oracles.wins(expr, b)):
                    break
            else:
                continue
        else:
            a, b = large_loser(rng, expr, n), large_loser(rng, expr, n)
        if 1 <= (a ^ b).bit_count() <= max_delta:
            return a, b
    return None


def chamber_expr(rng: random.Random, n: int):
    """An AND of weighted games on disjoint player groups (n >= 2).

    Such a game is far from weighted, so many of its losing pairs certify.
    """
    players = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 2))))
    games = []
    for group in (players[i:j] for i, j in zip([0, *cuts], [*cuts, n])):
        weights = [rng.randint(1, 5) if j in group else 0 for j in range(n)]
        games.append(WeightedGame(tuple(weights), rng.randint(1, sum(weights))))
    return all_of(*games)


def split_search(expr, a: int, b: int, n: int):
    """The new search's x mask and the frozen bit-matrix search's, for one pair."""
    cert = lowerbound.find_certificate(expr, Coalition(a, n), Coalition(b, n))
    got = None if cert is None else cert.x.mask
    return got, bigint_engine.certificate_split(expr, a, b)


class TestSplitSearch:
    """The two-table split search against the bit-matrix search it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 12), rngs)
    def test_small_expressions_across_chunks(self, n, rng):
        make = chamber_expr if rng.random() < 0.5 else oracles.random_expr
        expr = make(rng, n)
        pair = losing_pair(rng, expr, n, n)
        if pair is None:
            return
        a, b = pair
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lowerbound, "_CHUNK_BITS", 2)
            got, expected = split_search(expr, a, b, n)
        assert got == expected

    # The default chunk, a narrower 18-bit one (a 26-bit split spans 2^8
    # chunks rather than 2^6), and a 5-bit one with many row bits per chunk.
    @pytest.mark.parametrize("chunk_bits", [lowerbound._CHUNK_BITS, 18, 5])
    @settings(max_examples=25, deadline=None)
    @given(rng=rngs)
    def test_eu_rule_without_uk(self, chunk_bits, rng):
        rule = data.build_eu_rule(data.builtin_table("2018"), ["United Kingdom"])
        pair = losing_pair(rng, rule.expr, rule.expr.n, 16)
        assert pair is not None
        a, b = pair
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lowerbound, "_CHUNK_BITS", chunk_bits)
            got, expected = split_search(rule.expr, a, b, rule.expr.n)
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 12), rngs)
    def test_pairs_an_and_leaf_rules_out(self, n, rng):
        # ``first`` is joined to the root by ANDs alone, directly or through a
        # nested AND; the leaves under the OR may weigh anything.  When a and b
        # together weigh below twice its quota, no split certifies.
        first = oracles.random_game(rng, n)
        union = any_of(*(oracles.random_game(rng, n) for _ in range(rng.randint(2, 3))))
        if rng.random() < 0.5:
            expr = all_of(first, union)
        else:
            expr = all_of(union, all_of(oracles.random_game(rng, n), first))
        for _ in range(200):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            light = oracles.weight_of(first.weights, a) + oracles.weight_of(first.weights, b)
            if light < 2 * first.quota and not (oracles.wins(expr, a) or oracles.wins(expr, b)):
                break
        else:
            return
        got, expected = split_search(expr, a, b, n)
        assert got == expected is None

    def test_first_hit_in_a_high_chunk(self):
        # With C = _CHUNK_BITS and n = C + 2, p must hold player 0 or 1 and
        # player C; player C + 1, the last of the difference, always sits in
        # q.  So the first hit is the selector 2^C + 1, in the second chunk.
        c = lowerbound._CHUNK_BITS
        n = c + 2
        expr = all_of(
            WeightedGame(tuple(int(j in (0, 1)) for j in range(n)), 1),
            WeightedGame(tuple(int(j in (c, c + 1)) for j in range(n)), 1),
        )
        a = (1 << (n // 2)) - 1
        b = ((1 << n) - 1) ^ a
        got, expected = split_search(expr, a, b, n)
        assert got == expected == (1 << 0) | (1 << c)


def rewrite_outcome(rewrite, first: WeightedGame, second: WeightedGame):
    """The rewrite's ``Decomposition``, or the gap of its ``EmptyCoreError``."""
    try:
        return rewrite(first, second)
    except EmptyCoreError as e:
        return e.gap


def assert_same_rewrite(first: WeightedGame, second: WeightedGame, bits=None):
    """The walked rewrite and the table rewrite (folds of 2^``bits`` coalitions) agree.

    With an empty core the walk lists no gap member, where the table rewrite does.
    """
    expected = rewrite_outcome(table_rewrite.union_as_intersection, first, second)
    if isinstance(expected, decompose.GapSummary):
        expected = decompose.GapSummary(*expected._fields()[:-1], None)
    with pytest.MonkeyPatch.context() as patch:
        if bits is not None:
            patch.setattr(sweep, "_BLOCK_BITS", bits)
        got = rewrite_outcome(union_as_intersection, first, second)
    assert got == expected
    return got


class TestAgainstTableRewrite:
    """The walked gap survey and frontier against the whole-table rewrite."""

    @pytest.mark.parametrize("swap_roles", [False, True])
    @pytest.mark.parametrize("year", ["2014", "2016", "2017", "2018"])
    def test_bundled_years(self, year, swap_roles):
        rule = data.build_eu_rule(data.builtin_table(year))
        pair = (rule.population_game, rule.veto_game)
        assert_same_rewrite(*(pair[::-1] if swap_roles else pair))

    @pytest.mark.parametrize("retained", [False, True])
    def test_without_uk(self, retained):
        table = data.builtin_table("2018")
        members = table.member_count if retained else None
        rule = data.build_eu_rule(table, ["United Kingdom"], quota_member_count=members)
        got = assert_same_rewrite(rule.population_game, rule.veto_game)
        assert len(got.frontier if retained else got.games) == (0 if retained else 1363)

    @settings(max_examples=200, deadline=None)
    @given(small_n, block_bits, rngs)
    def test_random_pairs(self, n, bits, rng):
        if rng.random() < 0.5:
            first, second = oracles.random_game(rng, n), oracles.random_game(rng, n)
        else:
            first, second = union_pair(rng, n)
        assert_same_rewrite(first, second, bits)

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_core_of_all_but_one_player(self, n):
        # The grand coalition wins every valid game, so no gap holds it and
        # no core holds every player: the frontier walk has one player at
        # least.  Here the gap is {0..n-2} alone.
        second = WeightedGame((1,) * (n - 1) + (0,), n - 1)
        dec = assert_same_rewrite(unit_game(n, n), second)
        assert dec.common_core_players() == tuple(range(n - 1))
        assert dec.frontier == ()

    def test_lowered_quota_at_most_zero(self):
        # test_decompose's zero-minimum-weight pair: q - u = 0.
        dec = assert_same_rewrite(WeightedGame((0, 0, 0, 1), 1), WeightedGame((2, 1, 1, 0), 3))
        assert dec.gap.boost == dec.games[0].quota == 1

    @pytest.mark.parametrize("cap", [10, 3000])
    @pytest.mark.parametrize("core", [False, True])
    def test_gap_above_the_member_cap(self, cap, core, monkeypatch):
        # n = 13: the walk's first three players lie above its 10-player
        # tail, so it counts whole branches there and bisects in the tail,
        # crossing the cap part way.  Players 0-5 and 11 are heavy, so the
        # lightest gap coalition is {6, 12}.
        n = 13
        first = WeightedGame((5,) * 6 + (1,) * 5 + (5, 1), 41)
        second = unit_game(1, n)
        if core:
            # Wins with player 12 and one more: 4,094 gap coalitions, core {12}.
            second = WeightedGame((1,) * (n - 1) + (n - 1,), n)
        monkeypatch.setattr(decompose, "GAP_MEMBER_CAP", cap)
        got = assert_same_rewrite(first, second, bits=6)
        gap = got.gap if core else got
        assert gap.members is None
        assert gap.count == (4094 if core else 8190)
        assert gap.min_weight == (2 if core else None)


def walk_game(rng: random.Random, n: int) -> WeightedGame:
    """A game of unit, {0, 1, 2} or wide weights, with some players weightless.

    Every other quota lies in the top quarter of the total weight, where the
    gap coalitions of a pair tend to share a core.
    """
    top = MAX_TOTAL_WEIGHT // (4 * n)
    draw = rng.choice((lambda: 1, lambda: rng.randint(0, 2), lambda: rng.randrange(top)))
    while True:
        weights = [draw() for _ in range(n)]
        for j in rng.sample(range(n), rng.randint(0, n // 2)):
            weights[j] = 0
        total = sum(weights)
        if total:
            low = rng.choice((1, total - total // 4))
            return WeightedGame(weights, rng.randint(low, total))


def oracle_rewrite(first: WeightedGame, second: WeightedGame):
    """The rewrite's outcome from the definitions, as ``rewrite_outcome`` gives it."""
    n = first.n
    members = oracles.gap_masks(first, second)
    core = (1 << n) - 1
    for m in members:
        core &= m
    min_weight = boost = None
    if members and core:
        min_weight = min(oracles.weight_of(first.weights, m) for m in members)
        boost = first.quota - min_weight
    listed = tuple(Coalition(m, n) for m in members) if core else None
    gap = decompose.GapSummary(len(members), Coalition(core, n), min_weight, boost, listed)
    if not members:
        return decompose.Decomposition((first,), gap, ())
    if not core:
        return gap
    boosted = decompose._boosted_games(first, gap.common_core, boost)
    union = any_of(first, second)
    over = {
        m
        for m in range(1 << n)
        if all(oracles.wins(g, m) for g in boosted) and not oracles.wins(union, m)
    }
    # ``over`` is an up-set cut by a down-set, so a member below another
    # member has a one-player extension in it.
    frontier = tuple(
        Coalition(m, n)
        for m in sorted(over)
        if not any(m | 1 << j in over for j in range(n) if not m >> j & 1)
    )
    games = boosted + tuple(decompose.veto_game(s) for s in frontier)
    return decompose.Decomposition(games, gap, frontier)


class TestPlayerWalk:
    """The walked gap survey and frontier against the table rewrite and the definitions."""

    # No tail (every branch walked to its end or counted as a whole), a short
    # tail and the module's own, which holds every player for n <= 10.
    @pytest.mark.parametrize("tail_bits", [0, 3, decompose._TAIL_BITS])
    def test_seeded_pairs(self, tail_bits, monkeypatch):
        monkeypatch.setattr(decompose, "_TAIL_BITS", tail_bits)
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 12)
            # ``union_pair`` gives most of the pairs with a frontier.
            first, second = (walk_game(rng, n), walk_game(rng, n)) if seed % 2 else union_pair(rng, n)
            got = assert_same_rewrite(first, second)
            assert got == oracle_rewrite(first, second), seed

    @pytest.mark.parametrize("core", [False, True])
    @pytest.mark.parametrize("below", [False, True])
    def test_member_cap_at_the_count(self, core, below, monkeypatch):
        # test_gap_above_the_member_cap's pairs: 8,190 gap coalitions with an
        # empty core, or 4,094 with the core {12}.  The cap is the count, or
        # one below it.  An empty core lists no members at any cap.
        n = 13
        first = WeightedGame((5,) * 6 + (1,) * 5 + (5, 1), 41)
        second = WeightedGame((1,) * (n - 1) + (n - 1,), n) if core else unit_game(1, n)
        count = 4094 if core else 8190
        monkeypatch.setattr(decompose, "GAP_MEMBER_CAP", count - below)
        got = assert_same_rewrite(first, second)
        gap = got.gap if core else got
        assert gap.count == count
        assert (gap.members is None) == (below or not core)

    @pytest.mark.parametrize("year", data.BUILTIN_YEARS)
    def test_every_single_exit_under_retained_quotas(self, year):
        # The derived reading is pinned by test_every_single_member_exit.
        table = data.builtin_table(year)
        for row in table.rows:
            rule = data.build_eu_rule(table, [row.country], quota_member_count=table.member_count)
            assert_same_rewrite(rule.population_game, rule.veto_game)
