"""Core types: coalitions, weighted games, boolean combinations."""

import random
from functools import partial, reduce
from operator import and_, or_

import pytest
from hypothesis import given, strategies as st

import oracles
from votedim import data, decompose
from votedim.games import (
    AND,
    OR,
    Coalition,
    GameExpr,
    Node,
    UniverseMismatchError,
    WeightedGame,
    all_of,
    any_of,
    unit_game,
)

members_and_n = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(0, n - 1)),
        st.sets(st.integers(0, n - 1)),
    )
)


@pytest.fixture
def weight_sums(monkeypatch):
    """The coalitions passed to ``WeightedGame.weight_sum`` during the test, in call order."""
    calls = []
    weight_sum = WeightedGame.weight_sum

    def counted(self, s):
        calls.append(s)
        return weight_sum(self, s)

    monkeypatch.setattr(WeightedGame, "weight_sum", counted)
    return calls


class TestCoalition:
    def test_mask_members_round_trip(self):
        s = Coalition(0b101001, 6)
        assert s.members() == (0, 3, 5)
        assert len(s) == 3
        assert 3 in s and 1 not in s
        assert list(s) == [0, 3, 5]

    def test_empty_and_grand(self):
        assert Coalition(0, 4).members() == ()
        assert Coalition.grand(4).mask == 0b1111

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            Coalition(1 << 5, 5)
        with pytest.raises(ValueError):
            Coalition(0, 0)

    @given(members_and_n)
    def test_set_operations_match_python_sets(self, arg):
        n, xs, ys = arg
        a, b = (Coalition(sum(1 << j for j in js), n) for js in (xs, ys))
        assert set(a.union(b).members()) == xs | ys
        assert set(a.intersection(b).members()) == xs & ys

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            Coalition(0, 3).union(Coalition(0, 4))


class TestWeightedGame:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedGame((1, -1), 1)
        with pytest.raises(ValueError):
            WeightedGame((1, 1), 0)
        with pytest.raises(ValueError):
            WeightedGame((1, 1), 3)  # grand coalition would lose
        with pytest.raises(ValueError):
            WeightedGame((), 1)
        with pytest.raises(ValueError):
            WeightedGame((1 << 61, 1), 2)

    def test_wins(self):
        g = WeightedGame((1, 1, 0), 2)
        assert g.evaluate(Coalition(0b011, 3))
        assert not g.evaluate(Coalition(0b101, 3))

    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 9), min_size=n, max_size=n),
        st.integers(0, (1 << n) - 1),
    )))
    def test_weight_sum_matches_definition(self, arg):
        weights, mask = arg
        n = len(weights)
        if sum(weights) < 1:
            weights[0] = 1
        g = WeightedGame(tuple(weights), max(1, sum(weights) // 2))
        assert g.weight_sum(Coalition(mask, n)) == oracles.weight_of(g.weights, mask)

    @given(
        st.integers(2, 10),
        st.integers(0, 2**32 - 1).map(random.Random),
    )
    def test_monotone(self, n, rng):
        g = oracles.random_game(rng, n)
        sub = rng.randint(0, (1 << n) - 1)
        sup = sub | rng.randint(0, (1 << n) - 1)
        assert g.evaluate(Coalition(sub, n)) <= g.evaluate(Coalition(sup, n))

    def test_unit_game(self):
        g = unit_game(2, 4)
        for m in range(1 << 4):
            assert g.evaluate(Coalition(m, 4)) == (m.bit_count() >= 2)


class TestExpressions:
    def test_evaluate_matches_connectives(self):
        a = WeightedGame((1, 1, 1), 2)
        b = WeightedGame((1, 0, 0), 1)
        c = WeightedGame((1, 1, 1), 3)
        expr = all_of(a, any_of(b, c))
        for m in range(8):
            s = Coalition(m, 3)
            expected = a.evaluate(s) and (b.evaluate(s) or c.evaluate(s))
            assert expr.evaluate(s) == expected

    def test_leaves_in_construction_order(self):
        a, b, c = unit_game(1, 2), unit_game(2, 2), WeightedGame((2, 1), 2)
        expr = any_of(all_of(a, b), c)
        assert expr.leaves() == [a, b, c]
        # The 1,364 games of 2018 without the UK under one AND node.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        games = decompose.analyze_rule(rule).games
        assert all_of(*games).leaves() == list(games)

    def test_as_expr(self):
        g, h = unit_game(1, 3), unit_game(2, 3)
        assert isinstance(g, GameExpr)
        assert all_of(g, h).children[0] is g
        with pytest.raises(TypeError):
            all_of(g, 42)
        with pytest.raises(TypeError):
            Node(AND, (g, 42))

    def test_and_node_evaluates_no_leaf(self, weight_sums):
        # The 1,364 games of 2018 without the UK: every AND/OR of weighted
        # games is a simple game, so building the node weighs no coalition.
        rule = data.build_eu_rule(data.builtin_table("2018"), exclude=["United Kingdom"])
        games = decompose.analyze_rule(rule).games
        weight_sums.clear()
        all_of(*games)
        assert len(games) == 1364
        assert weight_sums == []

    @pytest.mark.parametrize(
        "op, first", [(AND, WeightedGame((1, 1), 2)), (OR, WeightedGame((1, 1), 1))]
    )
    def test_evaluate_short_circuits(self, op, first, weight_sums):
        # On {0} the first child settles the node (AND: it loses, OR: it
        # wins), so the second is never weighed: ``all`` and ``any`` stop
        # early because each join gets its children lazily.
        node = Node(op, (first, unit_game(1, 2)))
        assert node.evaluate(Coalition(0b01, 2)) == (op == OR)
        assert len(weight_sums) == 1

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1).map(random.Random))
    def test_fold_matches_definition(self, n, rng):
        # Two levels of nodes, so a node also folds node children.
        join = rng.choice((all_of, any_of))
        expr = join(oracles.random_expr(rng, n), oracles.random_expr(rng, n))
        for m in range(1 << n):
            assert expr.fold(lambda g: oracles.wins(g, m), all, any) == oracles.wins(expr, m)
        table = expr.fold(
            lambda g: oracles.table_of(oracles.winning_masks(g, n)),
            partial(reduce, and_),
            partial(reduce, or_),
        )
        assert table == oracles.table_of(oracles.winning_masks(expr, n))

    def test_join_reads_only_what_it_takes(self):
        # Each join gets one lazy iterable of its children's results, so a
        # join that reads only its first child leaves the others unmapped.
        a, b = unit_game(1, 2), unit_game(2, 2)
        mapped = []

        def record(g):
            mapped.append(g)
            return g

        first = lambda parts: next(iter(parts))
        assert all_of(a, b).fold(record, first, first) is a
        assert any_of(all_of(a, b), b).fold(record, first, first) is a
        assert mapped == [a, a]

    def test_node_arity_and_universe(self):
        g = unit_game(1, 3)
        with pytest.raises(ValueError):
            Node(AND, (g,))
        assert all_of(g) is g
        assert any_of(g) is g
        with pytest.raises(UniverseMismatchError):
            all_of(g, unit_game(1, 4))
        with pytest.raises(ValueError):
            Node("xor", (g, g))

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1).map(random.Random))
    def test_expr_monotone_and_bounded(self, n, rng):
        expr = oracles.random_expr(rng, n)
        assert not expr.evaluate(Coalition(0, n))
        assert expr.evaluate(Coalition.grand(n))
        sub = rng.randint(0, (1 << n) - 1)
        sup = sub | rng.randint(0, (1 << n) - 1)
        assert expr.evaluate(Coalition(sub, n)) <= expr.evaluate(Coalition(sup, n))
