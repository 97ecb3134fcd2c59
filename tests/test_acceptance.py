"""End-to-end acceptance checks against the reference values.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (run pytest with `-s`,
the default here) and then asserts, so a failing criterion is visible both
in the line and in the pytest summary.
"""

import json
import random
import subprocess
import sys
import time
from importlib import resources

import oracles
from cli_runner import invoke
from votedim import data, decompose, lowerbound, sweep
from votedim.games import Coalition, any_of, all_of, unit_game

ALL_RANKS = tuple(range(1, 29))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def comp(triple) -> tuple:
    """Complement of a 1-based rank set within the 28-member table."""
    return tuple(sorted(set(ALL_RANKS) - set(triple)))


TEN_COMPLEMENTS = {
    comp(t)
    for t in (
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4),
        (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (2, 3, 4),
    )
}
ELEVEN_COMPLEMENTS = TEN_COMPLEMENTS | {comp((2, 3, 5))}


def _decompose_year(year: str):
    rule = data.build_eu_rule(data.builtin_table(year))
    dec = decompose.union_as_intersection(rule.population_game, rule.veto_game)
    return rule, dec


def test_criterion_1_2014_exact_reproduction():
    start = time.perf_counter()
    rule, dec = _decompose_year("2014")
    elapsed = time.perf_counter() - start

    gap_sets = {rule.label_members(s.mask) for s in dec.gap.members}
    core = rule.label_members(dec.gap.common_core.mask)
    boost_units = -(-dec.gap.boost // rule.scale)  # ceiling of the rational u
    frontier = {rule.label_members(s.mask) for s in dec.frontier}
    bound = 1 + len(dec.games)

    ok = (
        gap_sets == TEN_COMPLEMENTS
        and core == tuple(range(7, 29))
        and boost_units == 33_349_058
        and frontier == {(1, 2) + tuple(range(7, 29))}
        and bound == 24
        and elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"2014: |D|={len(gap_sets)} (ten complements), core={{7..28}}, "
        f"u={boost_units:,} population units, F={{{{1,2,7..28}}}}, "
        f"bound {bound}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_2016_2017_2018_reproduction():
    expected_frontier = {
        (1, 2) + tuple(range(7, 29)),
        (1, 3) + tuple(range(7, 29)),
    }
    details = []
    ok = True
    for year, expected_gap in (
        ("2016", TEN_COMPLEMENTS),
        ("2017", ELEVEN_COMPLEMENTS),
        ("2018", ELEVEN_COMPLEMENTS),
    ):
        rule, dec = _decompose_year(year)
        gap_sets = {rule.label_members(s.mask) for s in dec.gap.members}
        frontier = {rule.label_members(s.mask) for s in dec.frontier}
        bound = 1 + len(dec.games)
        # The lightest gap member is the complement of the three largest
        # countries, so the boost is derivable straight from the table:
        # 13T - (20T - 20*top3) with the game weights already scaled by 20.
        top3_scaled = sum(sorted(rule.population_game.weights, reverse=True)[:3])
        expected_boost = top3_scaled - 7 * rule.total_population
        year_ok = (
            bound == 25
            and frontier == expected_frontier
            and gap_sets == expected_gap
            and dec.gap.boost == expected_boost
        )
        if year == "2017":
            year_ok = year_ok and len(gap_sets) == 11 and comp((2, 3, 5)) in gap_sets
        ok = ok and year_ok
        details.append(
            f"{year}: bound {bound}, |D|={len(gap_sets)}, "
            f"u={dec.gap.boost}/{rule.scale} scaled "
            f"(= {-(-dec.gap.boost // rule.scale):,} population units, ceiling)"
        )
    _report(2, ok, "; ".join(details) + "; F={{1,2,7..28},{1,3,7..28}} each")


def test_criterion_3_2018_without_uk():
    start = time.perf_counter()
    result = invoke(
        [
            "analyze",
            "--data",
            "builtin:2018",
            "--exclude",
            "United Kingdom",
            "--json",
            "--threads",
            "1",
        ],
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)

    achieved_core = tuple(report["gap"]["common_core"])
    achieved_frontier = report["frontier_count"]
    achieved_bound = report["bound"]
    reference_hit = (
        achieved_core == tuple(range(16, 29))
        and achieved_frontier == 1348
        and achieved_bound == 1362
    )

    # Fallback contract: when the reference triple is not reproduced, the
    # run report must document the achieved frontier under both veto-quota
    # readings.  The derived reading (24 of 27) is the main report; the
    # retained reading (25 of 28) appears as alternate_quota_reading.
    alt = report["alternate_quota_reading"]
    documented = (
        report["rule"]["veto_quota"] == 24
        and alt is not None
        and alt.get("veto_quota") == 25
        and alt.get("frontier_count") is not None
        and achieved_core == tuple(range(17, 29))
        and achieved_frontier == 1351
        and achieved_bound == 1364
        and alt.get("method") == "first-game"
        and alt.get("gap_count") == 0
        and alt.get("bound") == 2
    )

    ok = (reference_hit or documented) and elapsed < 600.0
    if reference_hit:
        detail = (
            f"no-UK 2018: core {{16..28}}, |F|=1348, bound 1362 reproduced, "
            f"{elapsed:.1f}s (< 600s)"
        )
    else:
        detail = (
            "no-UK 2018: reference core {16..28}, |F|=1348, bound 1362 is not "
            "derivable from the bundled populations; report documents both "
            f"readings — veto quota 24: core {{17..28}}, |F|={achieved_frontier}, "
            f"bound {achieved_bound}; veto quota 25: gap empty, rewrite trivial, "
            f"bound {alt.get('bound')}; {elapsed:.1f}s (< 600s)"
        )
    _report(3, ok, detail)


def test_criterion_4_lower_bound_certificate():
    start = time.perf_counter()
    rule = data.build_eu_rule(data.builtin_table("2018"), exclude=("United Kingdom",))
    text = (
        resources.files("votedim")
        .joinpath("certs/eu2018_noUK_8.txt")
        .read_text(encoding="utf-8")
    )
    coalitions = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            ranks = [int(tok) for tok in body.split(",")]
            coalitions.append(Coalition(rule.mask_from_labels(ranks), rule.n))
    report = lowerbound.verify_certificate_set(rule.expr, coalitions)
    elapsed = time.perf_counter() - start

    deltas = [
        (p.certificate.a.mask ^ p.certificate.b.mask).bit_count()
        for p in report.pairs
        if p.certificate is not None
    ]
    ok = (
        len(coalitions) == 8
        and report.lower_bound == 8
        and len(report.pairs) == 28
        and report.fully_certified
        and max(deltas, default=0) <= 30
        and elapsed < 300.0
    )
    _report(
        4,
        ok,
        f"no-UK 2018: 8 losing coalitions, 28/28 pairs certified, "
        f"max |Δ|={max(deltas, default=0)} (≤ 30), certified lower bound "
        f"{report.lower_bound}, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_5_factorization_identity():
    start = time.perf_counter()
    rule = data.build_eu_rule(data.builtin_table("2014"))
    lhs = rule.expr  # count ∧ (population ∨ veto)
    rhs = any_of(all_of(rule.count_game, rule.population_game), rule.veto_game)
    result = sweep.equivalent(lhs, rhs)
    elapsed = time.perf_counter() - start
    ok = bool(result) and elapsed < 300.0
    _report(
        5,
        ok,
        f"count∧(population∨veto) ≡ (count∧population)∨veto over all "
        f"2^28 coalitions on the 2014 table, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_union_rewrite_oracle_suite():
    rng = random.Random(6)
    done = fails = 0
    while done < 500:
        n = rng.randint(2, 12)
        a, b = oracles.random_game(rng, n), oracles.random_game(rng, n)
        try:
            dec = decompose.union_as_intersection(a, b)
        except decompose.EmptyCoreError:
            continue
        if dec.method != decompose.METHOD_CORE_BOOST:
            continue
        done += 1
        if not sweep.equivalent(all_of(*dec.games), any_of(a, b)):
            fails += 1
    _report(
        6,
        fails == 0,
        f"500 random weighted-game pairs (n ≤ 12) with a non-empty common "
        f"core: emitted intersection ≡ union exhaustively, {fails} failures",
    )


def test_criterion_7_veto_refinement_oracle_suite():
    rng = random.Random(7)
    fails = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        target = oracles.random_expr(rng, n)
        dec = decompose.refine_by_vetoes(target, unit_game(1, n))
        target_set = oracles.winning_masks(target, n)
        brute = oracles.maximal_masks(
            {m for m in range(1, 1 << n) if m not in target_set}, n
        )
        if (
            not sweep.equivalent(all_of(*dec.games), target)
            or {s.mask for s in dec.frontier} != brute
        ):
            fails += 1
    _report(
        7,
        fails == 0,
        "200 random simple games (n ≤ 10) against the all-ones candidate: "
        "decomposition ≡ input and veto-game count equals the brute-force "
        f"maximal-losing-coalition count, {fails} failures",
    )


def test_criterion_8_certificate_soundness_grid():
    rng = random.Random(8)
    issued = violations = games_tried = 0
    while issued < 40 and games_tried < 400:
        n = rng.randint(4, 7)
        expr = oracles.random_expr(rng, n)
        games_tried += 1
        losing = {m for m in range(1 << n) if not oracles.wins(expr, m)}
        maximal = sorted(oracles.maximal_masks(losing, n))
        for i in range(len(maximal)):
            for j in range(i + 1, len(maximal)):
                cert = lowerbound.find_certificate(
                    expr, Coalition(maximal[i], n), Coalition(maximal[j], n)
                )
                if cert is not None:
                    issued += 1
                    # Exhaustive grid over weights ≤ 6 with an unconstrained
                    # quota (a superset of any quota ≤ 6 family).
                    if oracles.single_weighted_game_exists(
                        expr, maximal[i], maximal[j], n, max_weight=6
                    ):
                        violations += 1
                if issued >= 40:
                    break
            if issued >= 40:
                break
    _report(
        8,
        violations == 0 and issued >= 40,
        f"{issued} certificates issued on random games (n ≤ 7 ⊂ n ≤ 10); the "
        f"weights-≤-6 grid finds no single weighted game keeping both "
        f"coalitions losing: {violations} violations",
    )


def test_criterion_9_determinism_across_workers():
    mismatches = []
    for year in data.BUILTIN_YEARS:
        outputs = []
        for threads in ("1", "4", "8"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "votedim.cli",
                    "analyze",
                    "--data",
                    f"builtin:{year}",
                    "--json",
                    "--threads",
                    threads,
                ],
                capture_output=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        if not (outputs[0] == outputs[1] == outputs[2]):
            mismatches.append(year)
    _report(
        9,
        not mismatches,
        "analyze --json byte-identical across 1/4/8 workers on builtins "
        f"2014/2016/2017/2018 (mismatches: {mismatches or 'none'})",
    )
