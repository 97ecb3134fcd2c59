"""Command-line interface: analyze, verify, and certificate workflows.

Exit codes: 0 success, 1 verification or certification failure, 2 input
error, 3 rewrite inapplicable (gap coalitions share no player).  The
rewrite and the sweeps, with numpy, load only in the commands that run them:
the certificate commands never import them.
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import TYPE_CHECKING, Optional

import click

from . import data, lowerbound
from .games import Coalition, WeightedGame, all_of

if TYPE_CHECKING:
    from . import decompose

EXIT_FAILURE = 1
EXIT_INAPPLICABLE = 3
# Encoder chunks joined per write of ``analyze --json``, so a large report
# never sits in one string.  Each chunk is a string object of its own: on
# the no-UK report a batch of 2^16 held 4.3 MiB, one of 2^12 holds 0.3 MiB.
_JSON_BATCH = 1 << 12


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            return f.read()
    except OSError as e:
        raise click.UsageError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise click.UsageError(f"cannot read {path}: not UTF-8 text ({e.reason})")


def _load_table(data_ref: str) -> data.PopulationTable:
    if data_ref.startswith("builtin:"):
        year = data_ref[len("builtin:") :]
        try:
            return data.builtin_table(year)
        except KeyError as e:
            raise click.UsageError(str(e.args[0]))
    try:
        return data.load_table(_read_text(data_ref))
    except ValueError as e:
        raise click.UsageError(f"{data_ref}: {e}")


def _parse_exclude(exclude: str) -> tuple[str, ...]:
    return tuple(dict.fromkeys(s.strip() for s in exclude.split(",") if s.strip()))


def _build_rule(table: data.PopulationTable, excluded: tuple[str, ...]) -> data.EuRule:
    try:
        return data.build_eu_rule(table, exclude=excluded)
    except ValueError as e:
        raise click.UsageError(str(e))


def _labels(rule: data.EuRule, coalitions) -> list[list[int]]:
    return [list(rule.label_members(s.mask)) for s in coalitions]


def _game_row(game: WeightedGame) -> dict:
    return {"quota": game.quota, "weights": list(game.weights)}


def _gap_section(rule: data.EuRule, gap: decompose.GapSummary) -> dict:
    return {
        "count": gap.count,
        "common_core": list(rule.label_members(gap.common_core.mask)),
        "min_weight_scaled": gap.min_weight,
        "boost_scaled": gap.boost,
        "boost_population_units": None if gap.boost is None else -(-gap.boost // rule.scale),
        "members": None if gap.members is None else _labels(rule, gap.members),
    }


def _alternate_section(
    table: data.PopulationTable,
    excluded: tuple[str, ...],
    main_rule: data.EuRule,
    swap_roles: bool,
) -> Optional[dict]:
    """The retained-quota reading, reported whenever it differs.

    When members are excluded, the counting quotas can either be re-derived
    from the smaller membership (the main report) or retained from the full
    table; the two readings disagree on the rule, so the report carries the
    second one's outcome as well.
    """
    try:
        rule = data.build_eu_rule(
            table, exclude=excluded, quota_member_count=table.member_count
        )
    except ValueError as e:
        return {"error": str(e)}
    quotas = (rule.member_quota, rule.veto_quota)
    if quotas == (main_rule.member_quota, main_rule.veto_quota):
        return None
    from . import decompose

    frontier_count = bound = None
    try:
        result = decompose.analyze_rule(rule, swap_roles)
    except decompose.EmptyCoreError as e:
        method, gap = "inapplicable", e.gap
    except ValueError as e:
        return {"error": str(e)}
    else:
        method, gap = result.method, result.gap
        frontier_count, bound = len(result.frontier), len(result.games)
    return {
        "member_quota": rule.member_quota,
        "veto_quota": rule.veto_quota,
        "method": method,
        "gap_count": gap.count,
        "common_core": list(rule.label_members(gap.common_core.mask)),
        "frontier_count": frontier_count,
        "bound": bound,
    }


def _analyze_or_exit(rule: data.EuRule, swap_roles: bool) -> decompose.Decomposition:
    from . import decompose

    try:
        return decompose.analyze_rule(rule, swap_roles)
    except decompose.EmptyCoreError as e:
        click.echo(
            f"rewrite inapplicable: {e.gap.count} gap coalitions share no player", err=True
        )
        sys.exit(EXIT_INAPPLICABLE)
    except ValueError as e:
        # A boosted copy can leave the exact-integer envelope of games.py.
        raise click.UsageError(str(e))


def _echo_json(report: dict) -> None:
    """The report as indented JSON with sorted keys, streamed in batches of encoder chunks."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    while batch := "".join(itertools.islice(chunks, _JSON_BATCH)):
        click.echo(batch, nl=False)
    click.echo()


def _render_text(report: dict) -> str:
    lines = []
    lines.append(f"dataset: {report['dataset']} ({report['members']} members)")
    if report["excluded"]:
        lines.append("excluded: " + ", ".join(report["excluded"]))
    rule = report["rule"]
    lines.append(
        f"rule: member quota {rule['member_quota']}, population quota "
        f"{rule['population_quota_scaled']} of {rule['scale']}x{rule['total_population']} "
        f"(scaled), veto quota {rule['veto_quota']}"
    )
    if report["swap_roles"]:
        lines.append("roles: swapped (veto game is the boosted side)")
    gap = report["gap"]
    lines.append(f"gap coalitions: {gap['count']}")
    if gap["count"]:
        lines.append("common core: " + _join(gap["common_core"]))
        lines.append(
            f"boost: {gap['boost_scaled']} scaled units "
            f"({gap['boost_population_units']} population units, ceiling)"
        )
        if gap["members"] is not None:
            for members in gap["members"]:
                lines.append("  gap: " + _join(members))
    lines.append(f"frontier coalitions: {report['frontier_count']}")
    for members in report["frontier"]:
        lines.append("  frontier: " + _join(members))
    lines.append(f"method: {report['method']}")
    lines.append(f"bound: {report['bound']}")
    alt = report["alternate_quota_reading"]
    if alt is not None and "error" in alt:
        lines.append(f"alternate quota reading: invalid ({alt['error']})")
    elif alt is not None:
        outcome = f"inapplicable ({alt['gap_count']} gap coalitions share no player)"
        if alt["bound"] is not None:
            outcome = (
                f"method {alt['method']}, gap {alt['gap_count']}, "
                f"frontier {alt['frontier_count']}, bound {alt['bound']}"
            )
        lines.append(
            f"alternate quota reading (retained quotas {alt['member_quota']}/"
            f"{alt['veto_quota']}): {outcome}"
        )
    lines.append("games:")
    for game in report["games"]:
        lines.append(f"  [{game['quota']}; {_join(game['weights'])}]")
    return "\n".join(lines) + "\n"


def _join(values) -> str:
    return ",".join(str(v) for v in values)


@click.group()
def main() -> None:
    """Dimension bounds for qualified-majority voting rules."""


_data_option = click.option(
    "--data",
    "data_ref",
    required=True,
    help="CSV path or builtin:<2014|2016|2017|2018>.",
)
_exclude_option = click.option(
    "--exclude",
    default="",
    help="Comma-separated country names to drop from the table.",
)
_threads_option = click.option(
    "--threads",
    type=click.IntRange(min=1),
    expose_value=False,
    help="Accepted for compatibility and ignored: the engine runs on one thread, "
    "because a second one measured no faster.",
)


@main.command()
@_data_option
@_exclude_option
@_threads_option
@click.option("--json", "as_json", is_flag=True, help="Emit the machine-readable report.")
@click.option(
    "--swap-roles",
    is_flag=True,
    help="Boost the veto game instead of the population game.",
)
def analyze(data_ref: str, exclude: str, as_json: bool, swap_roles: bool) -> None:
    """Rewrite the rule as an intersection and report the dimension bound."""
    excluded = _parse_exclude(exclude)
    table = _load_table(data_ref)
    rule = _build_rule(table, excluded)
    result = _analyze_or_exit(rule, swap_roles)
    report = {
        "dataset": data_ref,
        "excluded": sorted(excluded),
        "members": rule.n,
        "country_labels": list(rule.labels),
        "rule": {
            "member_quota": rule.member_quota,
            "veto_quota": rule.veto_quota,
            "population_quota_scaled": rule.population_game.quota,
            "scale": rule.scale,
            "total_population": rule.total_population,
            "member_fraction": str(data.MEMBER_FRACTION),
            "population_fraction": str(data.POPULATION_FRACTION),
            "blocking_minority": data.BLOCKING_MINORITY,
        },
        "swap_roles": swap_roles,
        "gap": _gap_section(rule, result.gap),
        "frontier": _labels(rule, result.frontier),
        "frontier_count": len(result.frontier),
        "method": result.method,
        "games": [_game_row(g) for g in result.games],
        "bound": len(result.games),
        "alternate_quota_reading": _alternate_section(table, excluded, rule, swap_roles),
        "verification": None,
    }
    if as_json:
        _echo_json(report)
    else:
        click.echo(_render_text(report), nl=False)


@main.command()
@_data_option
@_exclude_option
@_threads_option
def verify(data_ref: str, exclude: str) -> None:
    """Exhaustively check the emitted intersection against the rule."""
    from . import sweep

    excluded = _parse_exclude(exclude)
    rule = _build_rule(_load_table(data_ref), excluded)
    games = _analyze_or_exit(rule, False).games
    check = sweep.equivalent(rule.expr, all_of(*games))
    if check:
        click.echo(
            f"verification passed: the {len(games)} games match the rule "
            f"on all {1 << rule.n} coalitions"
        )
        return
    witness = check.counterexample
    assert witness is not None
    side = "rule" if rule.expr.evaluate(witness) else "emitted intersection"
    click.echo(
        "verification FAILED: coalition "
        f"{{{_join(rule.label_members(witness.mask))}}} wins only the {side}",
        err=True,
    )
    sys.exit(EXIT_FAILURE)


@main.group(name="lower-bound")
def lower_bound() -> None:
    """Certificate workflows for dimension lower bounds."""


def _read_coalition_file(path: str, rule: data.EuRule) -> list[Coalition]:
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            ranks = [int(tok) for tok in body.split(",")]
            mask = rule.mask_from_labels(ranks)
        except ValueError as e:
            raise click.UsageError(f"{path}:{lineno}: {e}")
        if mask in first_line:
            raise click.UsageError(
                f"{path}:{lineno}: duplicate coalition {{{_join(rule.label_members(mask))}}} "
                f"(same as line {first_line[mask]})"
            )
        first_line[mask] = lineno
    if not first_line:
        raise click.UsageError(f"{path}: no coalitions found")
    return [Coalition(mask, rule.n) for mask in first_line]


def _echo_certificates_or_exit(
    rule: data.EuRule, report: lowerbound.CertificateSetReport
) -> None:
    for idx, (s, losing) in enumerate(zip(report.coalitions, report.losing), start=1):
        status = "losing" if losing else "WINNING (not admissible)"
        click.echo(f"coalition {idx}: {{{_join(rule.label_members(s.mask))}}} {status}")
    for outcome in report.pairs:
        tag = f"pair ({outcome.i + 1},{outcome.j + 1}): {outcome.status}"
        if outcome.certificate is not None:
            cert = outcome.certificate
            tag += (
                f"  p={{{_join(rule.label_members(cert.p.mask))}}}"
                f"  q={{{_join(rule.label_members(cert.q.mask))}}}"
            )
        click.echo(tag)
    if report.lower_bound is not None:
        click.echo(f"certified lower bound: {report.lower_bound}")
    else:
        click.echo("set not fully certified: no lower bound claimed")
        sys.exit(EXIT_FAILURE)


@lower_bound.command(name="verify")
@_data_option
@_exclude_option
@_threads_option
@click.option(
    "--coalitions",
    "coalitions_path",
    required=True,
    help="File with one coalition per line: comma-separated 1-based ranks, # comments.",
)
def lower_bound_verify(data_ref: str, exclude: str, coalitions_path: str) -> None:
    """Check that a coalition set is losing and pairwise incompatible."""
    rule = _build_rule(_load_table(data_ref), _parse_exclude(exclude))
    coalitions = _read_coalition_file(coalitions_path, rule)
    try:
        report = lowerbound.verify_certificate_set(rule.expr, coalitions)
    except ValueError as e:
        raise click.UsageError(str(e))
    _echo_certificates_or_exit(rule, report)


@lower_bound.command(name="search")
@_data_option
@_exclude_option
@_threads_option
@click.option("--budget", type=int, default=64, show_default=True, help="Maximal losers to draw.")
@click.option("--seed", type=int, default=0, show_default=True)
def lower_bound_search(data_ref: str, exclude: str, budget: int, seed: int) -> None:
    """Find a largest pairwise-incompatible set in a seeded pool of maximal losers."""
    rule = _build_rule(_load_table(data_ref), _parse_exclude(exclude))
    try:
        report = lowerbound.search_certificate_set(rule.expr, budget, seed)
    except ValueError as e:
        raise click.UsageError(str(e))
    _echo_certificates_or_exit(rule, report)


if __name__ == "__main__":
    main()
