"""Command-line interface: analyze, verify, and certificate workflows.

Exit codes: 0 success, 1 verification or certification failure (also a
closed stdout or an interrupt), 2 input error (``main`` maps every
``ValueError`` to it), 3 rewrite inapplicable (gap coalitions share no
player).  Each command loads only what it runs: the rewrite in ``analyze``
and ``verify``, the sweeps with numpy in ``verify`` alone; the certificate
search in the two ``lower-bound`` commands; ``json`` in ``analyze --json``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import warnings
from typing import TYPE_CHECKING, Iterator, Optional

from . import data
from .games import Coalition, all_of

if TYPE_CHECKING:
    from . import decompose, lowerbound

EXIT_FAILURE = 1
EXIT_INAPPLICABLE = 3
# Pieces joined per write of ``analyze --json``: a batch of 2^7 of the no-UK
# report's 2,730 holds 0.15 MiB, in 23 writes.  One write per encoder chunk,
# as ``json.dump`` writes (87,300), took 0.34 → 0.43 s under PYTHONUNBUFFERED=1.
_JSON_BATCH = 1 << 7


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            return f.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ValueError(f"cannot read {path}: not UTF-8 text ({e.reason})")


def _load_table(data_ref: str) -> data.PopulationTable:
    if data_ref.startswith("builtin:"):
        return data.builtin_table(data_ref.removeprefix("builtin:"))
    text = _read_text(data_ref)
    try:
        return data.load_table(text)
    except ValueError as e:
        raise ValueError(f"{data_ref}: {e}")


def _parse_exclude(exclude: str) -> tuple[str, ...]:
    return tuple(dict.fromkeys(s.strip() for s in exclude.split(",") if s.strip()))


def _labels(rule: data.EuRule, coalitions) -> list[list[int]]:
    return [list(rule.label_members(s.mask)) for s in coalitions]


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
    table: data.PopulationTable, excluded: tuple[str, ...], main_rule: data.EuRule, swap_roles: bool
) -> Optional[dict]:
    """The retained-quota reading, reported whenever it differs.

    When members are excluded, the counting quotas can either be re-derived
    from the smaller membership (the main report) or retained from the full
    table; the two readings disagree on the rule, so the report carries the
    second one's outcome as well.
    """
    try:
        rule = data.build_eu_rule(table, exclude=excluded, quota_member_count=table.member_count)
    except ValueError as e:
        return {"error": str(e)}
    if (rule.member_quota, rule.veto_quota) == (main_rule.member_quota, main_rule.veto_quota):
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
    """The rewrite; an empty core exits 3 here, before ``main`` maps ``ValueError`` to 2."""
    from . import decompose

    try:
        return decompose.analyze_rule(rule, swap_roles)
    except decompose.EmptyCoreError as e:
        print(
            f"rewrite inapplicable: {e.gap.count} gap coalitions share no player",
            file=sys.stderr,
        )
        sys.exit(EXIT_INAPPLICABLE)


def _json_pieces(report: dict) -> Iterator[str]:
    """``json.dumps(report, indent=2, sort_keys=True)`` in pieces.

    A piece is a top-level entry, or an element of a top-level list of lists
    or dicts.  ``json.dumps`` indents in pure Python: 40 ms on the no-UK report.
    """
    import json
    from json.encoder import encode_basestring_ascii as quoted

    def render(value, indent: str) -> str:
        if isinstance(value, str):
            return quoted(value)
        if type(value) is int:
            return int.__repr__(value)
        if not value or not isinstance(value, (list, dict)):
            return json.dumps(value)  # None, booleans, floats, empty containers
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{quoted(k)}: {render(v, inner)}" for k, v in sorted(value.items())]
        elif set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [render(v, inner) for v in value]
        ends = "{}" if isinstance(value, dict) else "[]"
        return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"

    for i, (key, value) in enumerate(sorted(report.items())):
        head = ("{" if i == 0 else ",") + f"\n  {quoted(key)}: "
        if value and isinstance(value, list) and isinstance(value[0], (list, dict)):
            yield head + "["
            yield from ("," * (j > 0) + "\n    " + render(v, "    ") for j, v in enumerate(value))
            yield "\n  ]"
        else:
            yield head + render(value, "  ")
    yield "\n}" if report else "{}"


def _echo_json(report: dict) -> None:
    """The report as indented JSON with sorted keys, streamed in batches of pieces."""
    pieces = _json_pieces(report)
    while batch := "".join(itertools.islice(pieces, _JSON_BATCH)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


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


def analyze(args: argparse.Namespace, table: data.PopulationTable, rule: data.EuRule) -> None:
    """Rewrite the rule as an intersection and report the dimension bound."""
    result = _analyze_or_exit(rule, args.swap_roles)
    report = {
        "dataset": args.data,
        "excluded": sorted(args.exclude),
        "members": rule.n,
        "country_labels": list(rule.labels),
        "rule": {
            "member_quota": rule.member_quota,
            "veto_quota": rule.veto_quota,
            "population_quota_scaled": rule.population_game.quota,
            "scale": rule.scale,
            "total_population": rule.total_population,
            "member_fraction": "%d/%d" % data.MEMBER_FRACTION,
            "population_fraction": "%d/%d" % data.POPULATION_FRACTION,
            "blocking_minority": data.BLOCKING_MINORITY,
        },
        "swap_roles": args.swap_roles,
        "gap": _gap_section(rule, result.gap),
        "frontier": _labels(rule, result.frontier),
        "frontier_count": len(result.frontier),
        "method": result.method,
        "games": [{"quota": g.quota, "weights": list(g.weights)} for g in result.games],
        "bound": len(result.games),
        "alternate_quota_reading": _alternate_section(table, args.exclude, rule, args.swap_roles),
        "verification": None,
    }
    if args.json:
        _echo_json(report)
    else:
        sys.stdout.write(_render_text(report))


def verify(args: argparse.Namespace, table: data.PopulationTable, rule: data.EuRule) -> None:
    """Exhaustively check the emitted intersection against the rule."""
    from . import sweep

    games = _analyze_or_exit(rule, False).games
    check = sweep.equivalent(rule.expr, all_of(*games))
    if check:
        print(
            f"verification passed: the {len(games)} games match the rule "
            f"on all {1 << rule.n} coalitions"
        )
        return
    witness = check.counterexample
    assert witness is not None
    side = "rule" if rule.expr.evaluate(witness) else "emitted intersection"
    print(
        "verification FAILED: coalition "
        f"{{{_join(rule.label_members(witness.mask))}}} wins only the {side}",
        file=sys.stderr,
    )
    sys.exit(EXIT_FAILURE)


def _read_coalition_file(path: str, rule: data.EuRule) -> list[Coalition]:
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        where = f"{path}:{lineno}"
        try:
            ranks = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ValueError(f"{where}: ranks must be comma-separated integers, got {body!r}")
        try:
            mask = rule.mask_from_labels(ranks)
        except ValueError as e:
            raise ValueError(f"{where}: {e}")
        if mask in first_line:
            raise ValueError(
                f"{where}: duplicate coalition {{{_join(rule.label_members(mask))}}} "
                f"(same as line {first_line[mask]})"
            )
        first_line[mask] = lineno
    if not first_line:
        raise ValueError(f"{path}: no coalitions found")
    return [Coalition(mask, rule.n) for mask in first_line]


def _echo_certificates_or_exit(rule: data.EuRule, report: lowerbound.CertificateSetReport) -> None:
    for idx, (s, losing) in enumerate(zip(report.coalitions, report.losing), start=1):
        status = "losing" if losing else "WINNING (not admissible)"
        print(f"coalition {idx}: {{{_join(rule.label_members(s.mask))}}} {status}")
    for outcome in report.pairs:
        tag = f"pair ({outcome.i + 1},{outcome.j + 1}): {outcome.status}"
        if outcome.certificate is not None:
            cert = outcome.certificate
            tag += (
                f"  p={{{_join(rule.label_members(cert.p.mask))}}}"
                f"  q={{{_join(rule.label_members(cert.q.mask))}}}"
            )
        print(tag)
    if report.lower_bound is not None:
        print(f"certified lower bound: {report.lower_bound}")
    else:
        print("set not fully certified: no lower bound claimed")
        sys.exit(EXIT_FAILURE)


def lower_bound_verify(
    args: argparse.Namespace, table: data.PopulationTable, rule: data.EuRule
) -> None:
    """Check that a coalition set is losing and pairwise incompatible."""
    from . import lowerbound

    coalitions = _read_coalition_file(args.coalitions, rule)
    report = lowerbound.verify_certificate_set(rule.expr, coalitions)
    _echo_certificates_or_exit(rule, report)


def lower_bound_search(
    args: argparse.Namespace, table: data.PopulationTable, rule: data.EuRule
) -> None:
    """Find a largest pairwise-incompatible set in a seeded pool of maximal losers."""
    from . import lowerbound

    report = lowerbound.search_certificate_set(rule.expr, args.budget, args.seed)
    _echo_certificates_or_exit(rule, report)


def _thread_count(value: str) -> int:
    if not value.strip().isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a positive integer")
    return int(value)


def _command(group, name: str, run) -> argparse.ArgumentParser:
    """A subcommand running ``run``, with the options every command takes."""
    parser = group.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
    parser.add_argument("--data", required=True, help="CSV path or builtin:<2014|2016|2017|2018>.")
    parser.add_argument(
        "--exclude",
        default="",
        type=_parse_exclude,
        help="Comma-separated country names to drop from the table.",
    )
    parser.add_argument(
        "--threads",
        type=_thread_count,
        help="Accepted for compatibility and ignored: the engine runs on one thread, "
        "because a second one measured no faster.",
    )
    parser.set_defaults(run=run, parser=parser)
    return parser


def main(args: Optional[list[str]] = None, prog_name: str = "votedim") -> None:
    """Dimension bounds for qualified-majority voting rules."""
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    command = _command(commands, "analyze", analyze)
    command.add_argument("--json", action="store_true", help="Emit the machine-readable report.")
    command.add_argument(
        "--swap-roles",
        action="store_true",
        help="Boost the veto game instead of the population game.",
    )
    _command(commands, "verify", verify)
    doc = "Certificate workflows for dimension lower bounds."
    workflows = commands.add_parser("lower-bound", help=doc, description=doc, allow_abbrev=False)
    workflows = workflows.add_subparsers(dest="workflow", required=True)
    _command(workflows, "verify", lower_bound_verify).add_argument(
        "--coalitions",
        required=True,
        help="File with one coalition per line: comma-separated 1-based ranks, # comments.",
    )
    search = _command(workflows, "search", lower_bound_search)
    search.add_argument("--budget", type=int, default=64, help="Maximal losers drawn (default 64).")
    search.add_argument("--seed", type=int, default=0, help="Pool seed (default 0).")
    parsed = parser.parse_args(args)
    try:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                table = _load_table(parsed.data)
            for w in caught:
                print(f"{parsed.parser.prog}: warning: {w.message}", file=sys.stderr)
            rule = data.build_eu_rule(table, exclude=parsed.exclude)
            parsed.run(parsed, table, rule)
        finally:
            sys.stdout.flush()
    except ValueError as e:
        parsed.parser.error(str(e))
    except BrokenPipeError:
        # The reader closed stdout: the rest goes to devnull, so shutdown's flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_FAILURE)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(EXIT_FAILURE)


main.main = main  # ``perfbench/traced.py`` starts every command through ``main.main``.

if __name__ == "__main__":
    main()
