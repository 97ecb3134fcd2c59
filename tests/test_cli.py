"""Command-line workflows: analyze, verify, lower-bound; exit-code contract."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from cli_runner import invoke
from votedim import cli, data, decompose, lowerbound

TOY16 = """\
rank,country,population
1,Big1,21
2,Big2,20
3,Big3,19
4,Big4,18
5,Light01,12
6,Light02,11
7,Light03,10
8,Light04,9
9,Light05,8
10,Light06,7
11,Light07,6
12,Light08,5
13,Light09,4
14,Light10,3
15,Light11,2
16,Light12,1
"""

# A 65% population quota (117/180 scaled to 2028/3120 here) is blocked only
# by the four triples of Big countries, so the twelve Light countries form
# the common core; the rewrite needs no veto games on this table.

TINY2 = """\
rank,country,population
1,Aster,4
2,Briar,1
"""

# Both singletons fall below 65% of 3+2, so the gap splits over disjoint
# players and the rewrite is inapplicable.
FLAT2 = """\
rank,country,population
1,Pine,3
2,Oak,2
"""

# Without C, D and E the rule has 2 members; the full table's member quota,
# ceil(0.55 * 5) = 3, is then out of reach.
FIVE = """\
rank,country,population
1,A,50
2,B,20
3,C,15
4,D,10
5,E,5
"""

# Without C1 and C2, the retained quotas 6/7 leave 60 gap coalitions with no
# common player when the veto game is the boosted side.
TEN = "rank,country,population\n" + "".join(
    f"{i},C{i},{p}\n" for i, p in enumerate((55, 54, 52, 48, 43, 24, 11, 7, 6, 4), 1)
)

# TOY16 scaled up: the table and its rule are valid, but the rewrite's
# boosted copies would leave the 2^61 exact-integer envelope.
HUGE16 = "rank,country,population\n" + "".join(
    f"{rank},{country},{int(population) * 447_910_452_450_212}\n"
    for rank, country, population in (
        line.split(",") for line in TOY16.splitlines()[1:]
    )
)

UNORDERED = """\
rank,country,population
1,Pine,2
2,Oak,3
"""


@pytest.fixture(scope="module")
def toys(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    paths = {}
    for name, text in (
        ("toy16", TOY16),
        ("tiny2", TINY2),
        ("flat2", FLAT2),
        ("five", FIVE),
        ("ten", TEN),
        ("unordered", UNORDERED),
        ("huge16", HUGE16),
    ):
        p = root / f"{name}.csv"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(*args):
    return invoke(args)


def analyze_json(*args):
    result = run("analyze", "--json", *args)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


class TestAnalyze:
    def test_toy16_report(self, toys):
        report = analyze_json("--data", toys["toy16"], "--threads", "1")
        assert report["members"] == 16
        assert report["excluded"] == []
        assert report["country_labels"] == list(range(1, 17))
        assert report["rule"] == {
            "member_quota": 9,
            "veto_quota": 13,
            "population_quota_scaled": 2028,
            "scale": 20,
            "total_population": 156,
            "member_fraction": "11/20",
            "population_fraction": "13/20",
            "blocking_minority": 4,
        }
        gap = report["gap"]
        assert gap["count"] == 4
        assert gap["common_core"] == list(range(5, 17))
        assert gap["min_weight_scaled"] == 1920
        assert gap["boost_scaled"] == 108
        assert gap["boost_population_units"] == 6  # ceil(108 / 20)
        assert gap["members"] == [
            [1] + list(range(5, 17)),
            [2] + list(range(5, 17)),
            [3] + list(range(5, 17)),
            [4] + list(range(5, 17)),
        ]
        assert report["frontier"] == []
        assert report["frontier_count"] == 0
        assert report["method"] == "core-boost"
        assert report["bound"] == 13
        # One membership-count game plus the emitted intersection.
        assert len(report["games"]) == report["bound"]
        assert report["games"][0] == {"quota": 9, "weights": [1] * 16}
        for row in report["games"][1:]:
            assert row["quota"] == 2028
        assert report["alternate_quota_reading"] is None
        assert report["verification"] is None

    def test_toy16_text_output(self, toys):
        result = run("analyze", "--data", toys["toy16"], "--threads", "1")
        assert result.exit_code == 0
        assert "bound: 13" in result.stdout
        assert "method: core-boost" in result.stdout
        assert "common core: 5,6,7,8,9,10,11,12,13,14,15,16" in result.stdout
        assert "boost: 108 scaled units (6 population units, ceiling)" in result.stdout

    def test_thread_count_does_not_change_output(self, toys):
        one = run("analyze", "--data", toys["toy16"], "--json", "--threads", "1")
        two = run("analyze", "--data", toys["toy16"], "--json", "--threads", "2")
        assert one.exit_code == two.exit_code == 0
        assert one.stdout == two.stdout

    def test_exclusion_reports_alternate_quota_reading(self, toys):
        report = analyze_json(
            "--data", toys["toy16"], "--exclude", "Light12", "--threads", "1"
        )
        assert report["excluded"] == ["Light12"]
        assert report["members"] == 15
        assert report["country_labels"] == list(range(1, 16))
        assert report["rule"]["member_quota"] == 9
        assert report["rule"]["veto_quota"] == 12
        assert report["bound"] == 12
        assert report["gap"]["common_core"] == list(range(5, 16))
        # Retaining the full-table quotas empties the gap entirely.
        assert report["alternate_quota_reading"] == {
            "member_quota": 9,
            "veto_quota": 13,
            "method": "first-game",
            "gap_count": 0,
            "common_core": list(range(1, 16)),
            "frontier_count": 0,
            "bound": 2,
        }

    def test_tiny_table(self, toys):
        report = analyze_json("--data", toys["tiny2"], "--threads", "1")
        assert report["rule"]["member_quota"] == 2
        assert report["rule"]["veto_quota"] == 1
        assert report["gap"]["count"] == 1
        assert report["gap"]["members"] == [[2]]
        assert report["bound"] == 2

    def test_gap_cap_suppresses_member_listing(self, toys, monkeypatch):
        monkeypatch.setattr(decompose, "GAP_MEMBER_CAP", 2)
        report = analyze_json("--data", toys["toy16"], "--threads", "1")
        assert report["gap"]["count"] == 4
        assert report["gap"]["members"] is None
        assert report["bound"] == 13

    def test_swapped_roles_can_be_inapplicable(self, toys):
        result = run("analyze", "--data", toys["toy16"], "--swap-roles")
        assert result.exit_code == 3
        assert "rewrite inapplicable" in result.stderr

    def test_disjoint_gap_is_inapplicable(self, toys):
        result = run("analyze", "--data", toys["flat2"])
        assert result.exit_code == 3
        assert "share no player" in result.stderr

    def test_alternate_reading_with_unsatisfiable_quota(self, toys):
        report = analyze_json("--data", toys["five"], "--exclude", "C,D,E")
        assert report["members"] == 2
        assert report["bound"] == 2
        assert report["alternate_quota_reading"] == {
            "error": "member quota 3 is not satisfiable by 2 members"
        }

    def test_alternate_reading_inapplicable(self, toys):
        report = analyze_json(
            "--data", toys["ten"], "--exclude", "C1,C2", "--swap-roles"
        )
        assert report["bound"] == 28
        assert report["alternate_quota_reading"] == {
            "member_quota": 6,
            "veto_quota": 7,
            "method": "inapplicable",
            "gap_count": 60,
            "common_core": [],
            "frontier_count": None,
            "bound": None,
        }

    def test_alternate_reading_inapplicable_text(self, toys):
        result = run("analyze", "--data", toys["ten"], "--exclude", "C1,C2", "--swap-roles")
        assert result.exit_code == 0
        assert (
            "alternate quota reading (retained quotas 6/7): "
            "inapplicable (60 gap coalitions share no player)\n" in result.stdout
        )
        assert "None" not in result.stdout

    def test_alternate_reading_beyond_the_weight_envelope(self, toys, monkeypatch):
        # The retained reading (veto quota 13) fails as an oversized boost would.
        analyze_rule = decompose.analyze_rule

        def analyze(rule, *args):
            if rule.veto_quota == 13:
                raise ValueError("weights too large for the exact integer engine")
            return analyze_rule(rule, *args)

        monkeypatch.setattr(decompose, "analyze_rule", analyze)
        report = analyze_json("--data", toys["toy16"], "--exclude", "Light12")
        assert report["bound"] is not None
        assert report["alternate_quota_reading"] == {
            "error": "weights too large for the exact integer engine"
        }

    def test_duplicate_exclusions_are_reported_once(self, toys):
        report = analyze_json("--data", toys["five"], "--exclude", "C,D,E,E")
        assert report["excluded"] == ["C", "D", "E"]
        assert report["members"] == 2
        result = run("analyze", "--data", toys["five"], "--exclude", "C,D,E,E")
        assert result.exit_code == 0
        assert "excluded: C, D, E\n" in result.stdout


# FIVE with names that JSON escapes: non-ASCII letters, a quote and a backslash.
ODD_NAMES = (
    "rank,country,population\n1,Ärø,50\n2,\"Bé \"\"quoted\"\" \\ back\",20\n"
    "3,Çà 字,15\n4,D,10\n5,Ünï,5\n"
)


class TestJsonStream:
    def test_writer_equals_the_standard_library(self, toys, tmp_path):
        odd = tmp_path / "tablé ü.csv"
        odd.write_text(ODD_NAMES, encoding="utf-8")
        reports = [
            # Escaped names in ``excluded`` and ``dataset``, and the alternate
            # reading's ``error`` string.
            analyze_json("--data", str(odd), "--exclude", 'D,Ünï,Bé "quoted" \\ back'),
            # An empty ``excluded`` and ``frontier``, nested dicts, gap members.
            analyze_json("--data", toys["toy16"]),
            # ``swap_roles`` true, and an alternate reading holding nulls.
            analyze_json("--data", toys["ten"], "--exclude", "C1,C2", "--swap-roles"),
            # Lists of lists and of dicts, 782 KB.
            analyze_json("--data", "builtin:2018", "--exclude", "United Kingdom"),
        ]
        assert reports[0]["excluded"] == sorted(['Bé "quoted" \\ back', "D", "Ünï"])
        assert "error" in reports[0]["alternate_quota_reading"]
        assert reports[1]["excluded"] == reports[1]["frontier"] == []
        assert reports[1]["verification"] is None and reports[1]["swap_roles"] is False
        assert reports[2]["swap_roles"] is True
        assert reports[2]["alternate_quota_reading"]["bound"] is None
        for report in reports:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli._echo_json(report)
            assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("batch", [1, 3])
    def test_batches_join_to_one_dump(self, toys, batch, monkeypatch):
        # Batches of 1 and 3 pieces put a boundary between keys, elements
        # and the brackets of nested lists and dicts.
        report = analyze_json("--data", toys["toy16"], "--exclude", "Light12")
        monkeypatch.setattr(cli, "_JSON_BATCH", batch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._echo_json(report)
        assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("batch", [1, cli._JSON_BATCH])
    def test_writer_on_values_no_report_holds(self, batch, monkeypatch):
        # A boolean in a list of ints is not an int to JSON, a float and None
        # go through json.dumps, empty containers sit two levels down, and
        # keys need escaping.
        value = {
            "ints": [1, True, 0, False],
            "floats": [1.5, -2e300, 0.1],
            "nested": {"lists": [[], {}, [[]]], "dicts": {"a": {}, "b": []}},
            "ünï \"key\" \\ \n\t\u2028": {"é": None, "": "ü"},
            "mixed": [None, 1, "x", 2.0, [None]],
            "scalar": 3.25,
        }
        monkeypatch.setattr(cli, "_JSON_BATCH", batch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._echo_json(value)
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_rendering_memory(self):
        # The no-UK report: 782 KB of JSON, 1,364 games of 27 weights each.
        # The renderer holds one batch of 2^9 pieces, 0.34 MiB in
        # tracemalloc; batches of 2^12 pieces hold 1.24 MiB.
        report = analyze_json("--data", "builtin:2018", "--exclude", "United Kingdom")
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                cli._echo_json(report)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2**20

    def test_rendering_writes_few_batches(self):
        # Under PYTHONUNBUFFERED=1 every write is a system call.  The no-UK
        # report is 87,300 encoder chunks, one write each under json.dump,
        # and 6,872 pieces here, joined into 15 writes (55 in batches of 2^7).
        report = analyze_json("--data", "builtin:2018", "--exclude", "United Kingdom")
        writes = []

        class Counting(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        with contextlib.redirect_stdout(Counting()) as out:
            cli._echo_json(report)
        assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert len(writes) <= 64


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """The four commands by name, with the options each needs besides ``--data``."""
    ranks = tmp_path_factory.mktemp("coalitions") / "rank1.txt"
    ranks.write_text("1\n", encoding="utf-8")
    return {
        "analyze": (),
        "verify": (),
        "lower-bound verify": ("--coalitions", str(ranks)),
        "lower-bound search": (),
    }


def test_tie_warning_is_one_stderr_line(commands, tmp_path):
    # Ranks 5 and 6 of TOY16 tied: the table loads, with a warning.
    tied = tmp_path / "toy16_tied.csv"
    tied.write_text(TOY16.replace("Light02,11", "Light02,12"), encoding="utf-8")
    for name, options in commands.items():
        result = run(*name.split(), *options, "--data", str(tied))
        assert result.stderr.splitlines()[:1] == [
            f"votedim {name}: warning: population tie between ranks 5 and 6; keeping input order"
        ]
        assert "UserWarning" not in result.stderr
        assert ".py:" not in result.stderr


class TestInputErrors:
    @staticmethod
    def assert_rejected(commands, message, *args):
        """Every command exits 2 with no output and ``message`` as its last stderr line."""
        for name, options in commands.items():
            result = run(*name.split(), *options, *args)
            assert result.exit_code == 2, (name, result.output)
            assert result.stdout == ""
            assert result.stderr.splitlines()[-1] == f"votedim {name}: error: {message}"

    def test_unknown_builtin_year(self, commands):
        message = "no builtin table '1999'; choose from 2014, 2016, 2017, 2018"
        self.assert_rejected(commands, message, "--data", "builtin:1999")

    def test_missing_file(self, commands):
        path = "/nonexistent/table.csv"
        message = f"cannot read {path}: No such file or directory"
        self.assert_rejected(commands, message, "--data", path)

    def test_malformed_csv(self, commands, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("country;population\n", encoding="utf-8")
        message = f"{bad}: expected header 'rank,country,population', got 'country;population'"
        self.assert_rejected(commands, message, "--data", str(bad))

    def test_data_not_utf8(self, commands, tmp_path):
        latin = tmp_path / "latin1.csv"
        latin.write_bytes("rank,country,population\n1,Françe,10\n".encode("latin-1"))
        message = f"cannot read {latin}: not UTF-8 text (invalid continuation byte)"
        self.assert_rejected(commands, message, "--data", str(latin))

    def test_data_byte_order_mark(self, toys, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark.
        marked = tmp_path / "toy16_bom.csv"
        marked.write_text("\ufeff" + TOY16, encoding="utf-8")
        plain, with_bom = analyze_json("--data", toys["toy16"]), analyze_json("--data", str(marked))
        assert with_bom.pop("dataset") == str(marked)
        plain.pop("dataset")
        assert with_bom == plain

    def test_unknown_excluded_country(self, toys, commands):
        args = ("--data", toys["toy16"], "--exclude", "Atlantis")
        self.assert_rejected(commands, "unknown countries: Atlantis", *args)

    def test_unordered_table(self, toys, commands):
        message = (
            f"{toys['unordered']}: populations must not increase down the table: rank 1 has 2 "
            "but rank 2 has 3; sort the rows by descending population and number the ranks "
            "in that order"
        )
        self.assert_rejected(commands, message, "--data", toys["unordered"])

    def test_more_than_32_players(self, commands, tmp_path):
        big = tmp_path / "big33.csv"
        big.write_text(
            "rank,country,population\n" + "".join(f"{i},C{i},{100 - i}\n" for i in range(1, 34)),
            encoding="utf-8",
        )
        self.assert_rejected(commands, "player count must be in 1..32, got 33", "--data", str(big))

    def test_one_member_left(self, commands):
        rest = ",".join(row.country for row in data.builtin_table("2014").rows[1:])
        args = ("--data", "builtin:2014", "--exclude", rest)
        self.assert_rejected(commands, "need at least 2 members, got 1", *args)

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_boost_beyond_the_weight_envelope(self, toys, command):
        result = run(command, "--data", toys["huge16"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "total weight + quota must stay below 2^61" in result.stderr
        assert "Traceback" not in result.output

    def test_thread_count_must_be_positive(self, toys):
        result = run("analyze", "--data", toys["toy16"], "--threads", "0")
        assert result.exit_code == 2
        assert "--threads" in result.stderr

    @pytest.mark.parametrize(
        "args, option",
        [
            (("analyze", "--gap-cap", "-1"), "--gap-cap"),
            (("lower-bound", "verify", "--coalitions", "c", "--delta-cap", "-1"), "--delta-cap"),
            (("lower-bound", "search", "--delta-cap", "0"), "--delta-cap"),
            (("analyze", "--gap-cap", "5"), "--gap-cap"),
            (("lower-bound", "verify", "--coalitions", "c", "--delta-cap", "5"), "--delta-cap"),
            (("lower-bound", "search", "--delta-cap", "5"), "--delta-cap"),
        ],
    )
    def test_cap_out_of_range(self, toys, args, option):
        # The caps are fixed constants: any value is an unknown option.
        result = run(*args, "--data", toys["toy16"])
        assert result.exit_code == 2
        assert option in result.stderr


class TestVerify:
    def test_toy16_passes(self, toys):
        result = run("verify", "--data", toys["toy16"], "--threads", "1")
        assert result.exit_code == 0
        assert (
            "verification passed: the 13 games match the rule on all 65536 coalitions"
            in result.stdout
        )

    def test_tiny_table_passes(self, toys):
        result = run("verify", "--data", toys["tiny2"])
        assert result.exit_code == 0
        assert "verification passed" in result.stdout

    def test_excluded_member_passes(self, toys):
        result = run("verify", "--data", toys["toy16"], "--exclude", "Light12")
        assert result.exit_code == 0
        assert "verification passed" in result.stdout

    def test_disjoint_gap_is_inapplicable(self, toys):
        result = run("verify", "--data", toys["flat2"])
        assert result.exit_code == 3
        assert "rewrite inapplicable" in result.stderr
        assert result.stdout == ""

    def test_corrupted_boost_fails(self, toys, monkeypatch):
        # Emit every boosted game one unit short of the derived boost.
        boosted = decompose._boosted_games
        monkeypatch.setattr(
            decompose,
            "_boosted_games",
            lambda base, core, boost: boosted(base, core, boost - 1),
        )
        result = run("verify", "--data", toys["toy16"], "--threads", "1")
        assert result.exit_code == 1
        assert "verification FAILED" in result.stderr
        assert "wins only the rule" in result.stderr


class TestLowerBound:
    def write(self, tmp_path, text):
        p = tmp_path / "coalitions.txt"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_single_losing_coalition(self, toys, tmp_path):
        path = self.write(tmp_path, "# eight members fall short of the quota\n1,2,3,4,5,6,7,8\n")
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 0
        assert "coalition 1: {1,2,3,4,5,6,7,8} losing" in result.stdout
        assert "certified lower bound: 1" in result.stdout

    def test_winning_coalition_fails(self, toys, tmp_path):
        path = self.write(tmp_path, "1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7,8,9\n")
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 1
        assert "WINNING (not admissible)" in result.stdout
        assert "pair (1,2): not-attempted" in result.stdout
        assert "set not fully certified" in result.stdout

    def test_compatible_pair_fails(self, toys, tmp_path):
        path = self.write(
            tmp_path,
            "1,5,6,7,8,9,10,11,12,13,14,15\n5,6,7,8,9,10,11,12,13,14,15,16\n",
        )
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 1
        assert "pair (1,2): no-certificate" in result.stdout
        assert "set not fully certified" in result.stdout

    def test_rank_out_of_range(self, toys, tmp_path):
        path = self.write(tmp_path, "1,2,99\n")
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 2
        assert "coalitions.txt:1" in result.stderr
        assert "rank 99 is not in the table" in result.stderr

    def test_non_integer_rank(self, toys, tmp_path):
        for line in ("1,two,3", "1,2,"):
            path = self.write(tmp_path, f"{line}\n")
            result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
            assert result.exit_code == 2
            assert "coalitions.txt:1" in result.stderr
            expected = f"{path}:1: ranks must be comma-separated integers, got {line!r}"
            assert expected in result.stderr

    def test_rank_listed_twice(self, toys, tmp_path):
        # A repeated rank is an input error, not a silently smaller coalition.
        path = self.write(tmp_path, "5,6\n1,1,2\n")
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 2
        assert f"{path}:2: rank 1 is listed twice" in result.stderr

    def test_duplicate_coalitions(self, toys, tmp_path):
        path = self.write(tmp_path, "1,2,3\n1,2,3\n")
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 2
        assert "duplicate" in result.stderr

    @pytest.mark.parametrize(
        "text, line, shown, first",
        [("1\n# again\n1\n", 3, "{1}", 1), ("5,6\n1,2\n2,1\n", 3, "{1,2}", 2)],
    )
    def test_duplicate_names_ranks_and_lines(self, toys, tmp_path, text, line, shown, first):
        path = self.write(tmp_path, text)
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 2
        assert f"{path}:{line}: duplicate coalition {shown} (same as line {first})" in result.stderr

    def test_coalitions_not_utf8(self, toys, tmp_path):
        path = tmp_path / "coalitions.txt"
        path.write_bytes(b"1,2,3 # \xff\n")
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", str(path))
        assert result.exit_code == 2
        assert f"cannot read {path}: not UTF-8 text" in result.stderr
        assert "Traceback" not in result.output

    def test_coalitions_byte_order_mark(self, toys, tmp_path):
        text = "1,2,3,4,5,6,7,8\n9,10,11,12,13,14,15,16\n"
        marked = tmp_path / "marked.txt"
        marked.write_text("\ufeff" + text, encoding="utf-8")
        args = ("lower-bound", "verify", "--data", toys["toy16"], "--coalitions")
        plain, with_bom = run(*args, self.write(tmp_path, text)), run(*args, str(marked))
        assert plain.exit_code == 1  # the pair is compatible
        assert (with_bom.exit_code, with_bom.stdout) == (plain.exit_code, plain.stdout)

    def test_comments_only_file(self, toys, tmp_path):
        path = self.write(tmp_path, "# nothing here\n\n")
        result = run("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", path)
        assert result.exit_code == 2
        assert "no coalitions found" in result.stderr

    def test_excluded_rank_rejected(self, toys, tmp_path):
        path = self.write(tmp_path, "1,2,16\n")
        result = run(
            "lower-bound",
            "verify",
            "--data",
            toys["toy16"],
            "--exclude",
            "Light12",
            "--coalitions",
            path,
        )
        assert result.exit_code == 2
        assert "rank 16 is not in the table" in result.stderr

    def test_search_smoke(self, toys):
        result = run(
            "lower-bound", "search", "--data", toys["toy16"], "--budget", "8",
            "--threads", "1",
        )
        assert result.exit_code == 0
        assert "certified lower bound:" in result.stdout

    def test_search_is_deterministic(self, toys):
        args = (
            "lower-bound", "search", "--data", toys["toy16"], "--budget", "8",
            "--seed", "3", "--threads", "1",
        )
        assert run(*args).stdout == run(*args).stdout

    def test_negative_seed(self, toys):
        # A negative number is an option's value, not an option.
        args = ("lower-bound", "search", "--data", toys["toy16"], "--budget", "4", "--seed", "-3")
        assert run(*args).exit_code == 0

    def test_interrupt_aborts(self, toys, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(lowerbound, "search_certificate_set", interrupt)
        result = run("lower-bound", "search", "--data", toys["toy16"])
        assert (result.exit_code, result.stderr) == (1, "\nAborted!\n")

    def test_search_budget_validation(self, toys):
        result = run("lower-bound", "search", "--data", toys["toy16"], "--budget", "0")
        assert result.exit_code == 2
        assert "budget must be positive" in result.stderr

    def test_bundled_2014_certificate(self):
        path = resources.files("votedim").joinpath("certs/eu2014_7.txt")
        start = time.perf_counter()
        result = run("lower-bound", "verify", "--data", "builtin:2014", "--coalitions", str(path))
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, result.output
        assert result.stdout.count(": certified  p=") == 21
        assert result.stdout.endswith("certified lower bound: 7\n")
        assert elapsed < 1.0

    def test_search_report_is_verify_of_its_clique(self, tmp_path):
        y2014 = ("--data", "builtin:2014")
        search = run("lower-bound", "search", *y2014, "--budget", "32", "--seed", "0")
        ranks = re.findall(r"^coalition \d+: \{([\d,]*)\}", search.stdout, re.M)
        assert len(ranks) > 1
        path = self.write(tmp_path, "".join(f"{r}\n" for r in ranks))
        verify = run("lower-bound", "verify", *y2014, "--coalitions", path)
        assert (verify.exit_code, verify.stdout) == (search.exit_code, search.stdout)

    def test_search_has_no_pair_budget(self, toys):
        # The pool budget alone bounds the pair searches.
        args = ("lower-bound", "search", "--data", toys["toy16"], "--pair-budget", "5")
        result = run(*args)
        assert result.exit_code == 2
        assert "unrecognized arguments: --pair-budget" in result.stderr


def test_no_command_starts_a_thread(toys, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # Three losing coalitions: three pairs to search.
    path = tmp_path / "coalitions.txt"
    path.write_text("1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7,9\n1,2,3,4,5,6,7,10\n", encoding="utf-8")
    for args, code in (
        (("analyze", "--json", "--data", toys["toy16"]), 0),
        (("verify", "--data", toys["toy16"]), 0),
        (("lower-bound", "verify", "--data", toys["toy16"], "--coalitions", str(path)), 1),
    ):
        result = run(*args, "--threads", "4")
        # sys.exit(1) surfaces as SystemExit; a refused start as AssertionError.
        assert isinstance(result.exception, (type(None), SystemExit)), result.exception
        assert result.exit_code == code, args


def run_python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with this checkout's package on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_only_sweeping_commands_load_numpy(toys):
    # The certificate commands and ``analyze`` run on the standard library
    # alone, and the certificate commands load none of the heavier parts of
    # it; numpy loads when ``verify`` sweeps, and loading it late changes no
    # output.  The certificate search loads only in the commands that run it.
    no_uk = ["--data", "builtin:2018", "--exclude", "United Kingdom"]
    certs = resources.files("votedim") / "certs" / "eu2018_noUK_8.txt"
    certificates = f"""
import sys
before = set(sys.modules)
import votedim, votedim.cli
for args in (
    ["lower-bound", "verify", *{no_uk!r}, "--coalitions", {str(certs)!r}],
    ["lower-bound", "search", *{no_uk!r}, "--budget", "8"],
):
    votedim.cli.main(args)
heavy = {{"click", "dataclasses", "inspect", "fractions", "decimal", "json"}}
assert not heavy & (set(sys.modules) - before), sorted(heavy & set(sys.modules))
print("numpy loaded:", "numpy" in sys.modules)
"""
    result = run_python(certificates, Path(toys["toy16"]).parent)
    assert result.returncode == 0, result.stderr
    assert "certified lower bound: 8" in result.stdout
    assert result.stdout.endswith("numpy loaded: False\n")

    sweeps = f"""
import sys
import votedim.cli
assert "numpy" not in sys.modules
votedim.cli.main(["analyze", "--data", {toys["toy16"]!r}])
assert "click" not in sys.modules
assert "votedim.lowerbound" not in sys.modules
print("numpy loaded:", "numpy" in sys.modules)
votedim.cli.main(["verify", "--data", {toys["toy16"]!r}])
print("numpy loaded:", "numpy" in sys.modules)
"""
    result = run_python(sweeps, Path(toys["toy16"]).parent)
    assert result.returncode == 0, result.stderr
    analyzed, verified = run("analyze", "--data", toys["toy16"]), run("verify", "--data", toys["toy16"])
    assert analyzed.exit_code == verified.exit_code == 0
    assert result.stdout == (
        analyzed.stdout + "numpy loaded: False\n" + verified.stdout + "numpy loaded: True\n"
    )


def test_closed_stdout_exits_quietly():
    # ``votedim analyze --json ... | head -c 100``: the reader leaves early.
    args = ["analyze", "--json", "--data", "builtin:2018", "--exclude", "United Kingdom"]
    argv = [sys.executable, "-m", "votedim.cli", *args]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (1, b"")


def test_help_lists_commands():
    result = run("--help")
    assert result.exit_code == 0
    for command in ("analyze", "verify", "lower-bound"):
        assert command in result.stdout

