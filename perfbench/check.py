"""Independent output checks for the votedim benchmark.

Nothing here imports ``votedim``: the rule is rebuilt from the bundled CSV
with plain integer weight sums, so a bug in the package's sweep engine
cannot hide itself by also breaking the checker.

The rule: a coalition wins iff it has at least ``member_quota`` members and
either 65% of the population or at least ``veto_quota`` members (fewer than
four rejectors cannot block).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# SHA-256 of the exact `analyze --json` stdout bytes; a report that changes
# by one byte fails the check.
REPORT_SHA256 = {
    "builtin:2014": "fdc7bed4699f3bfc9f22382ae261e2255fbc717605da1f846b8e749b6205eef1",
    "builtin:2018-noUK": "504a3add541311285a5495dd4546074ebcb91e905f2d765ce970d334548b9868",
}

# Split enumeration in the checker stays cheap: a pair whose rich side
# could win by population on both halves is decided exhaustively only when
# its symmetric difference has at most this many players.
EXACT_DELTA_MAX = 17


@dataclass(frozen=True)
class Rule:
    labels: tuple[int, ...]
    populations: tuple[int, ...]
    member_quota: int
    veto_quota: int

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def total(self) -> int:
        return sum(self.populations)

    def pop(self, mask: int) -> int:
        return sum(w for j, w in enumerate(self.populations) if mask >> j & 1)

    def pop_wins(self, weight: int) -> bool:
        return 20 * weight >= 13 * self.total

    def wins(self, mask: int) -> bool:
        count = mask.bit_count()
        return count >= self.member_quota and (
            self.pop_wins(self.pop(mask)) or count >= self.veto_quota
        )

    def mask(self, ranks) -> int:
        index = {r: j for j, r in enumerate(self.labels)}
        return sum(1 << index[r] for r in ranks)

    def ranks(self, mask: int) -> list[int]:
        return [r for j, r in enumerate(self.labels) if mask >> j & 1]


def load_rule(root: Path, year: str, exclude: tuple[str, ...] = ()) -> Rule:
    """The EU rule for a bundled table, quotas re-derived after exclusion."""
    path = root / "src" / "votedim" / "data" / f"eu{year}.csv"
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.DictReader(f) if r["country"] not in exclude]
    m = len(rows)
    return Rule(
        labels=tuple(int(r["rank"]) for r in rows),
        populations=tuple(int(r["population"]) for r in rows),
        member_quota=-(-11 * m // 20),
        veto_quota=max(1, m - 3),
    )


# --- pairwise incompatibility -------------------------------------------------


def certificate_ok(rule: Rule, a: int, b: int, p: int, q: int) -> bool:
    """a and b lose, p and q win, and p, q split a ∪ b over a ∩ b."""
    return (
        not rule.wins(a)
        and not rule.wins(b)
        and rule.wins(p)
        and rule.wins(q)
        and p | q == a | b
        and p & q == a & b
    )


def pair_certifiable(rule: Rule, a: int, b: int) -> bool | None:
    """Whether some split of the symmetric difference certifies (a, b).

    Exact, or None when deciding would need a large enumeration.  When the
    two coalitions hold less than twice the population quota, at most one
    half can win by population, so the other needs ``veto_quota`` members;
    then only the size k of one half matters besides its population, and
    the k most populous players of the difference are the best choice for
    the population side.  Otherwise the splits are enumerated when the
    difference is small.
    """
    base = a & b
    delta = (a | b) ^ base
    positions = [j for j in range(rule.n) if delta >> j & 1]
    if not positions:
        return False
    if 20 * (rule.pop(a) + rule.pop(b)) < 26 * rule.total:
        by_pop = sorted(positions, key=lambda j: -rule.populations[j])
        x = 0
        for k in range(len(by_pop) + 1):
            if k:
                x |= 1 << by_pop[k - 1]
            if rule.wins(base | x) and rule.wins(base | (delta ^ x)):
                return True
        return False
    if len(positions) > EXACT_DELTA_MAX:
        return None
    sel = np.arange(1 << (len(positions) - 1), dtype=np.int64)
    bits = (sel[:, None] >> np.arange(len(positions) - 1)) & 1
    w = np.array([rule.populations[j] for j in positions[:-1]], dtype=np.int64)
    x_pop = bits @ w
    x_cnt = bits.sum(axis=1)
    base_pop, base_cnt = rule.pop(base), base.bit_count()
    d_pop, d_cnt = sum(rule.populations[j] for j in positions), len(positions)

    def wins(pop, cnt):
        return (cnt >= rule.member_quota) & (
            (20 * pop >= 13 * rule.total) | (cnt >= rule.veto_quota)
        )

    ok = wins(base_pop + x_pop, base_cnt + x_cnt) & wins(
        base_pop + d_pop - x_pop, base_cnt + d_cnt - x_cnt
    )
    return bool(ok.any())


# --- parsing and checking command output ---------------------------------------

_COALITION = re.compile(r"^coalition (\d+): \{([\d,]*)\} (losing|WINNING \(not admissible\))$")
_PAIR = re.compile(
    r"^pair \((\d+),(\d+)\): (certified|no-certificate|not-attempted)"
    r"(?:  p=\{([\d,]*)\}  q=\{([\d,]*)\})?$"
)
_BOUND = re.compile(r"^certified lower bound: (\d+)$")
_NO_BOUND = "set not fully certified: no lower bound claimed"


@dataclass(frozen=True)
class CertReport:
    coalitions: list[int]
    pairs: dict[tuple[int, int], tuple[str, int | None, int | None]]
    lower_bound: int | None


def _ranks(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def parse_cert_report(rule: Rule, text: str) -> CertReport:
    """Parse `lower-bound verify|search` output; raise ValueError if malformed."""
    coalitions: list[int] = []
    pairs = {}
    bound: int | None = None
    closed = False
    for line in text.splitlines():
        if closed:
            raise ValueError(f"text after the verdict line: {line!r}")
        if m := _COALITION.match(line):
            if int(m[1]) != len(coalitions) + 1:
                raise ValueError(f"coalition numbering broken at {line!r}")
            if (m[3] == "losing") == rule.wins(rule.mask(_ranks(m[2]))):
                raise ValueError(f"wrong losing status: {line!r}")
            coalitions.append(rule.mask(_ranks(m[2])))
        elif m := _PAIR.match(line):
            p = None if m[4] is None else rule.mask(_ranks(m[4]))
            q = None if m[5] is None else rule.mask(_ranks(m[5]))
            if (m[3] == "certified") != (p is not None):
                raise ValueError(f"certificate presence mismatch: {line!r}")
            pairs[(int(m[1]) - 1, int(m[2]) - 1)] = (m[3], p, q)
        elif m := _BOUND.match(line):
            bound, closed = int(m[1]), True
        elif line == _NO_BOUND:
            closed = True
        else:
            raise ValueError(f"unexpected line: {line!r}")
    if not closed:
        raise ValueError("no verdict line")
    k = len(coalitions)
    if set(pairs) != {(i, j) for i in range(k) for j in range(i + 1, k)}:
        raise ValueError("pair lines do not cover every pair exactly once")
    return CertReport(coalitions, pairs, bound)


def check_cert_report(
    rule: Rule,
    report: CertReport,
    returncode: int,
    expected: dict[tuple[int, int], bool] | None = None,
) -> None:
    """Re-check every certificate, the verdict and the exit code.

    ``expected`` gives the true certifiability of each pair when the caller
    knows it; a pair reported without a certificate is then checked too.
    """
    for (i, j), (status, p, q) in report.pairs.items():
        a, b = report.coalitions[i], report.coalitions[j]
        if status == "certified" and not certificate_ok(rule, a, b, p, q):
            raise ValueError(f"pair ({i + 1},{j + 1}): certificate does not re-check")
        if expected is not None and expected[(i, j)] != (status == "certified"):
            raise ValueError(
                f"pair ({i + 1},{j + 1}): reported {status}, "
                f"expected {'certified' if expected[(i, j)] else 'no-certificate'}"
            )
    full = all(not rule.wins(c) for c in report.coalitions) and all(
        s == "certified" for s, _, _ in report.pairs.values()
    )
    want_bound = len(report.coalitions) if full else None
    if report.lower_bound != want_bound:
        raise ValueError(f"lower bound {report.lower_bound}, expected {want_bound}")
    if returncode != (0 if full else 1):
        raise ValueError(f"exit code {returncode} for a {'full' if full else 'partial'} set")


def check_analyze(stdout: bytes, digest_key: str, want: dict) -> None:
    """The JSON report's headline numbers, then its exact bytes."""
    report = json.loads(stdout)
    got = {
        "bound": report["bound"],
        "gap_count": report["gap"]["count"],
        "core_size": len(report["gap"]["common_core"]),
        "frontier_count": report["frontier_count"],
        "alternate_bound": (report["alternate_quota_reading"] or {}).get("bound"),
    }
    if got != want:
        raise ValueError(f"analyze report {got}, expected {want}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != REPORT_SHA256[digest_key]:
        raise ValueError(f"analyze report digest {digest} is not the recorded one")


def check_verify(stdout: bytes, games: int, n: int) -> None:
    want = (
        f"verification passed: the {games} games match the rule "
        f"on all {1 << n} coalitions\n"
    )
    if stdout.decode() != want:
        raise ValueError(f"verify printed {stdout[-200:]!r}")
