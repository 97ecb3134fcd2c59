"""Seeded losing-coalition files for the `certify` workload.

A round of `certify` passes each generated file to `lower-bound verify`:

- one *clique* file: ``CLIQUE_SIZE`` large losing coalitions that are
  pairwise incompatible, each pair certified within a small symmetric
  difference, so the program finds every certificate early and exits 0
  with the lower bound ``CLIQUE_SIZE``;
- ``HEAVY_PAIRS`` *pair* files: two losing coalitions whose symmetric
  difference has exactly ``HEAVY_DELTA`` players and admits no
  certificate, so the program enumerates all 2^(HEAVY_DELTA-1) splits and
  exits 1.

Each heavy pair sits in its own file, and so its own process, because the
program keeps every chunk's work arrays alive until the garbage collector
runs: many heavy pairs in one process could hold gigabytes, and how many
depends on the collector's timing.  One pair per process makes the work
and the peak memory the same for every seed.

The benchmark knows every pair's true answer without votedim
(``check.pair_certifiable``).

    python3 perfbench/certgen.py --seed 3 --out-dir /tmp/certify
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from check import Rule, load_rule, pair_certifiable

CLIQUE_SIZE = 4
CLIQUE_MAX_DELTA = 12
HEAVY_PAIRS = 12
HEAVY_DELTA = 21


def _large_loser(rule: Rule, rng: random.Random) -> int:
    """Everyone but enough populous members to lose, thinned to 20-23."""
    n = rule.n
    mask = (1 << n) - 1
    for j in rng.sample(range(10), 10):
        if not rule.pop_wins(rule.pop(mask)):
            break
        mask ^= 1 << j
    size = rng.randint(20, rule.veto_quota - 1)
    while mask.bit_count() > size:
        mask ^= 1 << rng.choice([j for j in range(10, n) if mask >> j & 1])
    return mask


def clique(rule: Rule, rng: random.Random) -> list[int]:
    """A pairwise-certifiable set of ``CLIQUE_SIZE`` losing coalitions."""
    chosen: list[int] = []
    for _ in range(100_000):
        if len(chosen) == CLIQUE_SIZE:
            return chosen
        cand = _large_loser(rule, rng)
        if rule.wins(cand) or cand in chosen:
            continue
        if all(
            (cand ^ c).bit_count() <= CLIQUE_MAX_DELTA and pair_certifiable(rule, c, cand)
            for c in chosen
        ):
            chosen.append(cand)
        elif rng.random() < 0.01:
            chosen.clear()
    raise RuntimeError("no clique found")


def heavy_pair(rule: Rule, rng: random.Random) -> tuple[int, int]:
    """Two losing coalitions, |Δ| = HEAVY_DELTA, with no certificate."""
    n = rule.n
    while True:
        common = rng.randint(0, n - HEAVY_DELTA)
        players = rng.sample(range(n), HEAVY_DELTA + common)
        base = sum(1 << j for j in players[:common])
        cut = rng.randint(1, HEAVY_DELTA - 1)
        a = base | sum(1 << j for j in players[common : common + cut])
        b = base | sum(1 << j for j in players[common + cut :])
        if rule.wins(a) or rule.wins(b):
            continue
        if pair_certifiable(rule, a, b) is False:
            return a, b


def write_coalitions(rule: Rule, coalitions: list[int], path: Path, title: str) -> None:
    lines = [f"# {title}"] + [",".join(map(str, rule.ranks(c))) for c in coalitions]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(rule: Rule, seed: int, out_dir: Path) -> list[tuple[Path, list[int]]]:
    """Write the seed's files; return each path with its coalitions."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    sets = [("clique", clique(rule, rng))]
    sets += [(f"pair{i:02d}", list(heavy_pair(rule, rng))) for i in range(HEAVY_PAIRS)]
    files = []
    for name, coalitions in sets:
        path = out_dir / f"{name}.txt"
        write_coalitions(rule, coalitions, path, f"certify workload, seed {seed}: {name}")
        files.append((path, coalitions))
    return files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    rule = load_rule(root, "2018", ("United Kingdom",))
    for path, coalitions in generate(rule, args.seed, args.out_dir):
        print(path, len(coalitions))


if __name__ == "__main__":
    main()
