"""Ungated report: does `verify --threads 2` pay on this machine?

    python3 perfbench/threads.py [--out perfbench/results/threads.json]

Runs `verify` at one and at two threads on 2014 (the boost-2014 table)
and on 2018 without the United Kingdom (the fence-noUK table),
alternating which thread count goes first, and checks every output.
Reports median wall time, CPU time (user + sys) and peak RSS per thread
count, the speedup (1-thread wall / 2-thread wall) and the CPU cost
(2-thread CPU / 1-thread CPU).  The benchmark's gated workloads all use
one thread; this report is not part of them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import check
import run

CASES = {
    "boost-2014": (("--data", "builtin:2014"), ("2014", ()), 24, 2),
    "fence-noUK": (run.NO_UK, ("2018", ("United Kingdom",)), 1364, 3),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=run.HERE / "results" / "threads.json")
    args = parser.parse_args()
    work = run.WORK / "threads"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report, failed = {}, 0
    try:
        for case, (data_args, (year, exclude), games, reps) in CASES.items():
            n = check.load_rule(run.ROOT, year, exclude).n
            samples = {1: [], 2: []}
            for rep in range(reps):
                for threads in (1, 2) if rep % 2 == 0 else (2, 1):
                    argv = [sys.executable, "-m", "votedim.cli", "verify", *data_args, "--threads", str(threads)]
                    code, out, wall, cpu, rss = run.run_process(argv, work / "verify.out")
                    try:
                        if code != 0:
                            raise ValueError(f"exit code {code}")
                        check.check_verify(out, games, n)
                    except ValueError as e:
                        failed += 1
                        print(f"FAILED {case} --threads {threads}: {e}")
                    samples[threads].append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
                    print(f"{case} --threads {threads}: {wall:.2f} s wall, {cpu:.2f} s cpu, {rss:.0f} MB")
            med = {
                t: {k: statistics.median(s[k] for s in runs) for k in runs[0]}
                for t, runs in samples.items()
            }
            report[case] = {
                "runs_per_thread_count": reps,
                "samples": {str(t): runs for t, runs in samples.items()},
                "median": {str(t): m for t, m in med.items()},
                "speedup": med[1]["wall_s"] / med[2]["wall_s"],
                "cpu_cost": med[2]["cpu_s"] / med[1]["cpu_s"],
            }
            print(f"{case}: speedup {report[case]['speedup']:.3f}, cpu cost {report[case]['cpu_cost']:.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"machine": run.machine_record(), "failed": failed, "cases": report}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
