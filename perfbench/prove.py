"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py --workloads boost-2014,fence-noUK,certify \\
        --seeds 1-10 --out perfbench/results/spread.json

Runs ``run.py`` once per workload and seed at ``run_seconds`` from
BENCHMARK.json, then gives for every end-to-end metric its median, its
quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and whether that spread is under a third of the
metric's bound.  Writes the runs and the summary to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": run.machine_record(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            argv = [
                sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], values if not args.trace else "", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else None
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            if name in bounds and spread is not None:
                summary[name]["under_third_of_bound"] = spread < bounds[name] / 3
                print(f"  {name:<14} median {med:10.4f}  spread {spread:.4f}  bound {bounds[name]}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
